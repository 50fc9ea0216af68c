// The order-statistics kernel: exact per-unit ranks of a block's columns.
// Jaccard's thresholds, mutual information's unit and numeric-hypothesis
// bin edges and multivariate MI's medians all calibrate through it.
//
// Select returns, for every unit and requested rank k, the value at
// position k of the unit's column sorted ascending: the value std::sort
// puts there. It compares order-preserving uint32 keys (Key), which leave
// only two places where the sort's answer is not one value:
// - a zero's sign: the sort treats −0 and +0 as equal and the keys rank −0
//   below +0, so a selected zero may carry the other sign. No `x > e` and
//   no `x < e` can tell them apart;
// - NaN, which a float sort leaves unordered: the keys rank NaN of either
//   sign above +inf, and a selected NaN comes back with its sign cleared.
//
// Whole 16-unit panels run one vector lane per unit. The panel's keys are
// copied once into a row-major buffer, and each rank is built one key bit
// at a time from the top: a bit stays set when at most k keys fall below
// the candidate, one counting pass per bit, with up to four ranks of the
// request counted in the same pass. The remaining units, and every unit in
// the scalar build, run std::nth_element over the same keys. Both give the
// exact k-th smallest key, so a unit's value does not depend on its lane,
// on the tail or on the build.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/matrix.h"

namespace deepbase::order_stats {

/// \brief The order-preserving key of `x`: −inf < … < −0 < +0 < … < +inf,
/// then NaN of either sign, ordered by its payload.
uint32_t Key(float x);

/// \brief The float whose key is `key` (NaN keys give a positive NaN).
float FromKey(uint32_t key);

/// \brief For every column u < cols of the rows × cols matrix at `x` (row
/// r at x + r·ld) and every i < ranks.size(): out[u · ranks.size() + i] =
/// the value at position ranks[i] of column u sorted ascending in key
/// order. `ranks` is nondecreasing and below `rows`, and rows >= 1.
void Select(const float* x, size_t rows, size_t cols, size_t ld,
            std::span<const size_t> ranks, float* out);

/// \brief Select over every unit column of a block.
void Select(const Matrix& units, std::span<const size_t> ranks, float* out);

/// \brief out[u] = the largest value of unit column u strictly below
/// bound[u] (float `<`, so NaN never counts), or −inf when there is none.
void MaxBelow(const Matrix& units, const float* bound, float* out);

}  // namespace deepbase::order_stats
