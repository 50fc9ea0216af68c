// The probe kernel: the affine layer the SGD probes train, with one vector
// lane per output. The outputs are logistic regression's heads (one per
// hypothesis: model merging, §5.2.1), the softmax probe's classes and the
// MLP probe's hidden units; the inputs are the group's units.
//
// Per-element order: every output z[j] starts from its bias and adds
// x[u]·W(u, j) for ascending u, and every gradient element g(u, j) gets
// one x[u]·d[j] per call, so a minibatch sums its rows in row order. These
// are the additions of the one-head-at-a-time loops in
// tests/oracle/probe_reference.h, so weights, validation scores and error
// estimates equal theirs bit for bit within one build, and a head trains
// the same bits wherever it sits: in a vector lane, in the scalar tail or
// alone (merged equals solo). Whole vectors of outputs run on lanes, their
// accumulators held in registers across u; the remaining outputs (all of
// them when there are fewer than one vector's worth, and in the scalar
// build) run one at a time over the inputs.

#pragma once

#include <cstddef>

#include "tensor/matrix.h"

namespace deepbase::probe {

/// \brief z[j] = bias[j] + Σ_{u < n_in} x[u]·w(u, j) for j < w.cols().
/// `w` may hold more than n_in rows (logistic regression keeps its bias
/// as row n_in).
void Forward(const Matrix& w, size_t n_in, const float* bias, const float* x,
             float* z);

/// \brief g(u, j) += x[u]·d[j] for u < n_in and j < g->cols(), and
/// g_bias[j] += d[j]: one row's contribution to the weight gradient.
void AddGradient(const float* d, const float* x, size_t n_in, Matrix* g,
                 float* g_bias);

}  // namespace deepbase::probe
