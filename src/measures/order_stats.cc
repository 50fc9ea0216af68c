#include "measures/order_stats.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/simd.h"
#include "util/logging.h"

namespace deepbase::order_stats {

namespace {

constexpr uint32_t kSign = 0x80000000u;
constexpr uint32_t kMagnitude = 0x7fffffffu;
constexpr uint32_t kInfBits = 0x7f800000u;

// One column through std::nth_element over its keys: the scalar tail and
// the scalar build. Each rank selects within the part at and above the
// previous one, which nth_element left holding every key not below it.
void SelectColumn(const float* x, size_t rows, size_t ld,
                  std::span<const size_t> ranks, float* out,
                  std::vector<uint32_t>* keys) {
  keys->resize(rows);
  for (size_t r = 0; r < rows; ++r) (*keys)[r] = Key(x[r * ld]);
  auto lo = keys->begin();
  for (size_t i = 0; i < ranks.size(); ++i) {
    const auto nth = keys->begin() + static_cast<ptrdiff_t>(ranks[i]);
    std::nth_element(lo, nth, keys->end());
    out[i] = FromKey(*nth);
    lo = nth;
  }
}

#if DEEPBASE_SIMD_ENABLED
namespace stdx = vec::stdx;
using vec::CountM;
using vec::CountV;
constexpr size_t kPanel = vec::kCountLanes;
constexpr size_t kMaxTile = 4;

// keys[r * kPanel + l] = Key(x[r * ld + l]) for one 16-unit panel.
void PanelKeys(const float* x, size_t rows, size_t ld, uint32_t* keys) {
  for (size_t r = 0; r < rows; ++r) {
    std::memcpy(keys + r * kPanel, x + r * ld, kPanel * sizeof(float));
  }
  const CountV sign(kSign), magnitude(kMagnitude), inf(kInfBits);
  for (size_t i = 0; i < rows * kPanel; i += kPanel) {
    const CountV bits(keys + i, stdx::element_aligned);
    const CountV mag = bits & magnitude;
    CountV key = bits | sign;
    stdx::where(CountM((bits & sign) == sign), key) = ~bits;
    stdx::where(CountM(mag > inf), key) = mag | sign;
    key.copy_to(keys + i, stdx::element_aligned);
  }
}

// kTile ranks of one panel. The answer a is the largest key with at most
// k keys below it, which is the k-th smallest key; it is built from the
// top bit down, keeping each bit whose candidate passes that count.
template <size_t kTile>
void SelectTile(const uint32_t* keys, size_t rows, const size_t* ranks,
                CountV* ans) {
  CountV a[kTile], k[kTile];
#pragma GCC unroll 4
  for (size_t t = 0; t < kTile; ++t) {
    a[t] = CountV(0u);
    k[t] = CountV(static_cast<uint32_t>(ranks[t]));
  }
  for (int bit = 31; bit >= 0; --bit) {
    const CountV b(uint32_t{1} << bit);
    CountV cand[kTile], below[kTile];
#pragma GCC unroll 4
    for (size_t t = 0; t < kTile; ++t) {
      cand[t] = a[t] | b;
      below[t] = CountV(0u);
    }
    for (size_t r = 0; r < rows; ++r) {
      const CountV key(keys + r * kPanel, stdx::element_aligned);
#pragma GCC unroll 4
      for (size_t t = 0; t < kTile; ++t) {
        stdx::where(CountM(key < cand[t]), below[t]) = below[t] + 1u;
      }
    }
#pragma GCC unroll 4
    for (size_t t = 0; t < kTile; ++t) {
      stdx::where(CountM(below[t] <= k[t]), a[t]) = cand[t];
    }
  }
#pragma GCC unroll 4
  for (size_t t = 0; t < kTile; ++t) ans[t] = a[t];
}
#endif

}  // namespace

uint32_t Key(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const uint32_t mag = bits & kMagnitude;
  if (mag > kInfBits) return mag | kSign;  // NaN: above +inf
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

float FromKey(uint32_t key) {
  const uint32_t bits = (key & kSign) != 0 ? key & kMagnitude : ~key;
  float x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

void Select(const float* x, size_t rows, size_t cols, size_t ld,
            std::span<const size_t> ranks, float* out) {
  DB_DCHECK(rows >= 1 && rows <= std::numeric_limits<uint32_t>::max());
  DB_DCHECK(std::is_sorted(ranks.begin(), ranks.end()) &&
            (ranks.empty() || ranks.back() < rows));
  const size_t nr = ranks.size();
  std::vector<uint32_t> keys;
  size_t u = 0;
#if DEEPBASE_SIMD_ENABLED
  if (cols >= kPanel) keys.resize(rows * kPanel);
  for (; u + kPanel <= cols; u += kPanel) {
    PanelKeys(x + u, rows, ld, keys.data());
    for (size_t i = 0; i < nr; i += kMaxTile) {
      CountV ans[kMaxTile];
      const size_t tile = std::min(kMaxTile, nr - i);
      switch (tile) {
        case 4: SelectTile<4>(keys.data(), rows, ranks.data() + i, ans); break;
        case 3: SelectTile<3>(keys.data(), rows, ranks.data() + i, ans); break;
        case 2: SelectTile<2>(keys.data(), rows, ranks.data() + i, ans); break;
        default: SelectTile<1>(keys.data(), rows, ranks.data() + i, ans);
      }
      for (size_t t = 0; t < tile; ++t) {
        for (size_t l = 0; l < kPanel; ++l) {
          out[(u + l) * nr + i + t] = FromKey(ans[t][l]);
        }
      }
    }
  }
#endif
  for (; u < cols; ++u) {
    SelectColumn(x + u, rows, ld, ranks, out + u * nr, &keys);
  }
}

void Select(const Matrix& units, std::span<const size_t> ranks, float* out) {
  Select(units.row_data(0), units.rows(), units.cols(), units.lda(), ranks,
         out);
}

void MaxBelow(const Matrix& units, const float* bound, float* out) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  const size_t rows = units.rows();
  const size_t cols = units.cols();
  size_t u = 0;
#if DEEPBASE_SIMD_ENABLED
  for (; u + kPanel <= cols; u += kPanel) {
    const vec::FloatC b(bound + u, stdx::element_aligned);
    vec::FloatC best(kNegInf);
    for (size_t r = 0; r < rows; ++r) {
      const vec::FloatC v(units.row_data(r) + u, stdx::element_aligned);
      stdx::where(v < b, best) = stdx::max(best, v);
    }
    best.copy_to(out + u, stdx::element_aligned);
  }
#endif
  for (; u < cols; ++u) {
    float best = kNegInf;
    for (size_t r = 0; r < rows; ++r) {
      const float v = units.row_data(r)[u];
      if (v < bound[u]) best = std::max(best, v);
    }
    out[u] = best;
  }
}

}  // namespace deepbase::order_stats
