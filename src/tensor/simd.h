// Vector-width abstraction for the cache-blocked kernels: a thin wrapper
// over std::experimental::simd, compiled in when the DEEPBASE_SIMD build
// option is on and the toolchain ships <experimental/simd>, with a scalar
// fallback otherwise. Kernels branch on DEEPBASE_SIMD_ENABLED; everything
// layout-related (lda padding, allocation alignment) is build-independent
// so the two modes share one in-memory format and one serialized format.
//
// Reduction-shape contract: SIMD kernels accumulate floating-point sums in
// fixed-width lanes (kDoubleLanes for moment sums), so within one build the
// result of a kernel is a deterministic function of its input block alone —
// the property the pairwise-tree shard merges rely on. The measure kernels
// (measures/independent.cc) map one vector LANE to one UNIT and walk rows
// in order, so their per-unit sums perform the same additions in the same
// order as the scalar fallback — bit-identical across SIMD and scalar
// builds, on top of being shard-count-invariant. Kernels that reduce
// ACROSS lanes (Sum/Dot/Softmax in tensor/matrix.cc) re-associate relative
// to the scalar build; the kernels_equivalence test pins their documented
// ULP tolerance. Float multiply-adds (AddScaledSpan: MatMul's row update
// and the probe kernel's gradient; the LSTM step kernel's acc + v * w in
// nn/lstm.cc) are contracted into FMAs under -march=native, so their
// results differ from the scalar build's too, though never between the
// lanes of one build. Integer counting kernels are bit-identical
// everywhere.

#pragma once

#include <cstddef>
#include <cstdint>

#if defined(DEEPBASE_SIMD) && __has_include(<experimental/simd>)
#define DEEPBASE_SIMD_ENABLED 1
#include <experimental/simd>
#else
#define DEEPBASE_SIMD_ENABLED 0
#endif

namespace deepbase {
namespace vec {

/// Alignment of every owned Matrix buffer (one cache line; also the
/// widest vector register on current x86).
inline constexpr size_t kByteAlign = 64;

/// Leading-dimension padding unit in floats: rows start on 64-byte
/// boundaries (16 floats), a multiple of every vector width up to AVX-512.
/// Build-independent so SIMD and scalar builds share one layout.
inline constexpr size_t kLdaFloats = kByteAlign / sizeof(float);

#if DEEPBASE_SIMD_ENABLED

namespace stdx = std::experimental;

/// Widest native float vector (16 lanes on AVX-512, 8 on AVX2, 4 on SSE).
using FloatV = stdx::native_simd<float>;
inline constexpr size_t kFloatLanes = FloatV::size();

/// Fixed-width double accumulator lanes for the moment-sum kernels. Fixed
/// (not native) so the reduction shape — and therefore every FP sum — is
/// identical across all SIMD builds regardless of host vector width.
inline constexpr size_t kDoubleLanes = 8;
using DoubleV = stdx::fixed_size_simd<double, kDoubleLanes>;
using FloatD = stdx::fixed_size_simd<float, kDoubleLanes>;

/// Fixed 16-float tiles for the integer counting kernels (one cache line).
inline constexpr size_t kCountLanes = kLdaFloats;
using FloatC = stdx::fixed_size_simd<float, kCountLanes>;
using CountV = stdx::fixed_size_simd<uint32_t, kCountLanes>;
using CountM = stdx::fixed_size_simd_mask<uint32_t, kCountLanes>;

/// Load kDoubleLanes floats at p and widen to double lanes.
inline DoubleV WidenLoad(const float* p) {
  FloatD f(p, stdx::element_aligned);
  return stdx::static_simd_cast<DoubleV>(f);
}

#else  // scalar fallback: the same constants so tile loops still compile.

inline constexpr size_t kFloatLanes = 1;
inline constexpr size_t kDoubleLanes = 1;
inline constexpr size_t kCountLanes = 1;

#endif  // DEEPBASE_SIMD_ENABLED

/// d[i] += a * s[i] for i in [0, n): the row update of MatMul and of the
/// probe kernel's gradient. Each element gets one multiply-add per call,
/// so a product built from it sums every element in its k order.
inline void AddScaledSpan(float* d, const float* s, float a, size_t n) {
  size_t i = 0;
#if DEEPBASE_SIMD_ENABLED
  const FloatV av(a);
  for (; i + FloatV::size() <= n; i += FloatV::size()) {
    FloatV dv(d + i, stdx::element_aligned);
    FloatV sv(s + i, stdx::element_aligned);
    (dv + av * sv).copy_to(d + i, stdx::element_aligned);
  }
#endif
  for (; i < n; ++i) d[i] += a * s[i];
}

}  // namespace vec
}  // namespace deepbase
