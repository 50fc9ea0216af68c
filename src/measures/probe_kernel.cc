#include "measures/probe_kernel.h"

#include "tensor/simd.h"
#include "util/logging.h"

namespace deepbase::probe {

namespace {

// Outputs [0, LaneEnd(n)) fill whole vectors. The rest, and every output
// when there are fewer than one vector's worth (a lone head is PyBase's one
// model per hypothesis), run in the scalar tail: one output's dot product
// over the units in a register. The scalar build runs every output there.
size_t LaneEnd([[maybe_unused]] size_t n) {
#if DEEPBASE_SIMD_ENABLED
  return n - n % vec::kFloatLanes;
#else
  return 0;
#endif
}

#if DEEPBASE_SIMD_ENABLED
// kTile vectors of outputs from j, accumulated in registers while u walks
// the inputs. `w` points at column 0 of input 0, `ldw` floats per input.
template <size_t kTile>
void ForwardTile(const float* w, size_t ldw, size_t n_in, const float* bias,
                 const float* x, size_t j, float* z) {
  using vec::FloatV;
  namespace stdx = vec::stdx;
  constexpr size_t kLanes = FloatV::size();
  FloatV acc[kTile];
#pragma GCC unroll 4
  for (size_t t = 0; t < kTile; ++t) {
    acc[t] = FloatV(bias + j + t * kLanes, stdx::element_aligned);
  }
  for (size_t u = 0; u < n_in; ++u) {
    const FloatV xu(x[u]);
    const float* wu = w + u * ldw + j;
#pragma GCC unroll 4
    for (size_t t = 0; t < kTile; ++t) {
      acc[t] += xu * FloatV(wu + t * kLanes, stdx::element_aligned);
    }
  }
#pragma GCC unroll 4
  for (size_t t = 0; t < kTile; ++t) {
    acc[t].copy_to(z + j + t * kLanes, stdx::element_aligned);
  }
}
#endif

}  // namespace

void Forward(const Matrix& w, size_t n_in, const float* bias, const float* x,
             float* z) {
  DB_DCHECK(n_in <= w.rows());
  const size_t n = w.cols();
  const float* w0 = n_in > 0 ? w.row_data(0) : nullptr;
  const size_t ldw = w.lda();
  size_t j = 0;
#if DEEPBASE_SIMD_ENABLED
  constexpr size_t kLanes = vec::kFloatLanes;
  const size_t lane_end = LaneEnd(n);
  for (; j + 4 * kLanes <= lane_end; j += 4 * kLanes) {
    ForwardTile<4>(w0, ldw, n_in, bias, x, j, z);
  }
  switch ((lane_end - j) / kLanes) {
    case 3: ForwardTile<3>(w0, ldw, n_in, bias, x, j, z); break;
    case 2: ForwardTile<2>(w0, ldw, n_in, bias, x, j, z); break;
    case 1: ForwardTile<1>(w0, ldw, n_in, bias, x, j, z); break;
    default: break;
  }
  j = lane_end;
#endif
  for (; j < n; ++j) {
    float zj = bias[j];
    for (size_t u = 0; u < n_in; ++u) zj += x[u] * w0[u * ldw + j];
    z[j] = zj;
  }
}

void AddGradient(const float* d, const float* x, size_t n_in, Matrix* g,
                 float* g_bias) {
  DB_DCHECK(n_in <= g->rows());
  const size_t n = g->cols();
  float* g0 = n_in > 0 ? g->row_data(0) : nullptr;
  const size_t ldg = g->lda();
  const size_t lane_end = LaneEnd(n);
  if (lane_end > 0) {
    for (size_t u = 0; u < n_in; ++u) {
      vec::AddScaledSpan(g0 + u * ldg, d, x[u], lane_end);
    }
  }
  for (size_t j = lane_end; j < n; ++j) {
    for (size_t u = 0; u < n_in; ++u) g0[u * ldg + j] += d[j] * x[u];
  }
  for (size_t j = 0; j < n; ++j) g_bias[j] += d[j];
}

}  // namespace deepbase::probe
