#include "nn/lstm.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "tensor/simd.h"
#include "util/logging.h"

namespace deepbase {

LstmLayer::LstmLayer(size_t input_dim, size_t hidden_dim, Rng* rng)
    : wx(Matrix::Glorot(input_dim, 4 * hidden_dim, rng)),
      wh(Matrix::Glorot(hidden_dim, 4 * hidden_dim, rng)),
      b(1, 4 * hidden_dim),
      input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      dwx_(input_dim, 4 * hidden_dim),
      dwh_(hidden_dim, 4 * hidden_dim),
      db_(1, 4 * hidden_dim) {
  // Forget-gate bias starts at 1 (standard trick for gradient flow).
  for (size_t j = 0; j < hidden_dim; ++j) b(0, hidden_dim + j) = 1.0f;
}

namespace {

// ------------------------------------------------------------------------
// The gate step: sigmoid and tanh from one deterministic polynomial source,
// evaluated one vector lane per unit (FloatV in the SIMD build, float in
// the scalar build). Training and extraction both run it. Every lane runs
// the same instructions, and a tail shorter than a vector is padded into a
// full one, so a unit's outputs depend only on its own inputs: equal
// pre-activations and previous cell give equal bits in every lane and at
// every hidden size. A NaN input yields NaN.
// ------------------------------------------------------------------------

#if DEEPBASE_SIMD_ENABLED
using GateV = vec::FloatV;
using GateI = vec::stdx::rebind_simd_t<int32_t, GateV>;

inline GateV Load(const float* p) {
  return GateV(p, vec::stdx::element_aligned);
}
inline void Store(const GateV& v, float* p) {
  v.copy_to(p, vec::stdx::element_aligned);
}
inline GateV Select(const GateV::mask_type& m, const GateV& a,
                    const GateV& b) {
  GateV out = b;
  where(m, out) = a;
  return out;
}
inline GateV Floor(const GateV& x) { return vec::stdx::floor(x); }
// 2^n for integral n in the normal exponent range, from its bit pattern.
inline GateV Pow2(const GateV& n) {
  return std::bit_cast<GateV>(
      (vec::stdx::static_simd_cast<GateI>(n) + 127) << 23);
}
#else
using GateV = float;

inline GateV Load(const float* p) { return *p; }
inline void Store(GateV v, float* p) { *p = v; }
inline GateV Select(bool m, GateV a, GateV b) { return m ? a : b; }
inline GateV Floor(GateV x) { return std::floor(x); }
inline GateV Pow2(GateV n) {
  return std::bit_cast<float>((static_cast<int32_t>(n) + 127) << 23);
}
#endif
constexpr size_t kGateLanes = vec::kFloatLanes;

// Exponent arguments saturate at ±80: e^80 is finite, and the gates have
// reached 1 (or fallen below 2e-35) long before. NaN maps to 80 here; the
// callers restore it.
constexpr float kExpLimit = 80.0f;
inline GateV ClampExpArg(GateV x) {
  x = Select(x < kExpLimit, x, GateV(kExpLimit));
  return Select(x > -kExpLimit, x, GateV(-kExpLimit));
}

// e^x for x in [-kExpLimit, kExpLimit] (Cephes' single-precision
// exponential): x = n·ln2 + r with |r| <= ln2/2 (ln2 split in two so
// n·ln2 is exact), a degree-5 polynomial for e^r, and 2^n from its bits.
inline GateV ExpClamped(GateV x) {
  const GateV n = Floor(x * 1.44269504088896341f + 0.5f);
  x = x - n * 0.693359375f;
  x = x + n * 2.12194440e-4f;
  GateV p = GateV(1.9875691500e-4f);
  p = p * x + 1.3981999507e-3f;
  p = p * x + 8.3334519073e-3f;
  p = p * x + 4.1665795894e-2f;
  p = p * x + 1.6666665459e-1f;
  p = p * x + 5.0000001201e-1f;
  p = p * (x * x) + x + 1.0f;
  return p * Pow2(n);
}

inline GateV Sigmoid(GateV x) {
  const GateV s = 1.0f / (1.0f + ExpClamped(ClampExpArg(-x)));
  return Select(x == x, s, x);
}

// Cephes' single-precision tanh: an odd polynomial below |x| = 0.625,
// 1 - 2 / (e^2|x| + 1) with x's sign above.
inline GateV Tanh(GateV x) {
  const GateV ax = Select(x < 0.0f, -x, x);
  const GateV z = x * x;
  GateV p = GateV(-5.70498872745e-3f);
  p = p * z + 2.06390887954e-2f;
  p = p * z - 5.37397155531e-2f;
  p = p * z + 1.33314422036e-1f;
  p = p * z - 3.33332819422e-1f;
  const GateV small = p * z * x + x;
  const GateV large = 1.0f - 2.0f / (ExpClamped(ClampExpArg(ax + ax)) + 1.0f);
  const GateV t = Select(ax < 0.625f, small, Select(x < 0.0f, -large, large));
  return Select(x == x, t, x);
}

// One vector of units: i, f, o, g point at their pre-activations and
// receive the gates; writes c = f·c_prev + i·g, tanh(c) and h = o·tanh(c).
inline void GateLanes(float* i, float* f, float* o, float* g,
                      const float* cprev, float* c, float* tc, float* h) {
  const GateV ig = Sigmoid(Load(i));
  const GateV fg = Sigmoid(Load(f));
  const GateV og = Sigmoid(Load(o));
  const GateV gg = Tanh(Load(g));
  const GateV cv = fg * Load(cprev) + ig * gg;
  const GateV tv = Tanh(cv);
  Store(ig, i);
  Store(fg, f);
  Store(og, o);
  Store(gg, g);
  Store(cv, c);
  Store(tv, tc);
  Store(og * tv, h);
}

// ------------------------------------------------------------------------
// The step kernel: the 4h pre-activations of a tile of records at one
// timestep. Every element is built in one order, whatever the tile:
//   layer 0:      Wx[id] + b
//   layer l >= 1: 0 + x_0·Wx[0] + x_1·Wx[1] + ..., then + b
//   then, t > 0:  + h_0·Wh[0] + h_1·Wh[1] + ...
// with k ascending, a term skipped where that record's x_k or h_k is 0,
// and each term added as acc + v * w, which the SIMD build contracts into
// one FMA. That is the order of the per-record products it replaced (the
// input product, then the bias, then one row update per k), so every
// byte is theirs. A register tile of R <= kLstmTileRecords records by
// C <= kTileVectors vectors of columns keeps its R·C accumulators in
// registers across k: each weight vector is loaded once per k for all R
// records, and the pre-activations are stored once per step. The weight
// and bias rows are padded to whole vectors (PaddedLda), so a ragged last
// vector loads whole and stores only its columns.
// ------------------------------------------------------------------------

// The register tiles' loops over records and vectors run unrolled, so
// their accumulators are registers, not a stack array.
#define DB_UNROLL _Pragma("GCC unroll 16")

// Accumulator vectors per record: 8 of AVX-512's 32 registers (16 lanes),
// 4 of the 16 below it, so R·C accumulators and C weight vectors fit.
constexpr size_t kTileVectors = kGateLanes >= 16 ? 8 : 4;
constexpr size_t kPanelCols = kTileVectors * kGateLanes;

// One step of a tile: record r reads its id at ids[r * ids_stride]
// (layer 0) or its input row at x + r * x_stride (layer >= 1), its
// previous hidden state at hprev + r * h_stride (null at t = 0), and
// receives its pre-activations at z + r * z_stride.
struct StepArgs {
  const Matrix* wx = nullptr;
  const Matrix* wh = nullptr;
  const float* b = nullptr;
  size_t in = 0, hidden = 0;
  const int* ids = nullptr;
  size_t ids_stride = 0;
  const float* x = nullptr;
  size_t x_stride = 0;
  const float* hprev = nullptr;
  size_t h_stride = 0;
  float* z = nullptr;
  size_t z_stride = 0;
};

// acc[r][c] += v_r[k] · w[k][j0 + c·lanes] for k ascending, skipping the
// terms where v_r[k] == 0; record r's v row is at v + r * v_stride.
template <size_t R, size_t C>
inline void Accumulate(GateV (&acc)[R][C], const Matrix& w, size_t K,
                       const float* v, size_t v_stride, size_t j0) {
  const float* wk = w.row_data(0) + j0;
  for (size_t k = 0; k < K; ++k, wk += w.lda()) {
    GateV wv[C];
    DB_UNROLL
    for (size_t c = 0; c < C; ++c) wv[c] = Load(wk + c * kGateLanes);
    DB_UNROLL
    for (size_t r = 0; r < R; ++r) {
      const float vk = v[r * v_stride + k];
      if (vk == 0.0f) continue;
      DB_UNROLL
      for (size_t c = 0; c < C; ++c) acc[r][c] = acc[r][c] + vk * wv[c];
    }
  }
}

// The register tile of records [r0, r0 + R) and columns [j0, j0 + width),
// width in ((C - 1)·lanes, C·lanes].
template <size_t R, size_t C>
void StepPanel(const StepArgs& a, size_t r0, size_t j0, size_t width) {
  GateV acc[R][C];
  if (a.ids != nullptr) {
    DB_UNROLL
    for (size_t r = 0; r < R; ++r) {
      const float* wrow = a.wx->row_data(a.ids[(r0 + r) * a.ids_stride]) + j0;
      DB_UNROLL
      for (size_t c = 0; c < C; ++c) {
        acc[r][c] =
            Load(wrow + c * kGateLanes) + Load(a.b + j0 + c * kGateLanes);
      }
    }
  } else {
    DB_UNROLL
    for (size_t r = 0; r < R; ++r) {
      DB_UNROLL
      for (size_t c = 0; c < C; ++c) acc[r][c] = GateV(0.0f);
    }
    Accumulate(acc, *a.wx, a.in, a.x + r0 * a.x_stride, a.x_stride, j0);
    DB_UNROLL
    for (size_t r = 0; r < R; ++r) {
      DB_UNROLL
      for (size_t c = 0; c < C; ++c) {
        acc[r][c] = acc[r][c] + Load(a.b + j0 + c * kGateLanes);
      }
    }
  }
  if (a.hprev != nullptr) {
    Accumulate(acc, *a.wh, a.hidden, a.hprev + r0 * a.h_stride, a.h_stride,
               j0);
  }
  const size_t tail = width - (C - 1) * kGateLanes;
  DB_UNROLL
  for (size_t r = 0; r < R; ++r) {
    float* z = a.z + (r0 + r) * a.z_stride + j0;
    DB_UNROLL
    for (size_t c = 0; c + 1 < C; ++c) Store(acc[r][c], z + c * kGateLanes);
    if (tail == kGateLanes) {
      Store(acc[r][C - 1], z + (C - 1) * kGateLanes);
    } else {
      alignas(vec::kByteAlign) float lanes[kGateLanes];
      Store(acc[r][C - 1], lanes);
      std::copy_n(lanes, tail, z + (C - 1) * kGateLanes);
    }
  }
}

using PanelFn = void (*)(const StepArgs&, size_t, size_t, size_t);

template <size_t R, size_t... C>
constexpr std::array<PanelFn, kTileVectors> PanelRow(
    std::index_sequence<C...>) {
  return {&StepPanel<R, C + 1>...};
}

template <size_t... R>
constexpr std::array<std::array<PanelFn, kTileVectors>, kLstmTileRecords>
PanelTable(std::index_sequence<R...>) {
  return {PanelRow<R + 1>(std::make_index_sequence<kTileVectors>())...};
}

// kPanels[R - 1][C - 1] is StepPanel<R, C>.
constexpr auto kPanels =
    PanelTable(std::make_index_sequence<kLstmTileRecords>());

// The pre-activations of all `n` records of a tile at one step.
void StepKernel(const StepArgs& a, size_t n) {
  const size_t cols = 4 * a.hidden;
  for (size_t r0 = 0; r0 < n; r0 += kLstmTileRecords) {
    const size_t rows = std::min(kLstmTileRecords, n - r0);
    for (size_t j0 = 0; j0 < cols; j0 += kPanelCols) {
      const size_t width = std::min(kPanelCols, cols - j0);
      kPanels[rows - 1][(width + kGateLanes - 1) / kGateLanes - 1](a, r0, j0,
                                                                  width);
    }
  }
}

}  // namespace

void LstmGateStep(float* z, const float* cprev, float* c, float* tc, float* h,
                  size_t hidden) {
  size_t j = 0;
  for (; j + kGateLanes <= hidden; j += kGateLanes) {
    GateLanes(z + j, z + hidden + j, z + 2 * hidden + j, z + 3 * hidden + j,
              cprev + j, c + j, tc + j, h + j);
  }
  if (j == hidden) return;
  // The tail, padded into one full vector (zeros in the unused lanes).
  const size_t m = hidden - j;
  alignas(vec::kByteAlign) float pad[8][kGateLanes] = {};
  for (size_t q = 0; q < 4; ++q) std::copy_n(z + q * hidden + j, m, pad[q]);
  std::copy_n(cprev + j, m, pad[4]);
  GateLanes(pad[0], pad[1], pad[2], pad[3], pad[4], pad[5], pad[6], pad[7]);
  for (size_t q = 0; q < 4; ++q) std::copy_n(pad[q], m, z + q * hidden + j);
  std::copy_n(pad[5], m, c + j);
  std::copy_n(pad[6], m, tc + j);
  std::copy_n(pad[7], m, h + j);
}

Matrix LstmLayer::Run(size_t records, size_t T, const int* ids,
                      const Matrix* inputs, LstmCache* cache) const {
  DB_DCHECK(cache == nullptr || records == 1);
  const size_t h = hidden_dim_;
  Matrix hiddens(records * T, h);
  // Catalog::Compile rejects a dataset outside the vocabulary
  // (Extractor::CheckDataset); this guards the library's direct callers.
  for (size_t i = 0; ids != nullptr && i < records * T; ++i) {
    DB_DCHECK(ids[i] >= 0 && static_cast<size_t>(ids[i]) < input_dim_);
  }
  // A cache keeps every step's gates, cells and tanh(c) for Backward;
  // without one, each record reuses one row of each across its steps. A
  // cell row starts at zero and holds c[t-1] until the gate step
  // overwrites it with c[t].
  const size_t rows = cache ? T : records;
  Matrix gates(rows, 4 * h), cells(rows, h), tanh_c(rows, h);
  StepArgs a{.wx = &wx,
             .wh = &wh,
             .b = b.row_data(0),
             .in = input_dim_,
             .hidden = h,
             .ids_stride = T,
             .x_stride = inputs ? T * inputs->lda() : 0,
             .h_stride = T * hiddens.lda(),
             .z_stride = gates.lda()};
  for (size_t t = 0; t < T; ++t) {
    a.ids = ids ? ids + t : nullptr;
    a.x = inputs ? inputs->row_data(t) : nullptr;
    a.hprev = t > 0 ? hiddens.row_data(t - 1) : nullptr;
    a.z = gates.row_data(cache ? t : 0);
    StepKernel(a, records);
    for (size_t r = 0; r < records; ++r) {
      const size_t row = cache ? t : r;
      const float* cprev = cells.row_data(cache && t > 0 ? t - 1 : row);
      LstmGateStep(gates.row_data(row), cprev, cells.row_data(row),
                   tanh_c.row_data(row), hiddens.row_data(r * T + t), h);
    }
  }
  if (cache) {
    cache->gates = std::move(gates);
    cache->cells = std::move(cells);
    cache->tanh_c = std::move(tanh_c);
    cache->hiddens = hiddens;
  }
  return hiddens;
}

Matrix LstmLayer::Forward(const Matrix& inputs, LstmCache* cache) const {
  DB_DCHECK(inputs.cols() == input_dim_);
  if (cache) cache->inputs = inputs;
  return Run(1, inputs.rows(), nullptr, &inputs, cache);
}

Matrix LstmLayer::ForwardIds(const std::vector<int>& ids,
                             LstmCache* cache) const {
  return Run(1, ids.size(), ids.data(), nullptr, cache);
}

Matrix LstmLayer::ForwardTile(const Matrix& inputs, size_t records) const {
  DB_DCHECK(inputs.cols() == input_dim_ && records > 0 &&
            inputs.rows() % records == 0);
  return Run(records, inputs.rows() / records, nullptr, &inputs, nullptr);
}

Matrix LstmLayer::ForwardIdsTile(RecordTile tile) const {
  DB_DCHECK(!tile.empty());
  const size_t T = tile.front()->size();
  std::vector<int> ids;  // record-major
  ids.reserve(tile.size() * T);
  for (const std::vector<int>* record : tile) {
    DB_DCHECK(record->size() == T);
    ids.insert(ids.end(), record->begin(), record->end());
  }
  return Run(tile.size(), T, ids.data(), nullptr, nullptr);
}

Matrix LstmLayer::BackwardCore(const LstmCache& cache, const Matrix& dh,
                               Matrix* dh_total_out,
                               bool accumulate_grads) const {
  const size_t T = cache.hiddens.rows();
  const size_t h = hidden_dim_;
  DB_DCHECK(dh.rows() == T && dh.cols() == h);
  if (dh_total_out != nullptr) *dh_total_out = Matrix(T, h);
  Matrix dpre(T, 4 * h);            // d(pre-activation z)
  Matrix dh_next(1, h), dc_next(1, h);  // carried from t+1
  for (size_t t = T; t-- > 0;) {
    const float* gates = cache.gates.row_data(t);
    const float* tanhc = cache.tanh_c.row_data(t);
    const float* cprev_row =
        t > 0 ? cache.cells.row_data(t - 1) : nullptr;
    float* dz = dpre.row_data(t);
    float* dhn = dh_next.row_data(0);
    float* dcn = dc_next.row_data(0);
    const float* dht = dh.row_data(t);
    for (size_t j = 0; j < h; ++j) {
      const float ig = gates[j], fg = gates[h + j], og = gates[2 * h + j],
                  gg = gates[3 * h + j];
      const float dh_total = dht[j] + dhn[j];
      if (dh_total_out != nullptr) (*dh_total_out)(t, j) = dh_total;
      const float dtanh = dh_total * og;
      const float dc = dcn[j] + dtanh * (1.0f - tanhc[j] * tanhc[j]);
      const float dog = dh_total * tanhc[j];
      const float dig = dc * gg;
      const float dgg = dc * ig;
      const float cprev = cprev_row ? cprev_row[j] : 0.0f;
      const float dfg = dc * cprev;
      dz[j] = dig * ig * (1.0f - ig);
      dz[h + j] = dfg * fg * (1.0f - fg);
      dz[2 * h + j] = dog * og * (1.0f - og);
      dz[3 * h + j] = dgg * (1.0f - gg * gg);
      dcn[j] = dc * fg;
    }
    // dh_{t-1} += dz * Wh^T ; accumulate dWh += h_{t-1}^T dz.
    for (size_t j = 0; j < h; ++j) dhn[j] = 0.0f;
    if (t > 0) {
      const float* hprev = cache.hiddens.row_data(t - 1);
      for (size_t k = 0; k < h; ++k) {
        const float* wrow = wh.row_data(k);
        const float hv = hprev[k];
        float acc = 0;
        if (accumulate_grads) {
          float* gwrow = dwh_.row_data(k);
          for (size_t j = 0; j < 4 * h; ++j) {
            acc += wrow[j] * dz[j];
            gwrow[j] += hv * dz[j];
          }
        } else {
          for (size_t j = 0; j < 4 * h; ++j) acc += wrow[j] * dz[j];
        }
        dhn[k] = acc;
      }
    }
    // db += dz.
    if (accumulate_grads) {
      float* dbrow = db_.row_data(0);
      for (size_t j = 0; j < 4 * h; ++j) dbrow[j] += dz[j];
    }
  }
  return dpre;
}

Matrix LstmLayer::HiddenGradients(const LstmCache& cache, const Matrix& dh,
                                  Matrix* dinputs) const {
  Matrix dh_total;
  Matrix dpre = BackwardCore(cache, dh, &dh_total,
                             /*accumulate_grads=*/false);
  if (dinputs != nullptr) *dinputs = MatMulTransB(dpre, wx);
  return dh_total;
}

void LstmLayer::Backward(const LstmCache& cache, const Matrix& dh,
                         Matrix* dinputs) const {
  Matrix dpre = BackwardCore(cache, dh);
  // dWx += inputs^T dpre.
  dwx_ += MatMulTransA(cache.inputs, dpre);
  if (dinputs) *dinputs = MatMulTransB(dpre, wx);
}

void LstmLayer::BackwardIds(const std::vector<int>& ids,
                            const LstmCache& cache, const Matrix& dh) const {
  Matrix dpre = BackwardCore(cache, dh);
  for (size_t t = 0; t < ids.size(); ++t) {
    float* grow = dwx_.row_data(ids[t]);
    const float* dz = dpre.row_data(t);
    for (size_t j = 0; j < 4 * hidden_dim_; ++j) grow[j] += dz[j];
  }
}

std::vector<Matrix*> LstmLayer::Params() { return {&wx, &wh, &b}; }

std::vector<const Matrix*> LstmLayer::Grads() const {
  return {&dwx_, &dwh_, &db_};
}

void LstmLayer::ZeroGrads() {
  dwx_.Fill(0);
  dwh_.Fill(0);
  db_.Fill(0);
}

void WriteUnits(const std::vector<Matrix>& layers,
                const std::vector<int>& units, Matrix* out, size_t row0) {
  DB_DCHECK(!layers.empty() && units.size() == out->cols());
  const size_t T = layers.front().rows(), h = layers.front().cols();
  DB_DCHECK(row0 + T <= out->rows());
  // Each unit's layer and column, resolved once per call, not per row.
  std::vector<std::pair<const Matrix*, size_t>> src(units.size());
  for (size_t j = 0; j < units.size(); ++j) {
    const size_t u = static_cast<size_t>(units[j]);
    DB_DCHECK(u / h < layers.size());
    src[j] = {&layers[u / h], u % h};
  }
  for (size_t t = 0; t < T; ++t) {
    float* dst = out->row_data(row0 + t);
    for (size_t j = 0; j < src.size(); ++j) {
      dst[j] = src[j].first->row_data(t)[src[j].second];
    }
  }
}

Result<std::vector<Matrix>> ReadWeights(
    codec::Reader* in, const std::vector<std::pair<size_t, size_t>>& shapes) {
  std::vector<Matrix> weights;
  weights.reserve(shapes.size());
  for (const auto& [rows, cols] : shapes) {
    DB_ASSIGN_OR_RETURN(Matrix w, ReadMatrix(in));
    if (w.rows() != rows || w.cols() != cols) {
      return Status::Invalid(
          "weight " + std::to_string(weights.size()) + " is " +
          std::to_string(w.rows()) + "x" + std::to_string(w.cols()) +
          ", the architecture needs " + std::to_string(rows) + "x" +
          std::to_string(cols));
    }
    weights.push_back(std::move(w));
  }
  return weights;
}

}  // namespace deepbase
