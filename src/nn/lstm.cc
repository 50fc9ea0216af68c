#include "nn/lstm.h"

#include <cmath>

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
inline float SigmoidScalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }
}  // namespace

Matrix LstmLayer::RunGates(size_t T, Matrix preact, LstmCache* cache) const {
  const size_t h = hidden_dim_;
  Matrix hiddens(T, h), cells(T, h), tanh_c(T, h);
  Matrix h_prev(1, h), c_prev(1, h);
  for (size_t t = 0; t < T; ++t) {
    float* z = preact.row_data(t);
    // Add recurrent contribution h_{t-1} * Wh.
    if (t > 0) {
      const float* hp = hiddens.row_data(t - 1);
      for (size_t k = 0; k < h; ++k) {
        const float hv = hp[k];
        if (hv == 0.0f) continue;
        const float* wrow = wh.row_data(k);
        for (size_t j = 0; j < 4 * h; ++j) z[j] += hv * wrow[j];
      }
    }
    float* crow = cells.row_data(t);
    float* hrow = hiddens.row_data(t);
    float* trow = tanh_c.row_data(t);
    const float* cprev = t > 0 ? cells.row_data(t - 1) : c_prev.row_data(0);
    for (size_t j = 0; j < h; ++j) {
      const float ig = SigmoidScalar(z[j]);
      const float fg = SigmoidScalar(z[h + j]);
      const float og = SigmoidScalar(z[2 * h + j]);
      const float gg = std::tanh(z[3 * h + j]);
      z[j] = ig;
      z[h + j] = fg;
      z[2 * h + j] = og;
      z[3 * h + j] = gg;
      crow[j] = fg * cprev[j] + ig * gg;
      trow[j] = std::tanh(crow[j]);
      hrow[j] = og * trow[j];
    }
  }
  if (cache) {
    cache->gates = std::move(preact);
    cache->cells = std::move(cells);
    cache->tanh_c = std::move(tanh_c);
    cache->hiddens = hiddens;
  }
  return hiddens;
}

Matrix LstmLayer::Forward(const Matrix& inputs, LstmCache* cache) const {
  DB_DCHECK(inputs.cols() == input_dim_);
  const size_t T = inputs.rows();
  Matrix preact = MatMul(inputs, wx);
  preact.AddRowBroadcast(b);
  if (cache) cache->inputs = inputs;
  return RunGates(T, std::move(preact), cache);
}

Matrix LstmLayer::ForwardIds(const std::vector<int>& ids,
                             LstmCache* cache) const {
  const size_t T = ids.size();
  Matrix preact(T, 4 * hidden_dim_);
  for (size_t t = 0; t < T; ++t) {
    DB_DCHECK(ids[t] >= 0 && static_cast<size_t>(ids[t]) < input_dim_);
    const float* wrow = wx.row_data(ids[t]);
    float* z = preact.row_data(t);
    for (size_t j = 0; j < 4 * hidden_dim_; ++j) z[j] = wrow[j] + b(0, j);
  }
  return RunGates(T, std::move(preact), cache);
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

Result<std::vector<Matrix>> ReadWeights(
    std::istream* in, const std::vector<std::pair<size_t, size_t>>& shapes) {
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
