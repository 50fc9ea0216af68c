#include "measures/mlp_probe.h"

#include <algorithm>
#include <cmath>

#include "measures/probe_kernel.h"
#include "util/logging.h"
#include "util/rng.h"

namespace deepbase {

MlpProbeMeasure::MlpProbeMeasure(size_t num_units, MlpProbeOptions opts)
    : num_units_(num_units), opts_(opts) {
  Rng rng(opts_.seed);
  w1_ = Matrix::Glorot(num_units, opts_.hidden, &rng);
  b1_ = Matrix(1, opts_.hidden);
  w2_ = Matrix::Glorot(opts_.hidden, 1, &rng);
  b2_ = Matrix(1, 1);
  dw1_ = Matrix(num_units, opts_.hidden);
  db1_ = Matrix(1, opts_.hidden);
  dw2_ = Matrix(opts_.hidden, 1);
  db2_ = Matrix(1, 1);
  adam_.set_lr(opts_.lr);
}

float MlpProbeMeasure::PredictProb(const float* x, float* a) const {
  probe::Forward(w1_, num_units_, b1_.row_data(0), x, a);
  float z = b2_(0, 0);
  for (size_t j = 0; j < opts_.hidden; ++j) z += std::tanh(a[j]) * w2_(j, 0);
  return 1.0f / (1.0f + std::exp(-z));
}

void MlpProbeMeasure::TrainMinibatch(const Matrix& x, std::span<const float> y,
                                     const std::vector<size_t>& rows) {
  const size_t h = opts_.hidden;
  dw1_.Fill(0);
  db1_.Fill(0);
  dw2_.Fill(0);
  db2_.Fill(0);
  const float inv_n = 1.0f / static_cast<float>(rows.size());
  std::vector<float> hidden_act(h), da(h);
  for (size_t r : rows) {
    const float* xr = x.row_data(r);
    // Forward.
    probe::Forward(w1_, num_units_, b1_.row_data(0), xr, hidden_act.data());
    float z = b2_(0, 0);
    for (size_t j = 0; j < h; ++j) {
      hidden_act[j] = std::tanh(hidden_act[j]);
      z += hidden_act[j] * w2_(j, 0);
    }
    const float p = 1.0f / (1.0f + std::exp(-z));
    const float label = y[r] > 0.5f ? 1.0f : 0.0f;
    const float dz = (p - label) * inv_n;  // dBCE/dz
    // Backward.
    db2_(0, 0) += dz;
    for (size_t j = 0; j < h; ++j) {
      dw2_(j, 0) += dz * hidden_act[j];
      da[j] = dz * w2_(j, 0) * (1.0f - hidden_act[j] * hidden_act[j]);
    }
    probe::AddGradient(da.data(), xr, num_units_, &dw1_, db1_.row_data(0));
  }
  // L2 regularization on the weights (not the biases). Element access, not
  // row pointers: through a row pointer the SIMD build fuses each
  // multiply-add into an FMA, which changes the trained weights.
  if (opts_.l2 > 0) {
    for (size_t u = 0; u < num_units_; ++u) {
      for (size_t j = 0; j < h; ++j) dw1_(u, j) += opts_.l2 * w1_(u, j);
    }
    for (size_t j = 0; j < h; ++j) dw2_(j, 0) += opts_.l2 * w2_(j, 0);
  }
  std::vector<Matrix*> params = {&w1_, &b1_, &w2_, &b2_};
  std::vector<const Matrix*> grads = {&dw1_, &db1_, &dw2_, &db2_};
  adam_.Step(params, grads);
}

void MlpProbeMeasure::ProcessBlock(const Matrix& units,
                                   std::span<const float> hyp) {
  DB_DCHECK(units.cols() == num_units_ && units.rows() == hyp.size());
  std::vector<size_t> train_rows;
  train_rows.reserve(units.rows());
  for (size_t r = 0; r < units.rows(); ++r) {
    ++rows_seen_;
    // Every 5th row is held out — the streaming stand-in for k-fold CV
    // used by all the probe measures.
    if (rows_seen_ % 5 == 0) {
      if (val_x_.size() < opts_.val_cap) {
        val_x_.emplace_back(units.row_data(r),
                            units.row_data(r) + num_units_);
        val_y_.push_back(hyp[r] > 0.5f ? 1.0f : 0.0f);
      }
      continue;
    }
    train_rows.push_back(r);
    if (train_rows.size() == opts_.minibatch) {
      TrainMinibatch(units, hyp, train_rows);
      train_rows.clear();
    }
  }
  if (!train_rows.empty()) TrainMinibatch(units, hyp, train_rows);
  f1_history_.push_back(ValF1());
}

double MlpProbeMeasure::ValF1() const {
  if (val_x_.empty()) return 0.0;
  std::vector<float> a(opts_.hidden);
  size_t tp = 0, fp = 0, fn = 0;
  for (size_t i = 0; i < val_x_.size(); ++i) {
    const bool pred = PredictProb(val_x_[i].data(), a.data()) > 0.5f;
    const bool truth = val_y_[i] > 0.5f;
    tp += pred && truth;
    fp += pred && !truth;
    fn += !pred && truth;
  }
  if (tp == 0) return 0.0;
  const double precision = static_cast<double>(tp) / (tp + fp);
  const double recall = static_cast<double>(tp) / (tp + fn);
  return 2 * precision * recall / (precision + recall);
}

MeasureScores MlpProbeMeasure::Scores() const {
  MeasureScores out;
  out.group_score =
      f1_history_.empty() ? 0.0f : static_cast<float>(f1_history_.back());
  // Per-unit relevance: ||w1[u, :] ⊙ w2||_2 — each input's first-layer row
  // scaled by the magnitude of the downstream path.
  out.unit_scores.resize(num_units_);
  for (size_t u = 0; u < num_units_; ++u) {
    double acc = 0;
    for (size_t j = 0; j < opts_.hidden; ++j) {
      const double v = static_cast<double>(w1_(u, j)) * w2_(j, 0);
      acc += v * v;
    }
    out.unit_scores[u] = static_cast<float>(std::sqrt(acc));
  }
  return out;
}

double MlpProbeMeasure::ErrorEstimate() const {
  const size_t window = opts_.history_window;
  if (f1_history_.size() < window + 1) {
    return std::numeric_limits<double>::infinity();
  }
  double mean = 0;
  for (size_t i = f1_history_.size() - window - 1;
       i < f1_history_.size() - 1; ++i) {
    mean += f1_history_[i];
  }
  mean /= static_cast<double>(window);
  return std::fabs(f1_history_.back() - mean);
}

}  // namespace deepbase
