#include "measures/logreg.h"

#include <algorithm>
#include <cmath>

#include "measures/metrics.h"
#include "measures/probe_kernel.h"
#include "util/logging.h"

namespace deepbase {

namespace {
inline float SigmoidScalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// Convergence error from a score history: |current − mean of the previous
// `window` checkpoints| (paper §5.2.2).
double HistoryError(const std::vector<double>& history, size_t window) {
  if (history.size() < window + 1) {
    return std::numeric_limits<double>::infinity();
  }
  const double cur = history.back();
  double mean = 0;
  for (size_t i = history.size() - 1 - window; i < history.size() - 1; ++i) {
    mean += history[i];
  }
  mean /= static_cast<double>(window);
  return std::fabs(cur - mean);
}

// L1/L2 penalty gradient on the unit rows of `w` (the bias row is not
// regularized).
void AddPenalty(const LogRegOptions& opts, size_t num_units, const Matrix& w,
                Matrix* g) {
  if (!(opts.l1 > 0 || opts.l2 > 0)) return;
  for (size_t u = 0; u < num_units; ++u) {
    const float* wu = w.row_data(u);
    float* gu = g->row_data(u);
    for (size_t j = 0; j < w.cols(); ++j) {
      const float wv = wu[j];
      gu[j] += opts.l2 * wv +
               opts.l1 * (wv > 0 ? 1.0f : (wv < 0 ? -1.0f : 0.0f));
    }
  }
}
}  // namespace

// ------------------------------------------------------ MergedLogReg

MergedLogRegMeasure::MergedLogRegMeasure(size_t num_units, size_t num_hyps,
                                         LogRegOptions opts)
    : num_units_(num_units),
      num_hyps_(num_hyps),
      opts_(opts),
      w_(num_units + 1, num_hyps),
      grad_(num_units + 1, num_hyps),
      adam_(opts.lr),
      val_y_(num_hyps),
      f1_history_(num_hyps) {}

void MergedLogRegMeasure::ProcessBlock(const Matrix& units,
                                       const Matrix& hyps) {
  DB_DCHECK(units.cols() == num_units_ && hyps.cols() == num_hyps_);
  DB_DCHECK(units.rows() == hyps.rows());
  std::vector<Matrix*> params = {&w_};
  std::vector<const Matrix*> grads = {&grad_};
  const float* bias = w_.row_data(num_units_);
  std::vector<float> z(num_hyps_);

  grad_.Fill(0);
  size_t in_batch = 0;
  for (size_t r = 0; r < units.rows(); ++r, ++rows_seen_) {
    const float* x = units.row_data(r);
    const float* y = hyps.row_data(r);
    if (rows_seen_ % 5 == 4) {
      // Held-out validation row.
      if (val_x_.size() < opts_.val_cap) {
        val_x_.emplace_back(x, x + num_units_);
        for (size_t h = 0; h < num_hyps_; ++h) {
          val_y_[h].push_back(y[h] >= 0.5f ? 1.0f : 0.0f);
        }
      }
      continue;
    }
    // Forward all heads, z = x·W + bias row; then z becomes each head's
    // d = p − y, and dL/dW += x_aug · d.
    probe::Forward(w_, num_units_, bias, x, z.data());
    for (size_t h = 0; h < num_hyps_; ++h) {
      z[h] = SigmoidScalar(z[h]) - (y[h] >= 0.5f ? 1.0f : 0.0f);
    }
    probe::AddGradient(z.data(), x, num_units_, &grad_,
                       grad_.row_data(num_units_));
    if (++in_batch == opts_.minibatch) {
      const float inv = 1.0f / static_cast<float>(in_batch);
      grad_ *= inv;
      AddPenalty(opts_, num_units_, w_, &grad_);
      adam_.Step(params, grads);
      grad_.Fill(0);
      in_batch = 0;
    }
  }
  if (in_batch > 0) {
    grad_ *= 1.0f / static_cast<float>(in_batch);
    adam_.Step(params, grads);
  }
  // Validation checkpoint: one pass over the held-out rows for all heads.
  std::vector<BinaryConfusion> conf(num_hyps_);
  for (size_t i = 0; i < val_x_.size(); ++i) {
    probe::Forward(w_, num_units_, bias, val_x_[i].data(), z.data());
    for (size_t h = 0; h < num_hyps_; ++h) {
      conf[h].Add(z[h] > 0, val_y_[h][i] >= 0.5f);
    }
  }
  for (size_t h = 0; h < num_hyps_; ++h) {
    f1_history_[h].push_back(conf[h].F1());
  }
}

MeasureScores MergedLogRegMeasure::ScoresFor(size_t h) const {
  MeasureScores out;
  out.unit_scores.resize(num_units_);
  for (size_t u = 0; u < num_units_; ++u) out.unit_scores[u] = w_(u, h);
  out.group_score = f1_history_[h].empty()
                        ? 0.0f
                        : static_cast<float>(f1_history_[h].back());
  return out;
}

double MergedLogRegMeasure::ErrorEstimate(size_t h) const {
  return HistoryError(f1_history_[h], opts_.history_window);
}

void BinaryLogRegMeasure::ProcessBlock(const Matrix& units,
                                       std::span<const float> hyp) {
  Matrix hyps(hyp.size(), 1);
  for (size_t r = 0; r < hyp.size(); ++r) hyps(r, 0) = hyp[r];
  core_.ProcessBlock(units, hyps);
}

// --------------------------------------------------- MulticlassLogReg

MulticlassLogRegMeasure::MulticlassLogRegMeasure(size_t num_units,
                                                 int num_classes,
                                                 LogRegOptions opts)
    : num_units_(num_units),
      num_classes_(num_classes),
      opts_(opts),
      w_(num_units + 1, num_classes),
      grad_(num_units + 1, num_classes),
      adam_(opts.lr),
      confusion_(num_classes) {
  DB_DCHECK(num_classes >= 2);
}

void MulticlassLogRegMeasure::ProcessBlock(const Matrix& units,
                                           std::span<const float> hyp) {
  DB_DCHECK(units.cols() == num_units_ && units.rows() == hyp.size());
  std::vector<Matrix*> params = {&w_};
  std::vector<const Matrix*> grads = {&grad_};
  const float* bias = w_.row_data(num_units_);
  grad_.Fill(0);
  size_t in_batch = 0;
  std::vector<float> z(num_classes_);
  for (size_t r = 0; r < units.rows(); ++r, ++rows_seen_) {
    const float* x = units.row_data(r);
    const int label = std::clamp(static_cast<int>(hyp[r] + 0.5f), 0,
                                 num_classes_ - 1);
    if (rows_seen_ % 5 == 4) {
      if (val_x_.size() < opts_.val_cap) {
        val_x_.emplace_back(x, x + num_units_);
        val_y_.push_back(label);
      }
      continue;
    }
    // Softmax forward; then z becomes each class's d = p − one-hot.
    probe::Forward(w_, num_units_, bias, x, z.data());
    float mx = -1e30f;
    for (int c = 0; c < num_classes_; ++c) mx = std::max(mx, z[c]);
    float total = 0;
    for (int c = 0; c < num_classes_; ++c) {
      z[c] = std::exp(z[c] - mx);
      total += z[c];
    }
    for (int c = 0; c < num_classes_; ++c) {
      z[c] = z[c] / total - (c == label ? 1.0f : 0.0f);
    }
    probe::AddGradient(z.data(), x, num_units_, &grad_,
                       grad_.row_data(num_units_));
    if (++in_batch == opts_.minibatch) {
      grad_ *= 1.0f / static_cast<float>(in_batch);
      AddPenalty(opts_, num_units_, w_, &grad_);
      adam_.Step(params, grads);
      grad_.Fill(0);
      in_batch = 0;
    }
  }
  if (in_batch > 0) {
    grad_ *= 1.0f / static_cast<float>(in_batch);
    adam_.Step(params, grads);
  }
  // Validation checkpoint. Scores and the per-class readouts answer from
  // this confusion until the next block.
  confusion_ = MulticlassConfusion(num_classes_);
  for (size_t i = 0; i < val_x_.size(); ++i) {
    probe::Forward(w_, num_units_, bias, val_x_[i].data(), z.data());
    int best = 0;
    float best_z = -1e30f;
    for (int c = 0; c < num_classes_; ++c) {
      if (z[c] > best_z) {
        best_z = z[c];
        best = c;
      }
    }
    confusion_.Add(static_cast<size_t>(best), static_cast<size_t>(val_y_[i]));
  }
  acc_history_.push_back(confusion_.Accuracy());
}

MeasureScores MulticlassLogRegMeasure::Scores() const {
  MeasureScores out;
  out.unit_scores.resize(num_units_);
  for (size_t u = 0; u < num_units_; ++u) {
    double norm = 0;
    for (int c = 0; c < num_classes_; ++c) {
      norm += static_cast<double>(w_(u, c)) * w_(u, c);
    }
    out.unit_scores[u] = static_cast<float>(std::sqrt(norm));
  }
  out.group_score = static_cast<float>(confusion_.Accuracy());
  return out;
}

double MulticlassLogRegMeasure::ErrorEstimate() const {
  return HistoryError(acc_history_, opts_.history_window);
}

double MulticlassLogRegMeasure::ClassPrecision(int c) const {
  return confusion_.Precision(static_cast<size_t>(c));
}

double MulticlassLogRegMeasure::ClassF1(int c) const {
  return confusion_.F1(static_cast<size_t>(c));
}

size_t MulticlassLogRegMeasure::ClassSupport(int c) const {
  return confusion_.Support(static_cast<size_t>(c));
}

}  // namespace deepbase
