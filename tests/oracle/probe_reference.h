// The SGD probes in their heads-outside-units form, for bitwise
// differential tests: each head's (class's, hidden unit's) dot product and
// gradient walk the units one strided weight at a time, and every
// validation checkpoint re-scans the held-out rows per head. The bodies
// are the library's MergedLogRegMeasure, MulticlassLogRegMeasure and
// MlpProbeMeasure before their outputs moved onto vector lanes, kept as
// they were: same statements, same order, same Adam and confusion
// counts. The vector form must reproduce them bit for bit within one
// build.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "measures/logreg.h"
#include "measures/metrics.h"
#include "measures/mlp_probe.h"
#include "nn/adam.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace deepbase::oracle {

inline float SigmoidScalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }

inline double HistoryError(const std::vector<double>& history,
                           size_t window) {
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

/// \brief One sigmoid head per hypothesis over a shared input.
class MergedLogReg {
 public:
  MergedLogReg(size_t num_units, size_t num_hyps, LogRegOptions opts)
      : num_units_(num_units),
        num_hyps_(num_hyps),
        opts_(opts),
        w_(num_units + 1, num_hyps),
        grad_(num_units + 1, num_hyps),
        adam_(opts.lr),
        val_y_(num_hyps),
        f1_history_(num_hyps) {}

  void ProcessBlock(const Matrix& units, const Matrix& hyps) {
    std::vector<Matrix*> params = {&w_};
    std::vector<const Matrix*> grads = {&grad_};

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
      // Forward all heads: z = x·W + bias row.
      for (size_t h = 0; h < num_hyps_; ++h) {
        float z = w_(num_units_, h);
        for (size_t u = 0; u < num_units_; ++u) z += x[u] * w_(u, h);
        const float p = SigmoidScalar(z);
        const float d = p - (y[h] >= 0.5f ? 1.0f : 0.0f);
        // dL/dw[:,h] += d * x_aug.
        for (size_t u = 0; u < num_units_; ++u) grad_(u, h) += d * x[u];
        grad_(num_units_, h) += d;
      }
      if (++in_batch == opts_.minibatch) {
        const float inv = 1.0f / static_cast<float>(in_batch);
        grad_ *= inv;
        // Regularization (bias row excluded).
        if (opts_.l1 > 0 || opts_.l2 > 0) {
          for (size_t u = 0; u < num_units_; ++u) {
            for (size_t h = 0; h < num_hyps_; ++h) {
              const float wv = w_(u, h);
              grad_(u, h) +=
                  opts_.l2 * wv +
                  opts_.l1 * (wv > 0 ? 1.0f : (wv < 0 ? -1.0f : 0.0f));
            }
          }
        }
        adam_.Step(params, grads);
        grad_.Fill(0);
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      grad_ *= 1.0f / static_cast<float>(in_batch);
      adam_.Step(params, grads);
    }
    // Validation checkpoint per head.
    for (size_t h = 0; h < num_hyps_; ++h) {
      f1_history_[h].push_back(ValF1(h));
    }
  }

  double ValF1(size_t h) const {
    if (val_x_.empty()) return 0.0;
    BinaryConfusion conf;
    for (size_t i = 0; i < val_x_.size(); ++i) {
      const float* x = val_x_[i].data();
      float z = w_(num_units_, h);
      for (size_t u = 0; u < num_units_; ++u) z += x[u] * w_(u, h);
      conf.Add(z > 0, val_y_[h][i] >= 0.5f);
    }
    return conf.F1();
  }

  MeasureScores ScoresFor(size_t h) const {
    MeasureScores out;
    out.unit_scores.resize(num_units_);
    for (size_t u = 0; u < num_units_; ++u) out.unit_scores[u] = w_(u, h);
    out.group_score = f1_history_[h].empty()
                          ? static_cast<float>(ValF1(h))
                          : static_cast<float>(f1_history_[h].back());
    return out;
  }

  double ErrorEstimate(size_t h) const {
    return HistoryError(f1_history_[h], opts_.history_window);
  }

 private:
  size_t num_units_, num_hyps_;
  LogRegOptions opts_;
  Matrix w_;     // (num_units+1) × num_hyps, last row = bias
  Matrix grad_;  // same shape
  Adam adam_;
  std::vector<std::vector<float>> val_x_;
  std::vector<std::vector<float>> val_y_;
  std::vector<std::vector<double>> f1_history_;  // per head
  size_t rows_seen_ = 0;
};

/// \brief Multi-class softmax probe; classes outside units.
class MulticlassLogReg {
 public:
  MulticlassLogReg(size_t num_units, int num_classes, LogRegOptions opts)
      : num_units_(num_units),
        num_classes_(num_classes),
        opts_(opts),
        w_(num_units + 1, num_classes),
        grad_(num_units + 1, num_classes),
        adam_(opts.lr) {}

  void ProcessBlock(const Matrix& units, std::span<const float> hyp) {
    std::vector<Matrix*> params = {&w_};
    std::vector<const Matrix*> grads = {&grad_};
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
      // Softmax forward.
      float mx = -1e30f;
      for (int c = 0; c < num_classes_; ++c) {
        float zz = w_(num_units_, c);
        for (size_t u = 0; u < num_units_; ++u) zz += x[u] * w_(u, c);
        z[c] = zz;
        mx = std::max(mx, zz);
      }
      float total = 0;
      for (int c = 0; c < num_classes_; ++c) {
        z[c] = std::exp(z[c] - mx);
        total += z[c];
      }
      for (int c = 0; c < num_classes_; ++c) {
        const float d = z[c] / total - (c == label ? 1.0f : 0.0f);
        for (size_t u = 0; u < num_units_; ++u) grad_(u, c) += d * x[u];
        grad_(num_units_, c) += d;
      }
      if (++in_batch == opts_.minibatch) {
        grad_ *= 1.0f / static_cast<float>(in_batch);
        if (opts_.l1 > 0 || opts_.l2 > 0) {
          for (size_t u = 0; u < num_units_; ++u) {
            for (int c = 0; c < num_classes_; ++c) {
              const float wv = w_(u, c);
              grad_(u, c) +=
                  opts_.l2 * wv +
                  opts_.l1 * (wv > 0 ? 1.0f : (wv < 0 ? -1.0f : 0.0f));
            }
          }
        }
        adam_.Step(params, grads);
        grad_.Fill(0);
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      grad_ *= 1.0f / static_cast<float>(in_batch);
      adam_.Step(params, grads);
    }
    acc_history_.push_back(Evaluate().Accuracy());
  }

  MulticlassConfusion Evaluate() const {
    MulticlassConfusion confusion(num_classes_);
    for (size_t i = 0; i < val_x_.size(); ++i) {
      const float* x = val_x_[i].data();
      int best = 0;
      float best_z = -1e30f;
      for (int c = 0; c < num_classes_; ++c) {
        float zz = w_(num_units_, c);
        for (size_t u = 0; u < num_units_; ++u) zz += x[u] * w_(u, c);
        if (zz > best_z) {
          best_z = zz;
          best = c;
        }
      }
      confusion.Add(static_cast<size_t>(best),
                    static_cast<size_t>(val_y_[i]));
    }
    return confusion;
  }

  MeasureScores Scores() const {
    MeasureScores out;
    out.unit_scores.resize(num_units_);
    for (size_t u = 0; u < num_units_; ++u) {
      double norm = 0;
      for (int c = 0; c < num_classes_; ++c) {
        norm += static_cast<double>(w_(u, c)) * w_(u, c);
      }
      out.unit_scores[u] = static_cast<float>(std::sqrt(norm));
    }
    out.group_score = static_cast<float>(Evaluate().Accuracy());
    return out;
  }

  double ErrorEstimate() const {
    return HistoryError(acc_history_, opts_.history_window);
  }

  double ClassPrecision(int c) const {
    return Evaluate().Precision(static_cast<size_t>(c));
  }
  double ClassF1(int c) const { return Evaluate().F1(static_cast<size_t>(c)); }
  size_t ClassSupport(int c) const {
    return Evaluate().Support(static_cast<size_t>(c));
  }

 private:
  size_t num_units_;
  int num_classes_;
  LogRegOptions opts_;
  Matrix w_, grad_;  // (num_units+1) × num_classes
  Adam adam_;
  std::vector<std::vector<float>> val_x_;
  std::vector<int> val_y_;
  std::vector<double> acc_history_;
  size_t rows_seen_ = 0;
};

/// \brief One-hidden-layer tanh probe; hidden units outside inputs.
class MlpProbe {
 public:
  MlpProbe(size_t num_units, MlpProbeOptions opts)
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

  void ProcessBlock(const Matrix& units, std::span<const float> hyp) {
    std::vector<size_t> train_rows;
    train_rows.reserve(units.rows());
    for (size_t r = 0; r < units.rows(); ++r) {
      ++rows_seen_;
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

  MeasureScores Scores() const {
    MeasureScores out;
    out.group_score = static_cast<float>(ValF1());
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

  double ErrorEstimate() const {
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

 private:
  float PredictProb(const float* x) const {
    const size_t h = opts_.hidden;
    float z = b2_(0, 0);
    for (size_t j = 0; j < h; ++j) {
      float a = b1_(0, j);
      for (size_t u = 0; u < num_units_; ++u) a += x[u] * w1_(u, j);
      z += std::tanh(a) * w2_(j, 0);
    }
    return 1.0f / (1.0f + std::exp(-z));
  }

  void TrainMinibatch(const Matrix& x, std::span<const float> y,
                      const std::vector<size_t>& rows) {
    const size_t h = opts_.hidden;
    dw1_.Fill(0);
    db1_.Fill(0);
    dw2_.Fill(0);
    db2_.Fill(0);
    const float inv_n = 1.0f / static_cast<float>(rows.size());
    std::vector<float> hidden_act(h);
    for (size_t r : rows) {
      const float* xr = x.row_data(r);
      // Forward.
      float z = b2_(0, 0);
      for (size_t j = 0; j < h; ++j) {
        float a = b1_(0, j);
        for (size_t u = 0; u < num_units_; ++u) a += xr[u] * w1_(u, j);
        hidden_act[j] = std::tanh(a);
        z += hidden_act[j] * w2_(j, 0);
      }
      const float p = 1.0f / (1.0f + std::exp(-z));
      const float label = y[r] > 0.5f ? 1.0f : 0.0f;
      const float dz = (p - label) * inv_n;  // dBCE/dz
      // Backward.
      db2_(0, 0) += dz;
      for (size_t j = 0; j < h; ++j) {
        dw2_(j, 0) += dz * hidden_act[j];
        const float da =
            dz * w2_(j, 0) * (1.0f - hidden_act[j] * hidden_act[j]);
        db1_(0, j) += da;
        for (size_t u = 0; u < num_units_; ++u) {
          dw1_(u, j) += da * xr[u];
        }
      }
    }
    // L2 regularization on the weights (not the biases).
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

  double ValF1() const {
    if (val_x_.empty()) return 0.0;
    size_t tp = 0, fp = 0, fn = 0;
    for (size_t i = 0; i < val_x_.size(); ++i) {
      const bool pred = PredictProb(val_x_[i].data()) > 0.5f;
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

  size_t num_units_;
  MlpProbeOptions opts_;
  Matrix w1_, b1_;  // num_units × hidden, 1 × hidden
  Matrix w2_, b2_;  // hidden × 1, 1 × 1
  Matrix dw1_, db1_, dw2_, db2_;
  Adam adam_;
  std::vector<std::vector<float>> val_x_;
  std::vector<float> val_y_;
  std::vector<double> f1_history_;
  size_t rows_seen_ = 0;
};

}  // namespace deepbase::oracle
