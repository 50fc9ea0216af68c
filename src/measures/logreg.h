// Joint affinity measures based on logistic regression (paper §4.3):
// predict the hypothesis behavior from the group's unit behaviors with an
// SGD/Adam-trained linear model. The group score is the validation F1 (the
// streaming counterpart of the paper's 5-fold CV F1) and per-unit scores
// are the model coefficients. Supports L1/L2 regularization, model merging
// (§5.2.1: all hypothesis heads trained in one composite model), and the
// validation-window convergence criterion of §5.2.2.

#pragma once

#include <memory>
#include <vector>

#include "measures/measure.h"
#include "measures/metrics.h"
#include "nn/adam.h"

namespace deepbase {

/// \brief Hyper-parameters for the linear probes.
struct LogRegOptions {
  float lr = 0.05f;
  float l1 = 0.0f;
  float l2 = 0.0f;
  size_t minibatch = 32;
  /// Every 5th row is held out for validation (streaming stand-in for the
  /// paper's 5-fold cross validation), capped at this many rows.
  size_t val_cap = 2048;
  /// Convergence window: error = |current F1 − mean of the last N F1
  /// checkpoints| (paper: window covering ~2048 tuples).
  size_t history_window = 4;
};

/// \brief Composite logistic-regression model with one sigmoid head per
/// hypothesis over a shared input (model merging). Heads share no
/// parameters, so the merged optimum equals per-hypothesis training.
class MergedLogRegMeasure : public MergedMeasure {
 public:
  MergedLogRegMeasure(size_t num_units, size_t num_hyps, LogRegOptions opts);

  void ProcessBlock(const Matrix& units, const Matrix& hyps) override;
  MeasureScores ScoresFor(size_t hyp_index) const override;
  double ErrorEstimate(size_t hyp_index) const override;

  size_t num_hyps() const { return num_hyps_; }

 private:
  size_t num_units_, num_hyps_;
  LogRegOptions opts_;
  Matrix w_;     // (num_units+1) × num_hyps, last row = bias
  Matrix grad_;  // same shape
  Adam adam_;
  // Held-out validation rows (features without bias) and labels per head.
  std::vector<std::vector<float>> val_x_;
  std::vector<std::vector<float>> val_y_;
  std::vector<std::vector<double>> f1_history_;  // per head
  size_t rows_seen_ = 0;
};

/// \brief Single-hypothesis adapter over the merged core (what PyBase runs
/// when model merging is disabled: one model per hypothesis).
class BinaryLogRegMeasure : public Measure {
 public:
  BinaryLogRegMeasure(size_t num_units, LogRegOptions opts)
      : core_(num_units, 1, opts) {}

  void ProcessBlock(const Matrix& units, std::span<const float> hyp) override;
  MeasureScores Scores() const override { return core_.ScoresFor(0); }
  double ErrorEstimate() const override { return core_.ErrorEstimate(0); }

 private:
  MergedLogRegMeasure core_;
};

/// \brief Multi-class softmax probe (the Belinkov et al. POS-tag analysis,
/// §6.3.1): predicts the hypothesis class id from unit behaviors. Group
/// score is validation accuracy; per-unit scores are the L2 norms of each
/// unit's coefficient rows. Per-class precision is exposed for Figure 11.
class MulticlassLogRegMeasure : public Measure {
 public:
  MulticlassLogRegMeasure(size_t num_units, int num_classes,
                          LogRegOptions opts);

  void ProcessBlock(const Matrix& units, std::span<const float> hyp) override;
  MeasureScores Scores() const override;
  double ErrorEstimate() const override;

  /// \brief Validation precision of class c.
  double ClassPrecision(int c) const;
  /// \brief Validation F1 of class c.
  double ClassF1(int c) const;
  /// \brief Validation support (sample count) of class c.
  size_t ClassSupport(int c) const;

 private:
  size_t num_units_;
  int num_classes_;
  LogRegOptions opts_;
  Matrix w_, grad_;  // (num_units+1) × num_classes
  Adam adam_;
  std::vector<std::vector<float>> val_x_;
  std::vector<int> val_y_;
  // The held-out rows' confusion at the last validation checkpoint.
  MulticlassConfusion confusion_;
  std::vector<double> acc_history_;
  size_t rows_seen_ = 0;
};

}  // namespace deepbase
