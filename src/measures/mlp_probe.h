// Nonlinear MLP probe (paper §4.3: "DeepBase also supports arbitrary Keras
// and ScikitLearn models" as joint measures). A one-hidden-layer network
// with tanh units predicts the binary hypothesis behavior from the unit
// group's behaviors. The group score is the streaming validation F1; the
// per-unit scores are input-saliency norms (L2 norm of each input's
// first-layer weight row scaled by downstream weights), the standard
// relevance readout for nonlinear probes.
//
// The probe captures hypotheses that are encoded *nonlinearly* across a
// unit group — e.g. an XOR of two detector units, which linear probes
// cannot score above chance (tested).

#pragma once

#include <memory>
#include <vector>

#include "measures/measure.h"
#include "nn/adam.h"

namespace deepbase {

/// \brief Hyper-parameters for the MLP probe.
struct MlpProbeOptions {
  size_t hidden = 16;
  float lr = 0.02f;
  float l2 = 1e-4f;
  size_t minibatch = 32;
  /// Every 5th row is held out for validation, capped at this many rows.
  size_t val_cap = 2048;
  /// Convergence window, as for the logreg probe.
  size_t history_window = 4;
  uint64_t seed = 31;
};

/// \brief Streaming one-hidden-layer probe for one hypothesis.
class MlpProbeMeasure : public Measure {
 public:
  MlpProbeMeasure(size_t num_units, MlpProbeOptions opts);

  void ProcessBlock(const Matrix& units, std::span<const float> hyp) override;
  MeasureScores Scores() const override;
  double ErrorEstimate() const override;

 private:
  /// \brief P(positive | x); `a` is scratch for the hidden layer.
  float PredictProb(const float* x, float* a) const;
  void TrainMinibatch(const Matrix& x, std::span<const float> y,
                      const std::vector<size_t>& rows);
  double ValF1() const;

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

/// \brief Factory: MlpProbeScore() in a `scores` list.
class MlpProbeScore : public MeasureFactory {
 public:
  explicit MlpProbeScore(MlpProbeOptions opts = {})
      : MeasureFactory("mlp_probe"), opts_(opts) {}

  bool is_joint() const override { return true; }
  std::unique_ptr<Measure> Create(size_t num_units,
                                  int /*num_classes*/) const override {
    return std::make_unique<MlpProbeMeasure>(num_units, opts_);
  }

 private:
  MlpProbeOptions opts_;
};

}  // namespace deepbase
