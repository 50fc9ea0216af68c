// Multivariate mutual information (paper §4.3: "DeepBase also supports ...
// a multivariate implementation of mutual information"): a joint measure
// between the discretized joint state of a unit group and the hypothesis
// class. Each unit is binarized at the median of the first non-empty
// block (order_stats::Select and MaxBelow); the group's binary pattern
// forms the joint state. Groups wider than `max_joint_units` are evenly
// subsampled (the documented approximation — exact multivariate MI over
// hundreds of units is both intractable and hopelessly sparse).

#pragma once

#include <vector>

#include "measures/measure.h"

namespace deepbase {

/// \brief Streaming multivariate MI (bits). Group score = MI(joint-state;
/// hypothesis); unit scores = per-unit marginal MI with the hypothesis.
class MultivariateMiMeasure : public Measure {
 public:
  MultivariateMiMeasure(size_t num_units, int num_classes,
                        size_t max_joint_units = 8);

  void ProcessBlock(const Matrix& units, std::span<const float> hyp) override;
  MeasureScores Scores() const override;
  double ErrorEstimate() const override;

  /// Joint/marginal counts are integers and the binarization thresholds are
  /// cloned with the state, so sharded partials merge exactly.
  MergeExactness merge_exactness() const override {
    return MergeExactness::kExact;
  }
  std::unique_ptr<Measure> CloneState() const override;
  /// The medians read only the units.
  bool calibration_reads_units_only() const override { return true; }
  void MergeFrom(const Measure& other) override;
  bool SerializeState(codec::Writer* w) const override;
  bool DeserializeState(codec::Reader* r) override;

 private:
  int HypClass(float v) const;

  size_t num_units_;
  int num_classes_;
  std::vector<size_t> joint_units_;  // subsampled unit indices
  bool thresholds_ready_ = false;
  std::vector<float> medians_;            // per unit
  std::vector<size_t> joint_counts_;      // 2^|joint| × classes
  std::vector<size_t> marginal_counts_;   // num_units × 2 × classes
  std::vector<size_t> class_counts_;      // classes
  size_t n_ = 0;
};

/// \brief Factory: MultivariateMiScore() in a `scores` list.
class MultivariateMiScore : public MeasureFactory {
 public:
  explicit MultivariateMiScore(size_t max_joint_units = 8)
      : MeasureFactory("multivariate_mi"),
        max_joint_units_(max_joint_units) {}
  bool is_joint() const override { return true; }
  std::unique_ptr<Measure> Create(size_t num_units,
                                  int num_classes) const override {
    return std::make_unique<MultivariateMiMeasure>(
        num_units, num_classes >= 2 ? num_classes : 2, max_joint_units_);
  }

 private:
  size_t max_joint_units_;
};

}  // namespace deepbase
