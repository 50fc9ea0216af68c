#include "measures/multivariate_mi.h"

#include <algorithm>
#include <cmath>

#include "measures/order_stats.h"
#include "util/logging.h"

namespace deepbase {

MultivariateMiMeasure::MultivariateMiMeasure(size_t num_units,
                                             int num_classes,
                                             size_t max_joint_units)
    : num_units_(num_units), num_classes_(std::max(num_classes, 2)) {
  const size_t joint = std::min(num_units, max_joint_units);
  // Evenly spaced subsample so every layer region is represented.
  for (size_t j = 0; j < joint; ++j) {
    joint_units_.push_back(j * num_units / joint);
  }
  joint_counts_.assign((size_t{1} << joint_units_.size()) * num_classes_, 0);
  marginal_counts_.assign(num_units_ * 2 * num_classes_, 0);
  class_counts_.assign(num_classes_, 0);
}

int MultivariateMiMeasure::HypClass(float v) const {
  return std::clamp(static_cast<int>(v + 0.5f), 0, num_classes_ - 1);
}

std::unique_ptr<Measure> MultivariateMiMeasure::CloneState() const {
  auto clone = std::make_unique<MultivariateMiMeasure>(
      num_units_, num_classes_, joint_units_.size());
  DB_DCHECK(clone->joint_units_ == joint_units_);
  // Replicas inherit the calibrated medians so shard counts are compatible.
  clone->medians_ = medians_;
  clone->thresholds_ready_ = thresholds_ready_;
  return clone;
}

void MultivariateMiMeasure::MergeFrom(const Measure& other) {
  const auto& o = measure_internal::MergePeer<MultivariateMiMeasure>(other);
  DB_DCHECK(o.num_units_ == num_units_ && o.num_classes_ == num_classes_ &&
            o.joint_units_ == joint_units_);
  for (size_t i = 0; i < joint_counts_.size(); ++i) {
    joint_counts_[i] += o.joint_counts_[i];
  }
  for (size_t i = 0; i < marginal_counts_.size(); ++i) {
    marginal_counts_[i] += o.marginal_counts_[i];
  }
  for (size_t i = 0; i < class_counts_.size(); ++i) {
    class_counts_[i] += o.class_counts_[i];
  }
  n_ += o.n_;
}

bool MultivariateMiMeasure::SerializeState(codec::Writer* w) const {
  using measure_internal::StateKind;
  using measure_internal::WriteVec;
  w->U8(static_cast<uint8_t>(StateKind::kMultivariateMi));
  w->U32(static_cast<uint32_t>(num_units_));
  w->U32(static_cast<uint32_t>(num_classes_));
  // The joint-unit subsample doubles as the configuration guard: it is a
  // pure function of (num_units, max_joint_units), so equality means both
  // sides were built with the same factory parameters.
  WriteVec(w, joint_units_);
  w->U8(thresholds_ready_ ? 1 : 0);
  WriteVec(w, medians_);
  WriteVec(w, joint_counts_);
  WriteVec(w, marginal_counts_);
  WriteVec(w, class_counts_);
  w->U64(n_);
  return true;
}

bool MultivariateMiMeasure::DeserializeState(codec::Reader* r) {
  using measure_internal::ReadVec;
  using measure_internal::StateKind;
  if (r->U8() != static_cast<uint8_t>(StateKind::kMultivariateMi)) {
    return false;
  }
  if (r->U32() != num_units_) return false;
  if (r->U32() != static_cast<uint32_t>(num_classes_)) return false;
  std::vector<size_t> joint_units;
  if (!ReadVec(r, joint_units_.size(), &joint_units) ||
      joint_units != joint_units_) {
    return false;
  }
  thresholds_ready_ = r->U8() != 0;
  if (!ReadVec(r, thresholds_ready_ ? num_units_ : 0, &medians_)) {
    return false;
  }
  if (!ReadVec(r, (size_t{1} << joint_units_.size()) * num_classes_,
               &joint_counts_)) {
    return false;
  }
  if (!ReadVec(r, num_units_ * 2 * num_classes_, &marginal_counts_)) {
    return false;
  }
  if (!ReadVec(r, static_cast<size_t>(num_classes_), &class_counts_)) {
    return false;
  }
  n_ = r->U64();
  return r->ok();
}

void MultivariateMiMeasure::ProcessBlock(const Matrix& units,
                                         std::span<const float> hyp) {
  DB_DCHECK(units.cols() == num_units_ && units.rows() == hyp.size());
  // An empty block counts nothing and leaves the calibration pending.
  if (units.rows() == 0) return;
  if (!thresholds_ready_) {
    // Threshold at the midpoint between the median and the largest value
    // strictly below it: with discrete behaviors (e.g. units emitting only
    // ±1) thresholding exactly at the median would put every sample on one
    // side of the strict `>` split.
    const size_t mid = units.rows() / 2;
    medians_.resize(num_units_);
    order_stats::Select(units, {&mid, 1}, medians_.data());
    std::vector<float> below(num_units_);
    order_stats::MaxBelow(units, medians_.data(), below.data());
    for (size_t u = 0; u < num_units_; ++u) {
      if (std::isfinite(below[u])) {
        medians_[u] = (below[u] + medians_[u]) / 2.0f;
      }
    }
    thresholds_ready_ = true;
  }
  for (size_t r = 0; r < units.rows(); ++r) {
    const int cls = HypClass(hyp[r]);
    ++class_counts_[cls];
    const float* row = units.row_data(r);
    size_t pattern = 0;
    for (size_t j = 0; j < joint_units_.size(); ++j) {
      if (row[joint_units_[j]] > medians_[joint_units_[j]]) {
        pattern |= size_t{1} << j;
      }
    }
    ++joint_counts_[pattern * num_classes_ + cls];
    for (size_t u = 0; u < num_units_; ++u) {
      const size_t bin = row[u] > medians_[u] ? 1 : 0;
      ++marginal_counts_[(u * 2 + bin) * num_classes_ + cls];
    }
  }
  n_ += units.rows();
}

namespace {
// MI in bits from a contingency table `counts[state * classes + cls]`.
double MiFromCounts(const std::vector<size_t>& counts, size_t states,
                    size_t classes, size_t n) {
  if (n == 0) return 0.0;
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> ps(states, 0), pc(classes, 0);
  for (size_t s = 0; s < states; ++s) {
    for (size_t c = 0; c < classes; ++c) {
      const double p = counts[s * classes + c] * inv_n;
      ps[s] += p;
      pc[c] += p;
    }
  }
  double mi = 0;
  for (size_t s = 0; s < states; ++s) {
    for (size_t c = 0; c < classes; ++c) {
      const double p = counts[s * classes + c] * inv_n;
      if (p > 0 && ps[s] > 0 && pc[c] > 0) {
        mi += p * std::log2(p / (ps[s] * pc[c]));
      }
    }
  }
  return std::max(0.0, mi);
}
}  // namespace

MeasureScores MultivariateMiMeasure::Scores() const {
  MeasureScores out;
  out.unit_scores.resize(num_units_, 0.0f);
  if (n_ == 0) return out;
  for (size_t u = 0; u < num_units_; ++u) {
    std::vector<size_t> slice(2 * num_classes_);
    for (size_t b = 0; b < 2; ++b) {
      for (int c = 0; c < num_classes_; ++c) {
        slice[b * num_classes_ + c] =
            marginal_counts_[(u * 2 + b) * num_classes_ + c];
      }
    }
    out.unit_scores[u] =
        static_cast<float>(MiFromCounts(slice, 2, num_classes_, n_));
  }
  out.group_score = static_cast<float>(
      MiFromCounts(joint_counts_, size_t{1} << joint_units_.size(),
                   num_classes_, n_));
  return out;
}

double MultivariateMiMeasure::ErrorEstimate() const {
  if (n_ < 256) return std::numeric_limits<double>::infinity();
  // Miller–Madow bias of the joint estimator.
  size_t nonzero = 0;
  for (size_t c : joint_counts_) nonzero += (c > 0);
  return (static_cast<double>(nonzero) - 1.0) /
         (2.0 * static_cast<double>(n_) * std::log(2.0));
}

}  // namespace deepbase
