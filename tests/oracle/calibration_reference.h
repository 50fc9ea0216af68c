// The calibrating measures as they were before the order-statistics
// kernel, for bitwise differential tests. Each unit column is gathered
// through units(r, u) and then sorted or nth_element'd: Jaccard's
// thresholds, mutual information's unit and numeric-hypothesis bin edges,
// and multivariate MI's medians. MI's bin counts are scattered one row
// and one unit at a time. The calibration loops, the scatter, the counting
// and the score formulas are the library's JaccardMeasure,
// MutualInfoMeasure and MultivariateMiMeasure before the kernel, kept as
// they were (the scatter in its scalar form, which the scalar build ran
// for every unit). The kernel form must reproduce their thresholds, edges
// and medians as floats and their scores bit for bit.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "measures/measure.h"
#include "tensor/matrix.h"

namespace deepbase::oracle {

/// \brief Jaccard: units binarized at the first block's (1 - q) quantile.
class Jaccard {
 public:
  Jaccard(size_t num_units, double top_quantile = 0.2)
      : num_units_(num_units),
        top_quantile_(top_quantile),
        inter_(num_units, 0),
        uni_(num_units, 0) {}

  void ProcessBlock(const Matrix& units, std::span<const float> hyp) {
    if (!thresholds_ready_) {
      // Estimate the (1 - q) activation quantile per unit from this block.
      thresholds_.resize(num_units_);
      std::vector<float> col(units.rows());
      for (size_t u = 0; u < num_units_; ++u) {
        for (size_t r = 0; r < units.rows(); ++r) col[r] = units(r, u);
        size_t k = static_cast<size_t>(
            (1.0 - top_quantile_) * static_cast<double>(col.size() - 1));
        std::nth_element(col.begin(), col.begin() + k, col.end());
        thresholds_[u] = col[k];
      }
      thresholds_ready_ = true;
    }
    const size_t rows = units.rows();
    const float* const th = thresholds_.data();
    size_t n1 = 0;
    for (size_t r = 0; r < rows; ++r) n1 += hyp[r] >= 0.5f ? 1 : 0;
    for (size_t u = 0; u < num_units_; ++u) {
      size_t c1 = 0, c0 = 0;
      for (size_t r = 0; r < rows; ++r) {
        const bool on = units.row_data(r)[u] > th[u];
        if (!on) continue;
        (hyp[r] >= 0.5f ? c1 : c0) += 1;
      }
      inter_[u] += c1;
      uni_[u] += n1 + c0;
    }
  }

  MeasureScores Scores() const {
    MeasureScores out;
    out.unit_scores.resize(num_units_, 0.0f);
    for (size_t u = 0; u < num_units_; ++u) {
      out.unit_scores[u] =
          uni_[u] == 0 ? 0.0f
                       : static_cast<float>(static_cast<double>(inter_[u]) /
                                            static_cast<double>(uni_[u]));
    }
    return out;
  }

  const std::vector<float>& thresholds() const { return thresholds_; }

 private:
  size_t num_units_;
  double top_quantile_;
  bool thresholds_ready_ = false;
  std::vector<float> thresholds_;
  std::vector<size_t> inter_, uni_;
};

/// \brief Mutual information over first-block quantile bins, categorical
/// or numeric (num_classes < 2) hypotheses.
class MutualInfo {
 public:
  MutualInfo(size_t num_units, int num_classes, int num_bins = 4)
      : num_units_(num_units),
        num_classes_(num_classes >= 2 ? num_classes : num_bins),
        num_bins_(num_bins),
        hyp_numeric_(num_classes < 2) {
    counts_.assign(num_units_ * num_bins_ * num_classes_, 0);
  }

  void ProcessBlock(const Matrix& units, std::span<const float> hyp) {
    if (!edges_ready_) {
      // Quantile bin edges per unit from the first block.
      edges_.resize(num_units_ * (num_bins_ - 1));
      std::vector<float> col(units.rows());
      for (size_t u = 0; u < num_units_; ++u) {
        for (size_t r = 0; r < units.rows(); ++r) col[r] = units(r, u);
        std::sort(col.begin(), col.end());
        for (int b = 1; b < num_bins_; ++b) {
          size_t k = b * col.size() / num_bins_;
          edges_[u * (num_bins_ - 1) + b - 1] =
              col[std::min(k, col.size() - 1)];
        }
      }
      if (hyp_numeric_) {
        std::vector<float> hv(hyp.begin(), hyp.end());
        std::sort(hv.begin(), hv.end());
        hyp_edges_.clear();
        for (int b = 1; b < num_bins_; ++b) {
          size_t k = b * hv.size() / num_bins_;
          hyp_edges_.push_back(hv[std::min(k, hv.size() - 1)]);
        }
      }
      edges_ready_ = true;
    }
    const size_t nb = static_cast<size_t>(num_bins_);
    const size_t nc = static_cast<size_t>(num_classes_);
    for (size_t r = 0; r < units.rows(); ++r) {
      const size_t cls = static_cast<size_t>(HypClass(hyp[r]));
      const float* const row = units.row_data(r);
      for (size_t u = 0; u < num_units_; ++u) {
        const float* e = &edges_[u * (nb - 1)];
        size_t bin = 0;
        for (size_t b = 0; b + 1 < nb; ++b) {
          if (row[u] > e[b]) ++bin;
        }
        ++counts_[(u * nb + bin) * nc + cls];
      }
    }
    n_ += units.rows();
  }

  MeasureScores Scores() const {
    MeasureScores out;
    out.unit_scores.resize(num_units_, 0.0f);
    if (n_ == 0) return out;
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (size_t u = 0; u < num_units_; ++u) {
      std::vector<double> pb(num_bins_, 0), pc(num_classes_, 0);
      for (int b = 0; b < num_bins_; ++b) {
        for (int c = 0; c < num_classes_; ++c) {
          const double p =
              counts_[(u * num_bins_ + b) * num_classes_ + c] * inv_n;
          pb[b] += p;
          pc[c] += p;
        }
      }
      double mi = 0;
      for (int b = 0; b < num_bins_; ++b) {
        for (int c = 0; c < num_classes_; ++c) {
          const double p =
              counts_[(u * num_bins_ + b) * num_classes_ + c] * inv_n;
          if (p > 0 && pb[b] > 0 && pc[c] > 0) {
            mi += p * std::log2(p / (pb[b] * pc[c]));
          }
        }
      }
      out.unit_scores[u] = static_cast<float>(std::max(0.0, mi));
    }
    return out;
  }

  const std::vector<float>& edges() const { return edges_; }
  const std::vector<float>& hyp_edges() const { return hyp_edges_; }

 private:
  int HypClass(float v) const {
    if (!hyp_numeric_) {
      int c = static_cast<int>(v + 0.5f);
      return std::clamp(c, 0, num_classes_ - 1);
    }
    int c = 0;
    for (float e : hyp_edges_) {
      if (v > e) ++c;
    }
    return std::min(c, num_classes_ - 1);
  }

  size_t num_units_;
  int num_classes_;
  int num_bins_;
  bool edges_ready_ = false;
  std::vector<float> edges_;  // num_units × (num_bins-1)
  std::vector<float> hyp_edges_;
  bool hyp_numeric_;
  std::vector<size_t> counts_;  // num_units × num_bins × num_classes
  size_t n_ = 0;
};

/// \brief Multivariate MI: units binarized at the first block's median
/// (midway to the largest value strictly below it), joint state of an
/// evenly spaced unit subsample.
class MultivariateMi {
 public:
  MultivariateMi(size_t num_units, int num_classes,
                 size_t max_joint_units = 8)
      : num_units_(num_units), num_classes_(std::max(num_classes, 2)) {
    const size_t joint = std::min(num_units, max_joint_units);
    for (size_t j = 0; j < joint; ++j) {
      joint_units_.push_back(j * num_units / joint);
    }
    joint_counts_.assign((size_t{1} << joint_units_.size()) * num_classes_,
                         0);
    marginal_counts_.assign(num_units_ * 2 * num_classes_, 0);
    class_counts_.assign(num_classes_, 0);
  }

  void ProcessBlock(const Matrix& units, std::span<const float> hyp) {
    if (!thresholds_ready_) {
      medians_.resize(num_units_);
      std::vector<float> col(units.rows());
      for (size_t u = 0; u < num_units_; ++u) {
        for (size_t r = 0; r < units.rows(); ++r) col[r] = units(r, u);
        size_t mid = col.size() / 2;
        std::nth_element(col.begin(), col.begin() + mid, col.end());
        // Threshold at the midpoint between the median and the largest
        // value strictly below it: with discrete behaviors (e.g. units
        // emitting only ±1) thresholding exactly at the median would put
        // every sample on one side of the strict `>` split.
        float threshold = col[mid];
        float below = -std::numeric_limits<float>::infinity();
        for (size_t r = 0; r < mid; ++r) {
          if (col[r] < col[mid]) below = std::max(below, col[r]);
        }
        if (std::isfinite(below)) threshold = (below + threshold) / 2.0f;
        medians_[u] = threshold;
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

  MeasureScores Scores() const {
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

  const std::vector<float>& medians() const { return medians_; }

 private:
  int HypClass(float v) const {
    return std::clamp(static_cast<int>(v + 0.5f), 0, num_classes_ - 1);
  }

  // MI in bits from a contingency table `counts[state * classes + cls]`.
  static double MiFromCounts(const std::vector<size_t>& counts,
                             size_t states, size_t classes, size_t n) {
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

  size_t num_units_;
  int num_classes_;
  std::vector<size_t> joint_units_;
  bool thresholds_ready_ = false;
  std::vector<float> medians_;
  std::vector<size_t> joint_counts_;     // 2^|joint| × classes
  std::vector<size_t> marginal_counts_;  // num_units × 2 × classes
  std::vector<size_t> class_counts_;     // classes
  size_t n_ = 0;
};

}  // namespace deepbase::oracle
