// Independent (per-unit) affinity measures: Pearson and Spearman
// correlation, mutual information, difference of means, and Jaccard
// coefficient — the measures the paper cites from the RNN interpretation
// literature (§4.3) and implements natively.
//
// Most support the shard-merge API (CloneState/MergeFrom): the counting
// measures (Jaccard, mutual information) merge exactly, and the moment-sum
// measures (Pearson, diff-of-means) are bit-exact at any shard/worker
// count — they keep per-block partial moments keyed by (pass occurrence,
// block serial) and reduce them through a canonical pairwise tree in
// Scores(), so the FP summation order never depends on block dealing.
// Spearman's bounded sample buffer is consumption-order-dependent, so it
// stays on the engine's sequential lane instead.
//
// Kernels are cache-blocked SIMD loops (tensor/simd.h) in DEEPBASE_SIMD
// builds. Each vector lane accumulates exactly one unit's column in row
// order — the same additions in the same order as the scalar fallback —
// so per-unit sums are bit-identical across SIMD and scalar builds.

#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "measures/measure.h"

namespace deepbase {

/// \brief Streaming Pearson correlation per unit.
///
/// Convergence uses the Fisher z-transform normal confidence interval
/// (paper §5.2.2): the error estimate is the maximum CI half-width (mapped
/// back to r-space) across units.
class PearsonMeasure : public Measure {
 public:
  PearsonMeasure(size_t num_units, double z_critical = 1.96);

  void BeginBlock(uint64_t serial) override;
  void ProcessBlock(const Matrix& units, std::span<const float> hyp) override;
  MeasureScores Scores() const override;
  double ErrorEstimate() const override;

  MergeExactness merge_exactness() const override {
    return MergeExactness::kBitExact;
  }
  std::unique_ptr<Measure> CloneState() const override;
  void MergeFrom(const Measure& other) override;
  bool SerializeState(codec::Writer* w) const override;
  bool DeserializeState(codec::Reader* r) override;

 private:
  /// One processed block's raw moments. Entries from every shard replica
  /// concatenate under MergeFrom; Scores() sorts them by (occ, serial) and
  /// reduces through a canonical pairwise tree, which is what makes the
  /// merged result bit-identical to the single-lane run.
  struct Entry {
    uint64_t occ = 0;     // how many times this serial was seen before
    uint64_t serial = 0;  // engine block serial (shuffle position)
    uint64_t n = 0;
    double sy = 0, syy = 0;
    std::vector<double> sx, sxx, sxy;
  };

  double UnitR(size_t u) const;
  Entry ReducedEntry() const;

  size_t num_units_;
  double z_critical_;
  std::vector<Entry> entries_;
  // Running totals (plain += accumulation) back the per-block convergence
  // check only; Scores() always re-reduces entries_ canonically.
  size_t n_ = 0;
  std::vector<double> sx_, sxx_, sxy_;
  double sy_ = 0, syy_ = 0;
  // BeginBlock bookkeeping (not serialized: partials that travel are only
  // merged and scored, never fed further blocks).
  std::unordered_map<uint64_t, uint32_t> occ_seen_;
  bool key_pending_ = false;
  uint64_t pending_occ_ = 0, pending_serial_ = 0;
  uint64_t auto_serial_ = 0;
};

/// \brief Spearman rank correlation per unit, computed over a bounded
/// sample buffer (ranking is not streamable exactly; the buffer cap is the
/// documented approximation). Not shard-mergeable: when the cap binds,
/// "first max_rows rows" depends on consumption order, and merging
/// shard-local prefixes would keep a different row subset than sequential
/// execution — so it runs on the sequential lane and stays bit-exact at
/// every shard count instead.
class SpearmanMeasure : public Measure {
 public:
  SpearmanMeasure(size_t num_units, size_t max_rows = 20000,
                  double z_critical = 1.96);

  void ProcessBlock(const Matrix& units, std::span<const float> hyp) override;
  MeasureScores Scores() const override;
  double ErrorEstimate() const override;

 private:
  size_t num_units_, max_rows_;
  double z_critical_;
  std::vector<std::vector<float>> unit_buf_;
  std::vector<float> hyp_buf_;
};

/// \brief Standardized difference of means: (mean(x|h=1) − mean(x|h=0)) /
/// pooled standard deviation, per unit. Hypothesis is binarized at 0.5.
class DiffMeansMeasure : public Measure {
 public:
  explicit DiffMeansMeasure(size_t num_units);

  void BeginBlock(uint64_t serial) override;
  void ProcessBlock(const Matrix& units, std::span<const float> hyp) override;
  MeasureScores Scores() const override;
  double ErrorEstimate() const override;

  MergeExactness merge_exactness() const override {
    return MergeExactness::kBitExact;
  }
  std::unique_ptr<Measure> CloneState() const override;
  void MergeFrom(const Measure& other) override;
  bool SerializeState(codec::Writer* w) const override;
  bool DeserializeState(codec::Reader* r) override;

 private:
  /// Per-block partial moments, same keying and canonical pairwise
  /// reduction as PearsonMeasure::Entry.
  struct Entry {
    uint64_t occ = 0;
    uint64_t serial = 0;
    uint64_t n1 = 0, n0 = 0;
    std::vector<double> s1, ss1, s0, ss0;
  };

  Entry ReducedEntry() const;

  size_t num_units_;
  std::vector<Entry> entries_;
  // Running totals for the convergence check; Scores() re-reduces entries_.
  size_t n1_ = 0, n0_ = 0;
  std::vector<double> s1_, ss1_, s0_, ss0_;
  std::unordered_map<uint64_t, uint32_t> occ_seen_;
  bool key_pending_ = false;
  uint64_t pending_occ_ = 0, pending_serial_ = 0;
  uint64_t auto_serial_ = 0;
};

/// \brief Jaccard coefficient (intersection over union) between the
/// thresholded unit activation and the binary hypothesis — NetDissect's
/// measure (§4.3, Appendix E). Units are binarized at the per-unit
/// activation quantile of the first non-empty block (NetDissect's quantile
/// binning; order_stats::Select). CloneState() copies the calibrated
/// thresholds, so shard replicas binarize identically and MergeFrom is
/// exact (integer counters). The thresholds read only the units, so a
/// job's pairs over one unit group share one calibration.
class JaccardMeasure : public Measure {
 public:
  JaccardMeasure(size_t num_units, double top_quantile = 0.2);

  void ProcessBlock(const Matrix& units, std::span<const float> hyp) override;
  MeasureScores Scores() const override;
  double ErrorEstimate() const override;

  MergeExactness merge_exactness() const override {
    return MergeExactness::kExact;
  }
  std::unique_ptr<Measure> CloneState() const override;
  bool calibration_reads_units_only() const override { return true; }
  void MergeFrom(const Measure& other) override;
  bool SerializeState(codec::Writer* w) const override;
  bool DeserializeState(codec::Reader* r) override;

 private:
  size_t num_units_;
  double top_quantile_;
  bool thresholds_ready_ = false;
  std::vector<float> thresholds_;
  std::vector<size_t> inter_, uni_;
  size_t n_ = 0;
};

/// \brief Mutual information between the quantile-binned unit activation
/// and the (categorical) hypothesis, in bits. Bin edges are the quantiles
/// of the first non-empty block (order_stats::Select), so each unit's edges
/// are nondecreasing; a 16-unit panel counts, per (class, edge), the rows
/// above the edge and takes each bin's count as the difference of two
/// such counts. The error estimate is the Miller–Madow bias term.
/// CloneState() copies the calibrated bin edges; MergeFrom sums the integer
/// contingency counts, so sharded partials merge exactly. A categorical
/// hypothesis's calibration reads only the units; a numeric one also
/// calibrates its own hypothesis edges, so it cannot share a calibration.
class MutualInfoMeasure : public Measure {
 public:
  MutualInfoMeasure(size_t num_units, int num_classes, int num_bins = 4);

  void ProcessBlock(const Matrix& units, std::span<const float> hyp) override;
  MeasureScores Scores() const override;
  double ErrorEstimate() const override;

  MergeExactness merge_exactness() const override {
    return MergeExactness::kExact;
  }
  std::unique_ptr<Measure> CloneState() const override;
  bool calibration_reads_units_only() const override { return !hyp_numeric_; }
  void MergeFrom(const Measure& other) override;
  bool SerializeState(codec::Writer* w) const override;
  bool DeserializeState(codec::Reader* r) override;

 private:
  int HypClass(float v) const;
  void RebuildEdgePlanes();

  size_t num_units_;
  int num_classes_;  // effective hypothesis classes (>= 2)
  int num_bins_;
  bool edges_ready_ = false;
  std::vector<float> edges_;        // num_units × (num_bins-1)
  std::vector<float> edges_t_;      // bin-major transpose: (num_bins-1) ×
                                    // num_units, for the vectorized binning
  std::vector<float> hyp_edges_;    // for numeric hypotheses
  bool hyp_numeric_;
  std::vector<size_t> counts_;      // num_units × num_bins × num_classes
  size_t n_ = 0;
};

}  // namespace deepbase
