// Statistical affinity measures l(U, h, D) -> ([s_u | u in U], s_U)
// (paper §3) with the incremental computation API of §5.2.2:
//     l.process_block(U, h, recs) -> (scores, err)
// Independent measures score each unit separately; joint measures (e.g.
// logistic regression) fit one model over the whole unit group.

#pragma once

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "tensor/matrix.h"
#include "util/codec.h"

namespace deepbase {

/// \brief Affinity scores for one (unit group, hypothesis) pair.
struct MeasureScores {
  /// One score per unit in the group (empty for group-only measures).
  std::vector<float> unit_scores;
  /// Group affinity (NaN when the measure is per-unit only).
  float group_score = std::numeric_limits<float>::quiet_NaN();
};

/// \brief How exactly a measure's sharded partials recombine (intra-job
/// parallelism: the engine fans one job's blocks out over shard replicas
/// and merges the partial states at the end).
enum class MergeExactness {
  /// No MergeFrom support: the engine pins the measure to the sequential
  /// lane, which consumes blocks in global order (SGD-trained measures,
  /// whose state depends on update order).
  kNone,
  /// Merged partials are bit-for-bit equal to sequential accumulation
  /// (integer contingency counts: Jaccard, mutual information, baselines).
  kExact,
  /// Merging re-associates floating-point sums: equal up to FP rounding
  /// (moment-sum measures that fold partials with +=).
  kReassociated,
  /// Scores are bit-identical at ANY shard/worker count: the measure keeps
  /// per-block partial moments keyed by (pass occurrence, block serial) and
  /// reduces them in Scores() through a canonical fixed-shape pairwise tree
  /// over the sorted keys, so the FP reduction order never depends on how
  /// blocks were dealt out (Pearson, difference of means). Requires the
  /// same set of blocks to have been processed — early stopping truncates
  /// each shard lane at its own convergence point, so only full sweeps are
  /// shard-count-invariant.
  kBitExact,
};

class Measure;

namespace measure_internal {
/// \brief Downcast a MergeFrom peer, aborting on replica/primary type
/// mismatch — the one checked cast every MergeFrom override starts with.
template <typename T>
const T& MergePeer(const Measure& other) {
  const T* peer = dynamic_cast<const T*>(&other);
  DB_DCHECK(peer != nullptr && "MergeFrom peer has a different measure type");
  return *peer;
}

/// \brief Leading tag of every serialized measure state, so a mismatched
/// pairing (e.g. a pearson blob fed to a jaccard instance) fails the
/// decode instead of silently misinterpreting bytes. Values are part of
/// the cross-process format — append, never renumber.
enum class StateKind : uint8_t {
  kPearson = 1,
  kDiffMeans = 2,
  kJaccard = 3,
  kMutualInfo = 4,
  kMultivariateMi = 5,
  kNaiveBaseline = 6,
};

// Length-prefixed vector helpers for SerializeState/DeserializeState,
// over float, double and size_t elements (F32, F64 and U64 on the wire).
// Floats travel bit-cast (codec F32/F64), so NaN payloads round-trip
// exactly and integer-count merges stay bit-identical across processes.
template <typename T>
void WriteVec(codec::Writer* w, const std::vector<T>& v) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  w->U32(static_cast<uint32_t>(v.size()));
  for (T x : v) {
    if constexpr (std::is_same_v<T, float>) {
      w->F32(x);
    } else if constexpr (std::is_same_v<T, double>) {
      w->F64(x);
    } else {
      w->U64(x);
    }
  }
}
// Checks that the remaining bytes hold the elements before sizing.
template <typename T>
bool ReadVec(codec::Reader* r, size_t expected_size, std::vector<T>* v) {
  if (r->U32() != expected_size || r->remaining() / sizeof(T) < expected_size) {
    return false;
  }
  v->resize(expected_size);
  for (T& x : *v) {
    if constexpr (std::is_same_v<T, float>) {
      x = r->F32();
    } else if constexpr (std::is_same_v<T, double>) {
      x = r->F64();
    } else {
      x = r->U64();
    }
  }
  return r->ok();
}
}  // namespace measure_internal

/// \brief Stateful incremental computation of one measure for one
/// (unit group, hypothesis) pair.
class Measure {
 public:
  virtual ~Measure() = default;

  /// \brief Announce the identity of the next block before ProcessBlock.
  /// `serial` is the engine's shard-count-invariant block serial (the
  /// block's position in shuffle order); kBitExact measures key their
  /// per-block partial moments by (occurrence of this serial, serial) so
  /// the canonical reduction tree in Scores() is the same no matter which
  /// lane consumed the block. Default no-op; measures called without it
  /// (direct API use) fall back to an internal monotonic counter —
  /// deterministic for a fixed call sequence, but not shard-invariant.
  virtual void BeginBlock(uint64_t serial) { (void)serial; }

  /// \brief Consume one block of behaviors: `units` is (#symbols × #units),
  /// `hyp` has one hypothesis behavior per symbol row. The span is a
  /// zero-copy view into the block's column-major hypothesis behaviors; it
  /// is only valid for the duration of the call.
  virtual void ProcessBlock(const Matrix& units,
                            std::span<const float> hyp) = 0;

  /// \brief Current score estimates.
  virtual MeasureScores Scores() const = 0;

  /// \brief Estimated error of the current scores; +inf when unknown.
  /// Convergence = ErrorEstimate() < threshold (paper §5.2.2).
  virtual double ErrorEstimate() const = 0;

  /// \brief False for measures with no error estimate; the engine then
  /// processes all of D (paper: "Otherwise, DeepBase ignores the threshold").
  virtual bool SupportsConvergence() const { return true; }

  /// \brief Shard-merge support (kNone = sequential-lane only).
  virtual MergeExactness merge_exactness() const {
    return MergeExactness::kNone;
  }

  /// \brief Fresh shard replica: same configuration AND any first-block
  /// calibration state (activation thresholds, bin edges), but empty
  /// accumulation. The engine calibrates the primary state on the job's
  /// first block before cloning, so every replica bins/thresholds behaviors
  /// identically — the precondition for MergeFrom being meaningful.
  /// Returns nullptr when merging is unsupported (merge_exactness kNone).
  virtual std::unique_ptr<Measure> CloneState() const { return nullptr; }

  /// \brief True when the first-block calibration reads only the units,
  /// never the hypothesis behaviors: then a state that has consumed a block
  /// has, through CloneState(), exactly the calibration that a fresh state
  /// of the same factory, unit count and class count reaches on that block
  /// for any other hypothesis. The engine relies on it to calibrate once
  /// per (model, unit group, measure, class count) on a job's first block:
  /// the first such pair calibrates, and every later one starts from its
  /// CloneState() before it consumes the same block, so its scores are the
  /// ones its own calibration would give. Requires CloneState() support.
  /// False by default: the engine then calibrates every pair on its own.
  virtual bool calibration_reads_units_only() const { return false; }

  /// \brief Fold another replica's accumulated state into this one. `other`
  /// must originate from CloneState() of the same measure (checked). Merge
  /// order is deterministic in the engine (ascending shard id), so results
  /// depend only on (shuffle seed, shard count), never on thread timing.
  virtual void MergeFrom(const Measure& other) {
    (void)other;
    DB_DCHECK(false && "MergeFrom unsupported for this measure");
  }

  /// \brief Serialize the full state — a measure-kind tag, the
  /// configuration (as a cross-process compatibility guard), calibration,
  /// and accumulators — so partial states can travel between processes for
  /// distributed shard merging. The byte format uses util/codec.h with
  /// bit-cast floats: deserialize-then-MergeFrom is bit-identical to an
  /// in-process MergeFrom for every measure (the merge itself is then
  /// kExact/kBitExact/kReassociated per merge_exactness()). Returns false when
  /// unsupported (sequential-lane measures never travel as partial state).
  virtual bool SerializeState(codec::Writer* w) const {
    (void)w;
    return false;
  }

  /// \brief Restore state serialized by SerializeState into an instance
  /// created with the same factory configuration. Returns false on a
  /// kind/configuration mismatch or truncated input (the caller surfaces
  /// this as kDataLoss); the instance is unusable after a failure.
  virtual bool DeserializeState(codec::Reader* r) {
    (void)r;
    return false;
  }
};

/// \brief Jointly trained measure over |H| hypotheses sharing one input
/// (model merging, §5.2.1): one composite model, one output head per
/// hypothesis. Scores are exactly those of per-hypothesis training in
/// expectation, since heads share no parameters.
class MergedMeasure {
 public:
  virtual ~MergedMeasure() = default;

  /// \brief `hyps` is (#symbols × #hypotheses).
  virtual void ProcessBlock(const Matrix& units, const Matrix& hyps) = 0;
  virtual MeasureScores ScoresFor(size_t hyp_index) const = 0;
  virtual double ErrorEstimate(size_t hyp_index) const = 0;
};

/// \brief Factory for measure instances — the objects users put in the
/// `scores` list of deepbase.inspect() (paper §4.1, e.g.
/// CorrelationScore('pearson'), LogRegressionScore(regul='L1')).
class MeasureFactory {
 public:
  explicit MeasureFactory(std::string name) : name_(std::move(name)) {}
  virtual ~MeasureFactory() = default;

  const std::string& name() const { return name_; }

  /// \brief Joint measures produce a meaningful group score.
  virtual bool is_joint() const = 0;
  /// \brief True if CreateMerged is supported (linear-model measures).
  virtual bool mergeable() const { return false; }

  /// \param num_units size of the unit group.
  /// \param num_classes hypothesis class count (2 binary, k categorical,
  ///        0 numeric).
  virtual std::unique_ptr<Measure> Create(size_t num_units,
                                          int num_classes) const = 0;

  virtual std::unique_ptr<MergedMeasure> CreateMerged(
      size_t /*num_units*/, size_t /*num_hyps*/) const {
    return nullptr;
  }

 private:
  std::string name_;
};

using MeasureFactoryPtr = std::shared_ptr<MeasureFactory>;

}  // namespace deepbase
