// BlockPipeline: the engine's block loop (paper §5, Fig. 4). One
// inspection job's blocks are extracted over the session ThreadPool and
// inspected across lanes, with per-shard measure-state replicas
// recombined through the Measure::CloneState()/MergeFrom() API.
//
// Determinism contract: every behavior depends only on (dataset, shuffle
// seed, num_shards) — never on the thread count or scheduling. Blocks are
// assigned to shards by index (block 0 calibrates the primary state, block
// b > 0 belongs to shard (b-1) % S), each shard consumes its blocks in
// ascending order, and partials merge in ascending shard order. Every
// mergeable measure merges exactly (integer counts) or bit-exactly
// (moment sums reduced through a pairwise tree keyed by block serial), so
// tables are byte-identical at every shard count; measures without merge
// support (SGD-trained) and merged composites run on the sequential lane,
// which consumes all blocks in global order and so is bit-exact too.
//
// One loop with two inputs: materialized or streaming
// (InspectOptions::streaming), and the owned shard set (every shard, or
// the range RestrictShards sets). Each pass opens with block 0 alone,
// followed by waves: when materialized, one wave of every other block
// (extracted once, in parallel, and reused by later passes); when
// streaming, waves of at most S blocks freshly extracted with seed
// shuffle_seed + pass. Within a wave the lanes run in parallel:
//   shard lane s    — the shardable pairs' replica s over shard s's blocks
//   sequential lane — the other pairs and the merged composites over
//                     every block, in order
// At S == 1 there is one lane, and it is also the sequential lane.
//
// The calibration wave: block 0 of pass 0 calibrates the primaries before
// the replicas are cloned. A measure whose calibration reads only the
// units (Measure::calibration_reads_units_only) calibrates once per
// (model, group, measure, class count): the first such pair calibrates,
// and every later pair with that key starts from the leader's
// CloneState(), the state its own calibration would reach. The wave runs
// in two rounds, the pairs that calibrate and then those that adopt; each
// round deals its shardable primaries over every shard lane, and the
// sequential pairs and composites stay on the sequential lane. Block 0 is
// atomic: the budget, deadline and cancel checks run once before the
// wave, so either every pair consumes it or none does.
//
// Block accounting: a block counts once per pass, on the first lane that
// inspects it, and in slice mode only on the owner of its shard (block 0
// belongs to shard 0). Live progress ticks by the same rule, so a finished
// run's progress equals its blocks_processed. A lane's blocks_processed
// counts the blocks of its own shard (and, on the sequential lane, every
// block): a shard lane dealt pairs of the calibration wave books only the
// seconds, since block 0 is shard 0's.

#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "data/dataset.h"
#include "hypothesis/hypothesis.h"
#include "measures/measure.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace deepbase {

/// \brief The pipeline's shard count: `requested` when nonzero, else
/// `fallback`, clamped to [1, 64] (with a warning when a request is
/// clamped). The clamped count keys the determinism contract. Each job
/// resolves it once, at its entry point — Scheduler::PlanJob for session
/// jobs, the engine's Inspect() for direct calls,
/// ClusterCoordinator::DistributedRun — and pins it into
/// InspectOptions::num_shards before PlanPipeline.
size_t ResolveShardCount(size_t requested, size_t fallback);

/// \brief The units one block extraction of `model` reads: the sorted,
/// deduplicated union of its groups' unit ids. The pipeline extracts this
/// column set and SharedScan keys blocks by it, so the scheduler groups
/// jobs by it too.
std::vector<int> UnitUnion(const ModelSpec& model);

/// \brief One (model, group, measure, hypothesis) pair of a PipelinePlan.
struct PlannedPair {
  size_t model_i = 0, group_i = 0, score_i = 0, hyp_i = 0;
  /// S > 1 only: the pair rides the shard lanes, because its measure state
  /// merges. false = the sequential lane (at S == 1, the one lane).
  bool shard_lane = false;
  /// How the pair's per-shard states combine (Measure::merge_exactness;
  /// kNone when they cannot). Probed only at S > 1: one lane never merges.
  MergeExactness merge = MergeExactness::kNone;
};

/// \brief One merged composite (model merging, §5.2.1): a mergeable joint
/// measure trained over several binary hypotheses of one unit group. It
/// always runs on the sequential lane: merged training is SGD-ordered.
struct PlannedComposite {
  size_t model_i = 0, group_i = 0, score_i = 0;
  std::vector<size_t> hyp_indices;  // indices into the hypothesis list
};

/// \brief The physical plan of one inspection at one shard count. Built
/// once per job by PlanPipeline; BlockPipeline executes it, the cluster
/// slices it, the coordinator folds worker states in its pair order, and
/// EXPLAIN renders it.
struct PipelinePlan {
  size_t num_shards = 1;
  /// The dataset's DatasetFingerprint (InspectPlan::dataset_fingerprint
  /// for a compiled request), which keys the behavior store's unit and
  /// hypothesis tiers without re-hashing the dataset.
  uint64_t dataset_fingerprint = 0;
  /// The pairs not fused into a composite, in emit order (model → group →
  /// measure → hypothesis). A sliced worker returns one state per entry.
  std::vector<PlannedPair> pairs;
  /// Emitted after the pairs.
  std::vector<PlannedComposite> composites;
  /// S > 1 and some pair or composite needs the sequential lane, which
  /// then runs beside the S shard lanes.
  bool sequential_lane = false;
  /// Slice mode (BlockPipeline::RestrictShards) applies: materialized,
  /// S >= 2, and no (measure, hypothesis) pair needs the sequential lane.
  bool sliceable = false;
  /// Block dispatches of a full run: blocks per pass × passes, capped by
  /// max_blocks (streaming runs cap the whole run, materialized runs the
  /// resident set). The progress denominator of every execution path.
  size_t blocks_planned = 0;
};

/// \brief Plan the block loop of one inspection at `options.num_shards`,
/// already resolved (ResolveShardCount), over `dataset`, whose
/// DatasetFingerprint is `dataset_fingerprint`. The one owner of the lane
/// rules: model merging fuses a mergeable joint measure over binary
/// hypotheses into a composite, and at S > 1 a pair whose state cannot
/// merge runs on the sequential lane.
PipelinePlan PlanPipeline(const std::vector<ModelSpec>& models,
                          const Dataset& dataset,
                          const std::vector<MeasureFactoryPtr>& measures,
                          const std::vector<HypothesisPtr>& hypotheses,
                          const InspectOptions& options,
                          uint64_t dataset_fingerprint);

/// \brief Incremental state for one planned pair. `measure` is the primary
/// (shard-0) state; `replicas[s]` (s >= 1) are the shard clones of a
/// sharded run, merged back into `measure` when the pipeline finishes.
struct PipelinePair : PlannedPair {
  std::unique_ptr<Measure> measure;
  std::vector<std::unique_ptr<Measure>> replicas;  // [0] unused (= primary)
  double epsilon = 0;
  /// Sequential-lane convergence flag.
  bool converged = false;
  /// Per-shard convergence flags of a shard-lane pair (bytes, not
  /// vector<bool>: shards write their own element concurrently).
  std::vector<unsigned char> shard_converged;
  /// The calibration wave: the lane that feeds the primary block 0, and
  /// the index in BlockPipeline::pairs() of the pair whose calibration it
  /// adopts (its own index when it calibrates itself).
  size_t calibration_lane = 0;
  size_t calibration_leader = 0;

  bool FullyConverged() const {
    if (!shard_lane) return converged;
    for (unsigned char c : shard_converged) {
      if (!c) return false;
    }
    return true;
  }
};

/// \brief Incremental state for one planned composite. `hyp_sub_buf` is
/// the reused per-block gather of the heads' hypothesis columns (no
/// per-block allocation).
struct PipelineMerged : PlannedComposite {
  std::unique_ptr<MergedMeasure> merged;
  std::vector<bool> head_converged;
  double epsilon = 0;
  bool all_converged = false;
  Matrix hyp_sub_buf;
};

/// \brief Executes a PipelinePlan (streaming or materialized) across
/// extraction and lanes. Owns the measure states; the engine assembles
/// the result relation from pairs()/merged_states() after Run().
class BlockPipeline {
 public:
  /// \brief Per-lane runtime totals, plus overall flags.
  struct Totals {
    /// One entry per shard lane; when a sequential lane ran (non-mergeable
    /// or merged measures present at S > 1), one extra trailing entry
    /// carries it. With S == 1 there is exactly one entry. Each lane
    /// counts every block it inspected.
    std::vector<RuntimeStats::Shard> lanes;
    /// Blocks inspected, each counted once per pass (see the accounting
    /// rule above).
    size_t blocks_processed = 0;
    /// Records extracted; in slice mode block 0's count only on the
    /// owner of shard 0.
    size_t records_processed = 0;
    /// Wall time of the final replica merge (S > 1 full runs). Kept out
    /// of the lanes' inspection_s: merging is a distinct phase of the
    /// critical path, not block inspection.
    double merge_s = 0;
    bool stopped_early = false;
    /// True when InspectOptions::deadline passed during the run: the
    /// block loop stopped at the first boundary after the deadline, so
    /// the accumulated states cover only a prefix of the plan.
    bool deadline_exceeded = false;
    /// Hypothesis-tier store counters (InspectOptions::hypothesis_store)
    /// for this run — how each hypothesis's stored behaviors were obtained.
    size_t store_hyp_mem_hits = 0;
    size_t store_hyp_disk_hits = 0;
    size_t store_hyp_misses = 0;
    /// (hypothesis, record) rows this run copied from the hypothesis tier
    /// / evaluated with HypothesisFn::Eval, during block extraction or
    /// tier materialization (RuntimeStats::cache_hits / cache_misses).
    size_t cache_hits = 0;
    size_t cache_misses = 0;
  };

  /// `plan` (PlanPipeline over the same inputs and options) must outlive
  /// the pipeline.
  BlockPipeline(const PipelinePlan& plan, const std::vector<ModelSpec>& models,
                const Dataset& dataset,
                const std::vector<MeasureFactoryPtr>& scores,
                const std::vector<HypothesisPtr>& hypotheses,
                const InspectOptions& options);
  ~BlockPipeline();

  BlockPipeline(const BlockPipeline&) = delete;
  BlockPipeline& operator=(const BlockPipeline&) = delete;

  /// \brief Run the full block loop. `total_watch` is the job's wall clock
  /// (shared with the engine's time-budget enforcement).
  Totals Run(const Stopwatch& total_watch);

  /// \brief Slice mode (distributed workers): restrict this run to shards
  /// [shard_lo, shard_hi) of the plan's S. Block 0 is still extracted and
  /// inspected (it calibrates the primary states exactly as in a full
  /// run), but only the owned shards' blocks are extracted and consumed,
  /// and Run() skips the final replica merge — the partial states are
  /// handed out through TakeShardStates() instead. Because the block→shard
  /// map and per-shard consumption order are unchanged, a worker's shard-s
  /// state is bit-identical to the in-process shard-s replica for the same
  /// (seed, num_shards). Must be called before Run(). Fails unless the plan
  /// is sliceable (the cluster pins other jobs to a single worker as a
  /// whole job instead).
  Status RestrictShards(size_t shard_lo, size_t shard_hi);

  /// \brief Move out the owned range's partial states, one per pairs()
  /// entry: the states of shards [shard_lo, shard_hi) merged in ascending
  /// shard order (for shard_lo == 0 this includes the primary's block-0
  /// accumulation). Valid once, after Run() in slice mode; entries may be
  /// null if the run was cancelled before any state accumulated.
  std::vector<std::unique_ptr<Measure>> TakeShardStates();

  /// \brief True when every measure converged (valid after Run()).
  bool AllConverged() const;

  const std::vector<PipelinePair>& pairs() const { return pairs_; }
  const std::vector<PipelineMerged>& merged_states() const { return merged_; }

 private:
  /// One extracted block: unit behaviors per model plus the hypothesis
  /// behaviors in column-major layout (row h = hypothesis h's behaviors,
  /// contiguous — the zero-copy span handed to Measure::ProcessBlock).
  /// Unit matrices are held by shared pointer so a fused job group
  /// (InspectOptions::shared_scan) serves every member from one
  /// allocation; solo runs own their matrices through the same handle.
  struct BlockData {
    std::vector<std::shared_ptr<const Matrix>> unit_behaviors;
    Matrix hyp_cols;  // |H| × rows
    size_t rows = 0;  // 0 = not extracted (budget, cancel, another slice)
    size_t records = 0;
    size_t serial = 0;  // unique per extracted block (scratch-cache tag)
    double unit_s = 0, hyp_s = 0;
    /// Claimed by the first lane that inspects the block in the current
    /// pass; cleared whenever the block's wave is dispatched.
    std::atomic<bool> counted{false};
  };

  /// Per-lane scratch: reused (model, group) gather buffers, tagged by the
  /// block serial they were last filled for. Each lane owns its scratch, so
  /// gathers are race-free and allocation-free across blocks.
  struct LaneScratch {
    std::vector<std::vector<Matrix>> buf;
    std::vector<std::vector<size_t>> tag;  // serial + 1; 0 = empty
  };

  /// One lane's private state, carried across waves.
  struct Lane {
    LaneScratch scratch;
    RuntimeStats::Shard stats;
    size_t blocks_counted = 0;  // blocks this lane inspected first
  };

  /// Blocks [first, first + size) of pass `pass`, resident in `blocks`.
  struct Wave {
    size_t pass = 0;
    size_t first = 0;
    BlockData* blocks = nullptr;
    size_t size = 0;
  };

  bool CancelRequested() const;
  bool OverBudget(const Stopwatch& watch) const;
  /// True once options_.deadline has passed; latches deadline_hit_ so the
  /// run is reported as deadline-truncated even if later checks race.
  bool DeadlinePassed() const;
  void ParallelDo(size_t n, const std::function<void(size_t)>& fn);

  LaneScratch MakeScratch() const;
  /// Up to `max` block index lists from `it`, stopping early at the
  /// budget, deadline or cancellation.
  std::vector<std::vector<size_t>> Pull(BlockIterator* it, size_t max,
                                        const Stopwatch& watch) const;
  /// Extract `idx[i]` as block `first + i` (serial `serial + i`) into
  /// `out[i]`, in parallel, and book each block's extraction on its
  /// shard's lane.
  void Extract(const std::vector<std::vector<size_t>>& idx, size_t first,
               size_t serial, BlockData* out, const Stopwatch& watch,
               Totals* totals);
  void ExtractInto(const std::vector<size_t>& block, size_t serial,
                   BlockData* data);
  const Matrix& GroupMatrix(const BlockData& data, size_t m, size_t g,
                            LaneScratch* scratch);
  std::span<const float> HypSpan(const BlockData& data, size_t h) const;

  /// The pairs a lane feeds a block to: outside the calibration wave every
  /// pair of the lane (kEveryPair), in it the pairs dealt to the lane that
  /// calibrate (kCalibrate) or, once they have, those that adopt (kAdopt).
  enum class Round { kEveryPair, kCalibrate, kAdopt };

  /// Feed one block to `pair`'s shard-`shard` state (shard 0 is the
  /// primary, which stands in for every shard until EnsureReplicas(); a
  /// sequential pair has only the primary) and note its convergence.
  void InspectPair(PipelinePair& pair, size_t shard, const BlockData& data,
                   LaneScratch* scratch);
  /// Feed one block to the shardable pairs' shard-`shard` states.
  /// Respects early stopping.
  void InspectShardBlock(const BlockData& data, size_t shard,
                         LaneScratch* scratch);
  /// Feed one block to the sequential-lane states (unshardable pairs and
  /// merged measures).
  void InspectSequentialBlock(const BlockData& data, LaneScratch* scratch);
  void InspectComposites(const BlockData& data, LaneScratch* scratch);
  bool SequentialLaneConverged() const;
  bool ShardLaneConverged(size_t shard) const;

  /// The shard block `block` of a pass belongs to.
  size_t ShardOf(size_t block) const {
    return block == 0 ? 0 : (block - 1) % num_shards_;
  }
  /// Run every lane over `wave` in parallel (the calibration wave in its
  /// two rounds); `lane_spans` records one pipeline.lane /
  /// pipeline.seq_lane span per lane.
  void RunWave(const Wave& wave, const Stopwatch& watch, bool lane_spans);
  void RunLane(size_t lane, const Wave& wave, const Stopwatch& watch,
               Round round);
  /// Inspect block `block` on `lane` in `round` and book it: the lane's
  /// seconds; if the block is the lane's (its shard's, or any block on
  /// the sequential lane), once per pass, the lane's blocks and records;
  /// and — for the first lane to inspect it this pass, if the block's
  /// shard is owned — the run's count and progress tick.
  void InspectOnLane(size_t lane, size_t block, BlockData* data, Round round);

  void EnsureReplicas();
  void MergeReplicas();

  const PipelinePlan& plan_;
  const std::vector<ModelSpec>& models_;
  const Dataset& dataset_;
  const std::vector<HypothesisPtr>& hypotheses_;
  const InspectOptions& options_;

  // Extraction plan: per model the union of its groups' units; per group
  // the column indices into that union, with identity gathers detected so
  // whole-model groups are served zero-copy from the block matrix.
  std::vector<std::vector<int>> model_units_;
  std::vector<std::vector<std::vector<size_t>>> group_cols_;
  std::vector<std::vector<bool>> group_identity_;

  std::vector<PipelinePair> pairs_;
  std::vector<PipelineMerged> merged_;

  /// Slice-mode ownership tests (full runs own everything).
  bool OwnsShard(size_t shard) const {
    return !sliced_ || (shard >= slice_lo_ && shard < slice_hi_);
  }
  bool OwnsBlock(size_t block) const {
    return block == 0 || OwnsShard(ShardOf(block));
  }

  const size_t num_shards_;  // plan_.num_shards
  /// Index of the sequential lane: lane 0 at S == 1, else lane S (present
  /// only when plan_.sequential_lane).
  size_t seq_lane_ = 0;
  std::vector<Lane> lanes_;
  bool sliced_ = false;
  size_t slice_lo_ = 0, slice_hi_ = 0;
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;

  // Hypothesis store tier: per hypothesis, a shared read-only handle on
  // its full stored behavior matrix (num_records × ns; null = served
  // live). Loaded once in the constructor via BehaviorStore::GetShared —
  // fused jobs over one dataset all read the store's single allocation
  // instead of holding per-job deep copies — then every block copies row
  // slices instead of calling HypothesisFn::Eval.
  std::vector<std::shared_ptr<const Matrix>> hyp_stored_;
  size_t hyp_tier_served_ = 0;  // non-null entries of hyp_stored_
  size_t hyp_tier_evals_ = 0;   // rows evaluated to materialize the tier
  size_t store_hyp_mem_hits_ = 0;
  size_t store_hyp_disk_hits_ = 0;
  size_t store_hyp_misses_ = 0;
  double hyp_tier_prelude_s_ = 0;

  std::unique_ptr<std::atomic<bool>[]> warned_bad_size_;

  /// Set by any lane that observes the deadline passing (relaxed: the
  /// flag only ever flips false→true and is read after the lanes join).
  mutable std::atomic<bool> deadline_hit_{false};
};

}  // namespace deepbase
