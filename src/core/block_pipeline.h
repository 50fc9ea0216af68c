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
// the range RestrictShards sets). Each pass opens with block 0 alone — on
// pass 0 it calibrates the primaries before the replicas are cloned —
// followed by waves: when materialized, one wave of every other block
// (extracted once, in parallel, and reused by later passes); when
// streaming, waves of at most S blocks freshly extracted with seed
// shuffle_seed + pass. Within a wave the lanes run in parallel:
//   shard lane s    — the shardable pairs' replica s over shard s's blocks
//   sequential lane — the other pairs and the merged composites over
//                     every block, in order
// At S == 1 there is one lane, and it is also the sequential lane.
//
// Block accounting: a block counts once per pass, on the first lane that
// inspects it, and in slice mode only on the owner of its shard (block 0
// belongs to shard 0). Live progress ticks by the same rule, so a finished
// run's progress equals its blocks_processed.

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
/// `fallback`, clamped to [1, 64]. The clamped count keys the determinism
/// contract, so every layer that predicts or pins a job's shard count
/// (scheduler fingerprints, the cluster coordinator, EXPLAIN) resolves it
/// here.
size_t ResolveShardCount(size_t requested, size_t fallback);

/// \brief The units one block extraction of `model` reads: the sorted,
/// deduplicated union of its groups' unit ids. The pipeline extracts this
/// column set and SharedScan keys blocks by it, so the scheduler groups
/// jobs by it too.
std::vector<int> UnitUnion(const ModelSpec& model);

/// \brief Model merging (§5.2.1): true when the pair is fused into the
/// composite model of a mergeable joint measure over binary hypotheses.
bool FusesIntoComposite(const MeasureFactory& factory,
                        const HypothesisFn& hypothesis, bool model_merging);

/// \brief How the pair's per-shard measure states combine
/// (Measure::merge_exactness); kNone when the measure builds no state for
/// the hypothesis.
MergeExactness PairMergeExactness(const MeasureFactory& factory,
                                  const HypothesisFn& hypothesis);

/// \brief The lane test: true when the (measure, hypothesis) pair needs
/// the sequential lane at S > 1 — it is fused into a merged composite
/// (model merging over a mergeable measure and a binary hypothesis), or
/// its measure state cannot merge (MergeExactness::kNone).
bool NeedsSequentialLane(const MeasureFactory& factory,
                         const HypothesisFn& hypothesis, bool model_merging);

/// \brief True when a job can run in slice mode
/// (BlockPipeline::RestrictShards): materialized, at least two shards,
/// and no (measure, hypothesis) pair needs the sequential lane.
bool Sliceable(const std::vector<MeasureFactoryPtr>& measures,
               const std::vector<HypothesisPtr>& hypotheses,
               const InspectOptions& options, size_t num_shards);

/// \brief Planned block dispatches of a full run over `num_records`
/// records: blocks per pass × passes, capped by max_blocks (streaming runs
/// cap the whole run, materialized runs the resident set). The progress
/// denominator of local and distributed runs alike.
size_t PlannedBlockDispatches(const InspectOptions& options,
                              size_t num_records);

/// \brief Incremental state for one (model, group, measure, hypothesis)
/// pair. `measure` is the primary (shard-0) state; `replicas[s]` (s >= 1)
/// are the shard clones of a sharded run, merged back into `measure` when
/// the pipeline finishes.
struct PipelinePair {
  size_t model_i = 0, group_i = 0, score_i = 0, hyp_i = 0;
  std::unique_ptr<Measure> measure;
  std::vector<std::unique_ptr<Measure>> replicas;  // [0] unused (= primary)
  double epsilon = 0;
  bool shardable = false;
  /// Sequential-lane convergence flag (unshardable pairs).
  bool converged = false;
  /// Per-shard convergence flags of a shardable pair (bytes, not
  /// vector<bool>: shards write their own element concurrently).
  std::vector<unsigned char> shard_converged;

  bool FullyConverged() const {
    if (!shardable) return converged;
    for (unsigned char c : shard_converged) {
      if (!c) return false;
    }
    return true;
  }
};

/// \brief Incremental state for one merged (composite-model) measure over
/// several binary hypotheses. Always runs on the sequential lane: merged
/// training is SGD-ordered. `hyp_sub_buf` is the reused per-block gather
/// of the heads' hypothesis columns (no per-block allocation).
struct PipelineMerged {
  size_t model_i = 0, group_i = 0, score_i = 0;
  std::unique_ptr<MergedMeasure> merged;
  std::vector<size_t> hyp_indices;  // indices into the hypothesis list
  std::vector<bool> head_converged;
  double epsilon = 0;
  bool all_converged = false;
  Matrix hyp_sub_buf;
};

/// \brief Executes the block loop of one inspection (streaming or
/// materialized) across extraction and lanes. Owns the measure states;
/// the engine assembles the result relation from pairs()/merged_states()
/// after Run().
class BlockPipeline {
 public:
  /// \brief Per-lane runtime totals, plus overall flags.
  struct Totals {
    /// One entry per shard lane; when a sequential lane ran (non-mergeable
    /// or merged measures present at S > 1), one extra trailing entry
    /// carries it. With S == 1 there is exactly one entry. Each lane
    /// counts every block it inspected.
    std::vector<RuntimeStats::Shard> lanes;
    size_t num_shards = 1;
    /// Blocks inspected, each counted once per pass (see the accounting
    /// rule above).
    size_t blocks_processed = 0;
    /// Records extracted; in slice mode block 0's count only on the
    /// owner of shard 0.
    size_t records_processed = 0;
    /// Planned dispatches of a full run (per-pass blocks × passes, capped
    /// by max_blocks) — the progress denominator; set before any block
    /// runs, so pollers see it while the loop is in flight.
    size_t blocks_planned = 0;
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

  BlockPipeline(const std::vector<ModelSpec>& models, const Dataset& dataset,
                const std::vector<MeasureFactoryPtr>& scores,
                const std::vector<HypothesisPtr>& hypotheses,
                const InspectOptions& options);
  ~BlockPipeline();

  BlockPipeline(const BlockPipeline&) = delete;
  BlockPipeline& operator=(const BlockPipeline&) = delete;

  /// \brief Effective shard count (options.num_shards resolved against the
  /// pool; see InspectOptions::num_shards).
  size_t num_shards() const { return num_shards_; }

  /// \brief Run the full block loop. `total_watch` is the job's wall clock
  /// (shared with the engine's time-budget enforcement).
  Totals Run(const Stopwatch& total_watch);

  /// \brief Slice mode (distributed workers): restrict this run to shards
  /// [shard_lo, shard_hi) of num_shards(). Block 0 is still extracted and
  /// inspected (it calibrates the primary states exactly as in a full
  /// run), but only the owned shards' blocks are extracted and consumed,
  /// and Run() skips the final replica merge — the partial states are
  /// handed out through TakeShardStates() instead. Because the block→shard
  /// map and per-shard consumption order are unchanged, a worker's shard-s
  /// state is bit-identical to the in-process shard-s replica for the same
  /// (seed, num_shards). Must be called before Run(). Fails unless the job
  /// is Sliceable() (the cluster pins other jobs to a single worker as a
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

  /// Feed one block to a shardable pair's shard-`s` replica (s == 0 is the
  /// primary, which stands in for every shard until EnsureReplicas()).
  /// Respects early stopping.
  void InspectShardBlock(const BlockData& data, size_t shard,
                         LaneScratch* scratch);
  /// Feed one block to the sequential-lane states (unshardable pairs and
  /// merged measures).
  void InspectSequentialBlock(const BlockData& data, LaneScratch* scratch);
  bool SequentialLaneConverged() const;
  bool ShardLaneConverged(size_t shard) const;

  /// The shard block `block` of a pass belongs to.
  size_t ShardOf(size_t block) const {
    return block == 0 ? 0 : (block - 1) % num_shards_;
  }
  /// Run every lane over `wave` in parallel; `lane_spans` records one
  /// pipeline.lane / pipeline.seq_lane span per lane.
  void RunWave(const Wave& wave, const Stopwatch& watch, bool lane_spans);
  void RunLane(size_t lane, const Wave& wave, const Stopwatch& watch);
  /// Inspect block `block` on `lane` and book it: the lane's seconds,
  /// blocks and records, and — for the first lane to inspect it this pass,
  /// if the block's shard is owned — the run's count and progress tick.
  void InspectOnLane(size_t lane, size_t block, BlockData* data);

  void EnsureReplicas();
  void MergeReplicas();

  const std::vector<ModelSpec>& models_;
  const Dataset& dataset_;
  const std::vector<MeasureFactoryPtr>& scores_;
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
  bool have_sequential_ = false;

  /// Slice-mode ownership tests (full runs own everything).
  bool OwnsShard(size_t shard) const {
    return !sliced_ || (shard >= slice_lo_ && shard < slice_hi_);
  }
  bool OwnsBlock(size_t block) const {
    return block == 0 || OwnsShard(ShardOf(block));
  }

  size_t num_shards_ = 1;
  /// Index of the sequential lane: lane 0 at S == 1, else lane S (present
  /// only when have_sequential_).
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
