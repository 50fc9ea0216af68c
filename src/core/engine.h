// The DeepBase engine (paper §5, Figure 4): given models/unit groups, a
// dataset, measures, and hypotheses, compute all affinity scores. The
// optimization flags correspond exactly to the paper's ablation systems:
//
//   streaming=false, model_merging=false, early_stopping=false  -> PyBase
//   streaming=false, model_merging=true,  early_stopping=false  -> +MM
//   streaming=false, model_merging=true,  early_stopping=true   -> +MM+ES
//   streaming=true,  model_merging=true,  early_stopping=true   -> DeepBase
//
// plus the hypothesis-behavior cache (Figure 9) — the hyp: tier of a
// BehaviorStore, memory-only in storeless sessions — and thread-pool batch
// extraction (the GPU substitute; Figures 5/7).

#pragma once

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/extractor.h"
#include "core/result_table.h"
#include "hypothesis/hypothesis.h"
#include "measures/measure.h"

namespace deepbase {

class BehaviorStore;
class SharedScanClient;
class ThreadPool;
class Tracer;

/// \brief A named subset of one model's hidden units (paper Def. 1 takes
/// unit groups, not whole models, so per-group joint measures are scoped
/// correctly — e.g. "layer0", "layer1", "all").
struct UnitGroupSpec {
  std::string group_id;
  std::vector<int> unit_ids;
};

/// \brief One model to inspect and the unit groups to score within it.
struct ModelSpec {
  const Extractor* extractor = nullptr;  // not owned
  std::vector<UnitGroupSpec> groups;
};

/// \brief All units of the extractor as a single group.
ModelSpec AllUnitsGroup(const Extractor* extractor,
                        const std::string& group_id = "all");

/// \brief Append one (model, group, measure, hypothesis) pair's result rows
/// to `table`: a single group-level row when the measure reports no unit
/// scores, else one row per unit of the group, in group order. Local runs
/// and the coordinator's merge of sliced runs both assemble tables here.
void AppendScoreRows(const std::string& model_id, const UnitGroupSpec& group,
                     const std::string& measure, const std::string& hypothesis,
                     const MeasureScores& scores, ResultTable* table);

/// \brief Live progress counters of one engine run, safe to read from any
/// thread while the run is in flight. The block pipeline (or, for a
/// distributed run, the cluster coordinator) stores the planned dispatch
/// count into `blocks_total` when the run starts (resetting
/// `blocks_done`), then bumps `blocks_done`/`records_done` as block
/// inspections complete — the counter JobHandle::Poll snapshots and the
/// serving layer streams to remote clients as progress events. A finished
/// run's `blocks_done` equals its RuntimeStats::blocks_processed. Early
/// stopping, budgets, and cancellation may finish a run below
/// `blocks_total`; `blocks_done` never exceeds it.
struct ProgressCounter {
  std::atomic<uint64_t> blocks_done{0};
  std::atomic<uint64_t> blocks_total{0};
  std::atomic<uint64_t> records_done{0};
};

/// \brief Engine configuration (defaults = full DeepBase, paper §6.2).
struct InspectOptions {
  size_t block_size = 512;
  uint64_t shuffle_seed = 7;

  /// Number of passes over the dataset. SGD-based joint measures on small
  /// datasets need several passes (§6.3: DeepBase extracts activations once
  /// and makes subsequent passes on the cached/materialized version, which
  /// is what streaming=false + passes>1 reproduces).
  size_t passes = 1;

  /// Lazy/online behavior extraction (§5.2.3).
  bool streaming = true;
  /// Convergence-based early stopping (§5.2.2).
  bool early_stopping = true;
  /// Composite-model training for mergeable joint measures (§5.2.1).
  bool model_merging = true;

  /// Error thresholds per measure family (paper defaults: ε=0.025 at 95%
  /// confidence for correlation, 0.01 for logistic regression).
  double corr_epsilon = 0.025;
  double logreg_epsilon = 0.01;
  double default_epsilon = 0.01;

  /// Optional disk-backed behavior store for the unit tier (the
  /// Mistique-style substrate, §5.1.2/§6.3). When set, each model's unit
  /// behaviors are materialized into the store on first inspection and
  /// served from it afterwards, so re-inspection skips the forward passes
  /// entirely — including across process restarts. Typically owned by an
  /// InspectionSession.
  ///
  /// Caveats: entries are keyed by (model_id, dataset fingerprint), so a
  /// retrained model must get a fresh model_id or the store serves its
  /// old behaviors; and the one-time materialization extracts the full
  /// dataset upfront, outside the time_budget_s/max_blocks limits (only
  /// cancellation is honored between models).
  BehaviorStore* behavior_store = nullptr;

  /// The hypothesis-behavior cache (§5.1.2, Figure 9): the store whose
  /// hyp: tier serves hypothesis behaviors. Each hypothesis's full
  /// behaviors are materialized once under HypothesisBehaviorKey (keyed
  /// by hypothesis name + dataset fingerprint) and block extraction
  /// copies rows from the stored matrix — reused across jobs and, when
  /// the store is disk-backed, across restarts. A session points this at
  /// its own store, or at a memory-only store when it has none. The
  /// one-time materialization evaluates the hypothesis over the whole
  /// dataset upfront (same §6.3 trade-off as unit materialization).
  /// null = every block evaluates HypothesisFn::Eval live.
  BehaviorStore* hypothesis_store = nullptr;

  /// Per-request opt-out of hypothesis_store (false = evaluate live).
  ///
  /// Caveat (same contract as the unit tier's model_id): the hypothesis
  /// *name* is its store identity. A changed hypothesis function must be
  /// registered under a fresh name, or its stale stored behaviors are
  /// served — including across restarts. Disable this flag for
  /// hypotheses whose definition churns under a fixed name.
  bool hypothesis_store_tier = true;

  /// Shared-scan membership for the multi-query scheduler: when set, unit
  /// behaviors of each block are fetched through the fused group's
  /// SharedScan, so N concurrent jobs over one (model, dataset) pay one
  /// extraction pass. Never changes scores — the scan memoizes the exact
  /// per-block matrices this job would have extracted itself. Typically
  /// set by InspectionSession's scheduler, not by hand.
  SharedScanClient* shared_scan = nullptr;

  /// Intra-job parallelism: shard this job's block loop into this many
  /// deterministic lanes (block b > 0 belongs to shard (b-1) % num_shards;
  /// block 0 calibrates the primary state). 0 = one shard per pool thread
  /// (sequential when no pool is attached); 1 = the classic sequential
  /// engine. Scores depend only on (shuffle seed, num_shards), never on
  /// the thread count: mergeable measures recombine shard partials via
  /// Measure::MergeFrom in shard order (exact for integer counts,
  /// bit-exact for moment sums through their pairwise tree, so full
  /// sweeps match at every shard count), and non-mergeable (SGD-trained)
  /// measures run on a sequential lane in global block order. Pin
  /// num_shards explicitly when bitwise reproducibility across machines
  /// matters. Values above 64 are clamped (with a warning): the
  /// effective, clamped count is what keys the determinism contract and
  /// is reported in RuntimeStats::num_shards.
  size_t num_shards = 0;

  /// Worker pool shared by extraction fan-out and shard lanes. Typically
  /// the session pool (jobs and shards share it; ThreadPool::ParallelFor
  /// is cooperative, so each job's own thread is a guaranteed budget and
  /// idle capacity is divided first-come). When null and num_shards > 1,
  /// the engine spins up a transient pool for the call.
  ThreadPool* pool = nullptr;

  /// Hard limits (the paper enforces a 30-minute benchmark timeout).
  double time_budget_s = std::numeric_limits<double>::infinity();
  size_t max_blocks = std::numeric_limits<size_t>::max();

  /// Absolute completion deadline, checked at the same block boundaries
  /// as time_budget_s. The semantics differ: a budget-truncated run
  /// returns its partial scores as a normal result, while a run that
  /// crosses its deadline is reported via RuntimeStats::deadline_exceeded
  /// and surfaced by the serving layers as kDeadlineExceeded — callers
  /// with a deadline want a definitive outcome, not a silently partial
  /// table. steady_clock (never wall clock): deadlines cross hosts as
  /// relative remaining budgets, re-anchored on arrival (see
  /// server/wire.h), so clock skew cannot shrink or stretch them.
  /// time_point::max() = no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  /// Cooperative cancellation: checked between blocks, like the time
  /// budget. Set by JobHandle::Cancel() for async jobs; the engine stops
  /// and returns the partial scores accumulated so far.
  const std::atomic<bool>* cancel = nullptr;

  /// Live progress sink (not owned; may be shared with pollers on other
  /// threads). Set by the session scheduler for async jobs so
  /// JobHandle::Poll and the network serving layer report blocks
  /// completed / total planned while the run is in flight.
  ProgressCounter* progress = nullptr;

  /// Span sink for this run (util/trace.h) and the parent span new spans
  /// hang off. Local-only pointers, like cancel/progress: they never
  /// cross the wire (trace *ids* do, via the Submit/Assign frames) and
  /// never participate in request fingerprints — two jobs differing only
  /// in tracing dedup and cache-hit against each other. null = tracing
  /// off for this run (DB_SPAN sites cost one branch).
  Tracer* tracer = nullptr;
  uint64_t trace_parent_span = 0;
};

/// X-macro over every accumulated scalar field of RuntimeStats::Shard.
/// RuntimeStats::Shard::Accumulate is generated from this list, and a
/// static_assert in engine.cc pins sizeof(Shard) to the listed fields —
/// a new field that is not added here fails the build instead of being
/// silently dropped from accumulation.
#define DEEPBASE_RUNTIME_STATS_SHARD_FIELDS(X) \
  X(double, unit_extraction_s)                 \
  X(double, hyp_extraction_s)                  \
  X(double, inspection_s)                      \
  X(size_t, blocks_processed)                  \
  X(size_t, records_processed)

/// X-macro over every summed scalar field of RuntimeStats (everything
/// except `shards`, `num_shards`, and the three latched bools, which
/// have bespoke merge rules). Same drift guard as the Shard list.
#define DEEPBASE_RUNTIME_STATS_SCALAR_FIELDS(X) \
  X(double, unit_extraction_s)                  \
  X(double, hyp_extraction_s)                   \
  X(double, inspection_s)                       \
  X(double, merge_s)                            \
  X(double, worker_hop_s)                       \
  X(double, total_s)                            \
  X(size_t, blocks_processed)                   \
  X(size_t, records_processed)                  \
  X(size_t, blocks_total_planned)               \
  X(size_t, cache_hits)                         \
  X(size_t, cache_misses)                       \
  X(size_t, store_mem_hits)                     \
  X(size_t, store_disk_hits)                    \
  X(size_t, store_mmap_hits)                    \
  X(size_t, store_misses)                       \
  X(size_t, store_evictions)                    \
  X(size_t, store_evicted_bytes)                \
  X(size_t, store_bytes_written)                \
  X(size_t, store_hyp_mem_hits)                 \
  X(size_t, store_hyp_disk_hits)                \
  X(size_t, store_hyp_misses)                   \
  X(size_t, result_cache_hits)                  \
  X(size_t, result_cache_misses)                \
  X(size_t, dedup_hits)                         \
  X(size_t, scan_extractions)                   \
  X(size_t, scan_shared_hits)

/// \brief Engine instrumentation for the runtime-breakdown experiments
/// (Figure 8) and cache studies (Figure 9).
///
/// Concurrency: phase seconds are summed from per-lane accumulators (each
/// lane times its own work; no shared stopwatch), so under sharding they
/// are CPU-seconds that may exceed the wall-clock total_s.
/// blocks_processed counts each inspected block once per pass, on the
/// first lane that inspects it (a block inspected by both a shard lane
/// and the sequential lane counts once); a distributed run counts each
/// block on the owner of its shard only, so its counts equal a local
/// run's.
struct RuntimeStats {
  /// \brief One lane's runtime breakdown (see `shards`).
  struct Shard {
    double unit_extraction_s = 0;
    double hyp_extraction_s = 0;
    double inspection_s = 0;
    size_t blocks_processed = 0;
    size_t records_processed = 0;

    void Accumulate(const Shard& other);
  };

  double unit_extraction_s = 0;
  double hyp_extraction_s = 0;
  double inspection_s = 0;
  /// Time folding shard replicas back into the primary states — the
  /// in-process MergeReplicas pass, or the coordinator's cross-worker
  /// state merge for a distributed run. Kept out of inspection_s so the
  /// score phase reports pure block-scoring time.
  double merge_s = 0;
  /// Distributed runs only: dispatch-to-result time on the coordinator
  /// beyond what the worker spent executing — wire transfer, queueing on
  /// the worker, reassignment backoff. 0 for local runs.
  double worker_hop_s = 0;
  double total_s = 0;
  size_t blocks_processed = 0;
  size_t records_processed = 0;
  /// Planned block dispatches of the run (per-pass block count × passes,
  /// capped by max_blocks) — the denominator of a progress display.
  /// blocks_processed < blocks_total_planned means early stopping, a
  /// budget, or cancellation ended the run before the full sweep.
  size_t blocks_total_planned = 0;
  /// Per-lane breakdown: entries [0, num_shards) are the shard lanes; when
  /// non-mergeable or merged measures forced a sequential lane at
  /// num_shards > 1, one extra trailing entry carries it. Sequential runs
  /// have exactly one entry.
  std::vector<Shard> shards;
  /// Effective shard count of the run (resolved from
  /// InspectOptions::num_shards).
  size_t num_shards = 1;
  /// Hypothesis-behavior counters of this job, in (hypothesis, record)
  /// rows: rows copied from the hypothesis tier, and rows evaluated with
  /// HypothesisFn::Eval (live during block extraction, or to materialize
  /// the tier).
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Behavior-store counters for this inspection (the unified view of the
  /// former BehaviorStore::Stats — one counter set for the Figure 9 /
  /// store benchmarks instead of two). mem/disk hits count store reads
  /// that skipped live extraction; misses count materializations.
  size_t store_mem_hits = 0;
  size_t store_disk_hits = 0;
  /// Out-of-core reads: stored behaviors served as a read-only mmap of
  /// the v2 file payload because they exceed the memory tier's limit.
  size_t store_mmap_hits = 0;
  size_t store_misses = 0;
  size_t store_evictions = 0;
  /// Byte-valued store accounting (evictions above counts events; these
  /// report actual sizes — bytes freed by evictions and bytes written to
  /// disk including file framing).
  size_t store_evicted_bytes = 0;
  size_t store_bytes_written = 0;
  /// Hypothesis-tier store counters (HypothesisBehaviorKey entries), kept
  /// separate from the unit-tier store_* trio above.
  size_t store_hyp_mem_hits = 0;
  size_t store_hyp_disk_hits = 0;
  size_t store_hyp_misses = 0;
  /// Session result cache (InspectionSession scheduler): a hit means the
  /// engine never ran (blocks_processed == 0).
  size_t result_cache_hits = 0;
  size_t result_cache_misses = 0;
  /// In-flight dedup (scheduler): this job attached as a waiter on an
  /// identical running job and received its table — the engine never ran
  /// for it (blocks_processed == 0).
  size_t dedup_hits = 0;
  /// Shared-scan counters for fused job groups: blocks this job extracted
  /// itself vs blocks served from a co-scheduled job's extraction.
  size_t scan_extractions = 0;
  size_t scan_shared_hits = 0;
  /// True if every score converged before the data ran out.
  bool all_converged = false;
  /// True if the run was stopped by InspectOptions::cancel.
  bool cancelled = false;
  /// True if the run was stopped by InspectOptions::deadline. The table
  /// returned by Inspect() is partial; RunPlan converts this flag into a
  /// kDeadlineExceeded error so no caller above the raw engine ever
  /// mistakes the truncation for a complete result.
  bool deadline_exceeded = false;

  /// \brief Sum another run's counters/timings into this one (used when a
  /// statement fans out into several engine calls, e.g. SQL GROUP BY).
  void Accumulate(const RuntimeStats& other);
};

/// \brief Run Deep Neural Inspection (paper Def. 2 / deepbase.inspect()):
/// returns scores for every (unit group, hypothesis, measure) triple.
ResultTable Inspect(const std::vector<ModelSpec>& models,
                    const Dataset& dataset,
                    const std::vector<MeasureFactoryPtr>& scores,
                    const std::vector<HypothesisPtr>& hypotheses,
                    const InspectOptions& options = {},
                    RuntimeStats* stats = nullptr);

}  // namespace deepbase
