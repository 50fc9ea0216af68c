// Multi-query scheduler: the layer between InspectionSession::Submit()
// and the engine (paper §1/§5 — DeepBase's systems contribution is
// multi-query optimization for inspection workloads: concurrent
// hypotheses over the same (model, dataset) share one extraction scan
// and reuse cached behaviors instead of re-running the model per query).
//
// Five mechanisms, stacked:
//
//   1. Result cache — completed inspections are cached by
//      (InspectRequest fingerprint, catalog version); an identical
//      re-submission is answered without invoking the engine at all
//      (0 blocks processed). Any catalog mutation bumps the version,
//      invalidates older entries, and — synchronously, via the catalog's
//      mutation listener — raises the cache's admission floor, so a
//      result computed under an old version can never be admitted after
//      the Register* that invalidated it (the stale-admission window).
//      Only fully catalog-resolved requests (models/dataset/hypotheses/
//      measures referenced by name, or an inline dataset, which is
//      content-fingerprinted) are cacheable; requests with inline
//      extractors or hypothesis/measure objects run every time.
//   2. Persistent tier — with a session store, admitted entries are also
//      serialized into the BehaviorStore's blob tier under
//      "cache:<fingerprint>:<catalog version>:<dataset fingerprint>"
//      (its own namespace + disk quota), so a restarted session answers
//      repeat queries with zero engine work. Lookups revalidate against
//      the live catalog version and dataset fingerprint by construction
//      (they are part of the key), and stale-version blobs are purged
//      when the catalog mutates. Caveat (the same name-identity contract
//      as the store's unit/hypothesis tiers, see engine.h): hypothesis
//      *functions* and model *weights* are arbitrary code and cannot be
//      content-fingerprinted, so across restarts their catalog names are
//      their identity — a changed hypothesis or retrained model must be
//      registered under a fresh name (or in a different registration
//      order, which changes the version), or disable persist_result_cache
//      for definitions that churn under fixed names.
//   3. In-flight dedup — identical requests that are in flight at the
//      same time share one run: one engine execution, whose ResultTable
//      every attached handle receives (bit-identical scores). Cancelling
//      a handle that shares its run detaches and resolves that handle
//      only; the run goes on for the others, without a restart.
//      Cancelling a run's last handle stops the run.
//   4. Shared-scan job batching — queued jobs are grouped by (model id
//      and resolved unit union per model, dataset fingerprint, scan-shaping
//      options) and their block extraction is fused through one
//      SharedScan, which keys blocks the same way: each block's
//      unit behaviors are extracted once and fanned out to every member
//      job's own measure set. Member jobs keep their own early stopping
//      and cancellation, and scores are bit-identical to isolated runs.
//   5. Admission control — per-tenant (SessionConfig) quotas on
//      concurrent jobs and queued extraction bytes; over-quota
//      submissions are rejected with kResourceExhausted instead of
//      queueing without bound.
//
// Admission. Submit() and Inspect() (RunSync) plan each request once:
// PlanJob compiles it (Catalog::Compile) and derives the JobPlan from the
// compiled plan. The JobPlan travels with the job through admission, the
// engine (local or the cluster's) and EXPLAIN; nothing re-resolves a
// catalog name. So a job runs the definitions of the catalog version it
// was admitted under — the version its cache and dedup key name — even
// when a Register* lands while it is queued. The first stage of the rule
// that decides wins:
//   0. compile — a request that does not compile is rejected with
//      Catalog::Compile's status;
//   1. deadline — an expired deadline rejects with kDeadlineExceeded (an
//      armed "scheduler.admit" failpoint rejects here too);
//   2. result cache — a cached result for (fingerprint, catalog version)
//      is served without the engine;
//   3. attach — a live run registered under (fingerprint, catalog
//      version) takes the request as one more handle, past the quotas (it
//      consumes no engine resources);
//   4. quota — max_concurrent_jobs, then max_queued_bytes (queued jobs
//      only), reject with kResourceExhausted;
//   5. new run — the job creates a run, registered for stage 3 when the
//      plan is dedupable, and runs the engine: on the session pool for
//      Submit(), on the caller's thread for Inspect().
// Every admitted job, sync or async, shared or not, resolves when its run
// does (or at once, when its handle is cancelled while others share the
// run). Every request counts once in deepbase_jobs_submitted_total and
// once in deepbase_jobs_total{status=...}, whichever stage decided it.
// Probe() applies the same rule for EXPLAIN against ResultCache::PeekTier
// and the live counters, and commits nothing.
// PlanJob also pins the job's shard count S into its options and plans
// its pipeline at S, so every reader of the JobPlan agrees on S.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/partition.h"
#include "core/block_pipeline.h"
#include "core/shared_scan.h"
#include "service/inspection_session.h"

namespace deepbase {

class BehaviorStore;

/// \brief Blob-tier key of one persisted result-cache entry.
std::string ResultCacheBlobKey(uint64_t fingerprint, uint64_t version,
                               uint64_t dataset_fingerprint);

/// \brief LRU-over-bytes cache of completed inspection results, keyed by
/// (request fingerprint, catalog version), with an optional persistent
/// tier through a BehaviorStore's "cache:" blob namespace. Thread-safe.
///
/// Stale-admission discipline (the Berkholz et al. rule: revalidate
/// against the update clock at admission, not only at lookup):
/// InvalidateBelow(v) both drops entries older than v and raises a
/// monotonic admission floor; Insert/Lookup reject versions below the
/// floor, so a result computed under catalog version V that finishes
/// after a Register* invalidated V is never admitted or served.
///
/// Persistent-tier I/O (blob read on a memory miss, blob write on
/// admission, directory purge on invalidation) runs under the cache
/// mutex by design: the floor check and the blob operation must be
/// atomic against a concurrent purge, or a racing Register* could sweep
/// the directory before a stale blob lands. The cost — concurrent
/// probes briefly serializing behind one disk read — is only paid on
/// memory-tier misses of store-backed sessions.
class ResultCache {
 public:
  /// \param store optional persistent tier (nullptr = memory only).
  ResultCache(size_t budget_bytes, BehaviorStore* store, bool persist)
      : budget_(budget_bytes), store_(store), persist_(persist && store) {}

  /// \brief Cached result for (fingerprint, version): memory tier first,
  /// then the persistent tier (re-admitted to memory on a hit). Counts
  /// hit/miss. `dataset_fingerprint` keys the persistent tier.
  std::optional<ResultTable> Lookup(uint64_t fingerprint, uint64_t version,
                                    uint64_t dataset_fingerprint);
  /// \brief Admit a completed result (replaces an existing entry) to both
  /// tiers. Rejected (counted in stale_rejections) when `version` is
  /// below the admission floor — i.e. the catalog has already moved on.
  void Insert(uint64_t fingerprint, uint64_t version,
              uint64_t dataset_fingerprint, ResultTable table);
  /// \brief Drop every entry older than `version` (both tiers) and raise
  /// the admission floor to `version`. No-op when the floor is already
  /// there, so per-request calls are cheap.
  void InvalidateBelow(uint64_t version);
  void Clear();

  /// \brief EXPLAIN's side-effect-free tier probe: "memory",
  /// "persistent", or "" (miss / below the admission floor). Unlike
  /// Lookup it counts nothing, never touches LRU order, and never
  /// re-admits a blob — a dry run leaves the cache byte-identical.
  std::string PeekTier(uint64_t fingerprint, uint64_t version,
                       uint64_t dataset_fingerprint) const;

  size_t hits() const;
  size_t misses() const;
  size_t evictions() const;
  size_t invalidations() const;
  /// \brief Entries admitted to / served from the persistent blob tier.
  size_t persistent_writes() const;
  size_t persistent_hits() const;
  /// \brief Insert attempts rejected because the catalog had already
  /// invalidated the entry's version (the closed stale-admission window).
  size_t stale_rejections() const;
  size_t bytes() const;
  size_t entries() const;

 private:
  struct Entry {
    uint64_t fingerprint = 0;
    uint64_t version = 0;
    size_t bytes = 0;
    ResultTable table;
  };

  void EraseLocked(std::list<Entry>::iterator it);
  void AdmitLocked(uint64_t fingerprint, uint64_t version, ResultTable table);

  const size_t budget_;
  BehaviorStore* const store_;
  const bool persist_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::map<std::pair<uint64_t, uint64_t>, std::list<Entry>::iterator> index_;
  /// Admission floor: entries below this catalog version are neither
  /// admitted nor served. Raised by InvalidateBelow, never lowered.
  uint64_t floor_version_ = 0;
  size_t bytes_ = 0;
  size_t hits_ = 0, misses_ = 0, evictions_ = 0, invalidations_ = 0;
  size_t persistent_writes_ = 0, persistent_hits_ = 0;
  size_t stale_rejections_ = 0;
};

/// X-macro over SchedulerStats' cumulative counters: the one list that
/// generates Accumulate and the drift guards in scheduler.cc. A counter
/// added to the struct but not here changes sizeof and trips the
/// static_assert instead of silently not accumulating. Keep the order in
/// sync with the struct declaration below.
#define DEEPBASE_SCHEDULER_STATS_COUNTER_FIELDS(X) \
  X(size_t, jobs_scheduled)                        \
  X(size_t, groups_formed)                         \
  X(size_t, jobs_coscheduled)                      \
  X(size_t, scan_extractions)                      \
  X(size_t, scan_shared_hits)                      \
  X(size_t, dedup_followers)                       \
  X(size_t, admission_rejections)                  \
  X(size_t, result_cache_hits)                     \
  X(size_t, result_cache_misses)                   \
  X(size_t, result_cache_evictions)                \
  X(size_t, result_cache_invalidations)            \
  X(size_t, result_cache_persistent_hits)          \
  X(size_t, result_cache_persistent_writes)        \
  X(size_t, result_cache_stale_rejections)

/// \brief Aggregate scheduler counters. Two kinds of field, kept apart so
/// polling stats() repeatedly stays additive: the top-level counters are
/// cumulative over the session (Accumulate sums them); `snapshot` holds
/// point-in-time gauges (current cache bytes/entries, in-flight jobs)
/// that are NOT additive — Accumulate keeps the most recent snapshot
/// instead of summing, so folding a stats poll into a running total never
/// double-counts bytes.
struct SchedulerStats {
  // Cumulative counters (monotonic; sum across polls/sessions).
  size_t jobs_scheduled = 0;    ///< Submit() + sync Inspect() requests
  size_t groups_formed = 0;     ///< distinct shared-scan groups created
  size_t jobs_coscheduled = 0;  ///< jobs that joined an existing group
  size_t scan_extractions = 0;  ///< blocks extracted across all groups
  size_t scan_shared_hits = 0;  ///< blocks served from a group's scan
  size_t dedup_followers = 0;   ///< submissions attached to a live run
  size_t admission_rejections = 0;  ///< submissions rejected over quota
  size_t result_cache_hits = 0;
  size_t result_cache_misses = 0;
  size_t result_cache_evictions = 0;
  size_t result_cache_invalidations = 0;
  size_t result_cache_persistent_hits = 0;
  size_t result_cache_persistent_writes = 0;
  size_t result_cache_stale_rejections = 0;

  /// Point-in-time gauges (NOT additive across polls).
  struct Snapshot {
    size_t result_cache_bytes = 0;
    size_t result_cache_entries = 0;
    size_t inflight_jobs = 0;  ///< registered (dedupable) runs right now
    size_t active_jobs = 0;    ///< queued + running engine jobs right now
    size_t queued_bytes = 0;   ///< estimated bytes awaiting execution
  } snapshot;

  /// \brief Fold another poll into this one: cumulative counters sum,
  /// `snapshot` takes `other`'s (most recent wins).
  void Accumulate(const SchedulerStats& other);
};

/// \brief One job's request, compiled and planned once (Scheduler::PlanJob),
/// and what the scheduler derives from it. Shared and immutable:
/// admission, the run that executes it and EXPLAIN all read it.
struct JobPlan {
  InspectRequest request;  ///< as submitted (the cluster ships it by name)
  /// Catalog::Compile's status; the fields below are set only when OK.
  Status status;
  /// options: the request's, else the defaults; num_shards pinned to S,
  /// the request's, else the default of the engine that runs the job.
  InspectPlan compiled;
  PipelinePlan pipeline;  ///< PlanPipeline at S
  /// Cache and dedup key (InspectRequestFingerprint of the pinned options,
  /// so early-stopping runs are keyed by S). nullopt for inline
  /// definitions, or when the result cache and dedup are both off.
  std::optional<uint64_t> fingerprint;
  bool deterministic = false;  ///< DeterministicOptions(options)
  bool cacheable = false;      ///< fingerprint && result cache enabled
  bool dedupable = false;      ///< fingerprint && dedup on && deterministic
  std::string group_key;       ///< BatchKeyFor (shared scan)
  /// Extraction footprint estimate, the unit of the queued-bytes quota.
  size_t queued_bytes = 0;
};

/// \brief How the installed engine dispatches one job: the verdict of
/// ClusterCoordinator::PlanDispatch, which its run executes and EXPLAIN
/// renders.
struct ClusterDispatch {
  enum class Mode {
    kNone,           ///< no coordinator installed: the local engine runs it
    kLocalFallback,  ///< inline definitions cannot cross the wire: local
    kNoWorkers,      ///< degrades to local, or fails kUnavailable
    kSliced,         ///< one assignment per contiguous shard range
    kWhole,          ///< one assignment on the rendezvous worker
  };
  Mode mode = Mode::kNone;
  bool degrade_to_local = false;
  std::vector<std::string> live_workers;  ///< sorted live worker ids
  /// One shard range per assignment, ascending: kSliced's split of the
  /// plan's [0, S), or kWhole's single [0, 1).
  std::vector<cluster::ShardRange> ranges;
  std::string worker;  ///< kWhole: the planned worker
};

/// \brief A replacement for the local engine: how the cluster coordinator
/// slots in — "a scheduler whose engine is remote". Result caching,
/// in-flight dedup, admission control and progress plumbing all keep
/// working around it.
struct EngineHook {
  /// S for jobs that pin none.
  size_t default_shards = 1;
  /// The dispatch decision for a planned job over the workers live now;
  /// its membership fields do not depend on the job.
  std::function<ClusterDispatch(const JobPlan& job)> dispatch;
  /// Run a planned job. `plan` is job.compiled with the session substrate,
  /// cancel, progress, shared scan and tracer attached to its options.
  std::function<Result<ResultTable>(const JobPlan& job,
                                    const InspectPlan& plan,
                                    RuntimeStats* stats)>
      run;
};

/// \brief The admission rule's verdict (see "Admission" above).
struct Admission {
  enum class Outcome {
    kRejected,  ///< `status` says why (compile, deadline, failpoint, quota)
    kCacheHit,  ///< served from the result cache, no engine run
    kWaiter,    ///< attached to the live run of an identical request
    kLeader,    ///< creates a run: executes the engine
  };
  Outcome outcome = Outcome::kLeader;
  Status status;           ///< kRejected only
  std::string cache_tier;  ///< Probe's kCacheHit: "memory" | "persistent"
};

/// \brief What Submit() would do with a request right now — the scheduler
/// half of an EXPLAIN plan (Scheduler::Probe): the request's JobPlan, the
/// admission verdict, the counters it was judged against, and the
/// installed engine's dispatch decision. Computing it moves no counter,
/// reorders no LRU, reads no blob and registers no job.
struct SchedulerProbe {
  std::shared_ptr<const JobPlan> plan;
  Admission admission;
  ClusterDispatch cluster;
  bool shared_scan_enabled = false;
  bool group_exists = false;  ///< a live group already has plan->group_key
  size_t active_jobs = 0;
  size_t queued_bytes = 0;
};

/// \brief The session's scheduler. Owned by InspectionSession; every
/// Submit()/Inspect() routes through it. Thread-safe.
class Scheduler {
 public:
  explicit Scheduler(InspectionSession* session);

  /// \brief Async path: admission, then a new run joins its shared-scan
  /// group and queues on the session pool. Rejected requests and cache
  /// hits return a handle that is already resolved. `trace_id` threads an
  /// externally minted trace id (the serving layer's Submit frame) into
  /// the job's Tracer; 0 mints a fresh id.
  JobHandle Submit(InspectRequest request, uint64_t trace_id = 0);
  /// \brief Submit a job already planned by Probe(): EXPLAIN ANALYZE runs
  /// the JobPlan it rendered instead of planning a second time.
  JobHandle Submit(std::shared_ptr<const JobPlan> plan, uint64_t trace_id = 0);
  /// \brief Sync path: the same admission, with a new run executed on
  /// the caller's thread (a caller attached to a live run waits for it).
  /// Sync jobs are untraced and not listed in Jobs().
  Result<ResultTable> RunSync(const InspectRequest& request,
                              RuntimeStats* stats);

  /// \brief Catalog mutation hook (wired by InspectionSession): raises
  /// the result cache's admission floor to `version` synchronously.
  void OnCatalogMutation(uint64_t version);

  /// \brief Install `hook` as the session's engine (ClusterCoordinator::
  /// Start); a hook without `run` restores the local engine. Jobs planned
  /// after the call take their default S from it, jobs that start after
  /// it run on it; every job keeps the S it was planned with.
  void SetEngine(EngineHook hook);

  /// \brief The installed engine's dispatch decision for `job` (mode kNone
  /// with the local engine).
  ClusterDispatch Dispatch(const JobPlan& job) const;

  /// \brief EXPLAIN's dry run of Submit(): the same plan and admission
  /// rule, committing nothing (see SchedulerProbe).
  SchedulerProbe Probe(const InspectRequest& request);

  SchedulerStats stats() const;
  ResultCache& result_cache() { return result_cache_; }
  /// \brief Shared-scan groups currently alive (fused jobs in flight).
  size_t active_groups() const;
  /// \brief Runs currently registered for dedup.
  size_t inflight_jobs() const;

 private:
  /// One job's membership in a shared-scan group.
  struct GroupHandle {
    std::string key;
    std::shared_ptr<SharedScan> scan;
    std::shared_ptr<SharedScanClient> client;
  };

  /// One engine execution and the handles attached to it: the job that
  /// created it, plus every identical request admitted while the run was
  /// registered. The run owns the cancel flag and the progress counter
  /// the engine reads; every handle's JobState reports that counter.
  struct Run {
    Run(std::shared_ptr<const JobPlan> job, bool sync_caller)
        : plan(std::move(job)), sync(sync_caller) {}
    const std::shared_ptr<const JobPlan> plan;
    /// Created by Inspect(): its caller holds no handle, so nothing sets
    /// `cancel`, and the engine observes the request's own flag and
    /// counter instead, when it carries them (see Execute).
    const bool sync;
    const std::shared_ptr<ProgressCounter> progress =
        std::make_shared<ProgressCounter>();
    /// Set by the last handle's Cancel(); the engine stops at a block
    /// boundary.
    std::atomic<bool> cancel{false};
    /// The job that created the run; every other handle counts a dedup
    /// hit. Set before the run is shared.
    std::shared_ptr<internal::JobState> creator;
    /// Handles not yet resolved, in attach order. The first one reports
    /// the run: it shows kRunning once the run has started, and gets the
    /// engine's stats and spans. When it detaches, the next takes over.
    /// Guarded by mu_, like `started`.
    std::vector<std::shared_ptr<internal::JobState>> handles;
    bool started = false;
  };

  /// One admission: who asks (set by Submit/RunSync) and what it got.
  struct Commit {
    /// The new job's identity, fixed before admission creates its state.
    bool listed = false;  ///< async jobs are listed in Jobs()
    std::shared_ptr<Tracer> tracer;
    uint64_t root_span = 0;
    int64_t submit_ns = 0;
    /// The admitted job, created by Admit once it has picked the counter
    /// the job reports: its run's, or a fresh one.
    std::shared_ptr<internal::JobState> state;
    std::optional<ResultTable> table;  ///< kCacheHit: the cached result
    std::shared_ptr<Run> run;  ///< kLeader: the new run; kWaiter: the live one
    size_t queued_bytes = 0;   ///< kLeader: bytes charged to the queue
  };

  /// Compile the request (the job's one Catalog::Compile), pin its shard
  /// count, plan its pipeline and derive the rest of its JobPlan.
  /// Read-only.
  std::shared_ptr<const JobPlan> PlanJob(InspectRequest request) const;
  /// The installed engine (null = the local engine).
  std::shared_ptr<const EngineHook> Engine() const;
  /// Submit()'s body: admit a planned job submitted at `submit_ns`.
  JobHandle Enqueue(std::shared_ptr<const JobPlan> plan, uint64_t trace_id,
                    int64_t submit_ns);
  /// The admission rule, in its one order (see "Admission" above). With
  /// `commit`, the verdict takes effect atomically: counters move, the
  /// cache lookup is counted, the job's state is created and attached to
  /// its run. Without it (Probe), the cache is peeked and nothing moves.
  /// `queued` = a new run would wait on the pool (Submit), so
  /// max_queued_bytes applies.
  Admission Admit(const std::shared_ptr<const JobPlan>& plan, bool queued,
                  Commit* commit);
  /// Create `commit`'s job state reporting `progress`, list it when the
  /// commit says so, and attach it to `run` (null: born terminal).
  void NewState(Commit* commit, std::shared_ptr<const ProgressCounter> progress,
                const std::shared_ptr<Run>& run);
  /// The quota verdict against the live counters; OK when within quota.
  Status QuotaLocked(const JobPlan& plan, bool queued) const;

  /// Join the shared-scan group `key` (nullopt when shared scans are off).
  std::optional<GroupHandle> AttachToGroup(const std::string& key);
  /// Fold the client's counters, detach, retire the group if empty.
  void ReleaseGroup(GroupHandle* group);
  /// Execute `run` on the calling thread (group already attached; the
  /// engine is skipped when the run was cancelled while queued), admit
  /// the result to the cache when eligible, and resolve every handle
  /// still attached, the first one with the engine's stats and spans.
  void Execute(const std::shared_ptr<Run>& run,
               std::optional<GroupHandle> group);
  /// Resolve a born-terminal job: a rejection or a result-cache hit.
  void ResolveBornTerminal(const Admission& admission, const JobPlan& plan,
                       Commit* commit);

  /// Terminal observability bookkeeping for one async job, exactly once:
  /// records the "sched.job" root span, counts deepbase_jobs_total
  /// {status=...} + the latency histogram, and emits the slow-job span
  /// tree when the wall time crossed SessionConfig::slow_job_threshold_s.
  /// `status` is "ok", "error", or "cancelled". Never call holding
  /// state->mu.
  void FinalizeJob(const std::shared_ptr<internal::JobState>& state,
                   const char* status);

  /// JobHandle::Cancel() of a job attached to `run`: detach and resolve
  /// it when other handles share the run (the next one takes over
  /// reporting the run), else stop the run, which then resolves it from
  /// what the engine observed. A no-op once the run has taken the handle
  /// to resolve.
  void CancelHandle(const std::shared_ptr<Run>& run,
                    const std::shared_ptr<internal::JobState>& state);
  /// Drop `run` from the dedup registry, if it is the registered one.
  void UnregisterLocked(const Run& run);

  void OnJobStarted(size_t queued_bytes);
  void OnJobFinished();

  InspectionSession* session_;
  ResultCache result_cache_;
  mutable std::mutex mu_;
  std::shared_ptr<const EngineHook> engine_;  // guarded by mu_
  std::map<std::string, std::shared_ptr<SharedScan>> groups_;
  /// Live dedupable runs by (fingerprint, catalog version).
  std::map<std::pair<uint64_t, uint64_t>, std::shared_ptr<Run>> runs_;
  size_t jobs_scheduled_ = 0;
  size_t groups_formed_ = 0;
  size_t jobs_coscheduled_ = 0;
  size_t scan_extractions_ = 0;
  size_t scan_shared_hits_ = 0;
  size_t dedup_followers_ = 0;
  size_t admission_rejections_ = 0;
  size_t active_jobs_ = 0;
  /// Jobs admitted but not yet picked up by a worker (the queued-bytes
  /// quota keys on these, never on running jobs).
  size_t queued_jobs_ = 0;
  size_t queued_bytes_ = 0;
};

}  // namespace deepbase
