// InspectionSession: the single front door for Deep Neural Inspection.
// A session owns the shared Catalog (models, hypothesis sets, datasets,
// measures), a BehaviorStore — disk-backed with a store_dir, else a
// memory-only one holding just the hypothesis-behavior tier — and a
// ThreadPool, and exposes the one inspect() verb of the paper both
// synchronously and as async jobs:
//
//   InspectionSession session({.store_dir = "/tmp/deepbase"});
//   session.catalog().RegisterModel("toy_lm", &extractor);
//   session.catalog().RegisterHypotheses("vowels", {is_vowel});
//   session.catalog().RegisterDataset("words", &dataset);
//
//   InspectRequest req;
//   req.models.push_back({.name = "toy_lm"});
//   req.hypothesis_sets = {"vowels"};
//   req.dataset_name = "words";
//   Result<ResultTable> r = session.Inspect(req);      // sync
//
//   JobHandle job = session.Submit(req);               // async
//   ... job.Poll() / job.Cancel() ...
//   const Result<ResultTable>& rr = job.Wait();
//
// Every frontend (InspectQuery, the textual INSPECT parser, SqlSession)
// compiles to an InspectRequest against the session's catalog, so results
// and the behavior store (with its hypothesis-behavior tier) are shared
// across all of them — the prerequisite for multi-tenant serving.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/behavior_store.h"
#include "core/catalog.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace deepbase {

/// \brief Session construction knobs.
struct SessionConfig {
  /// Default engine options for requests that don't carry their own.
  InspectOptions options;
  /// Worker threads for async jobs (0 = hardware concurrency).
  size_t num_threads = 0;
  /// Directory for the disk-backed behavior store; empty disables it.
  /// With a store, re-inspecting a (model, dataset) pair serves unit
  /// behaviors from memory/disk instead of re-running the model (§6.3).
  /// Store entries are keyed by (model_id, dataset fingerprint): register
  /// a retrained model under a fresh id (e.g. "lm@epoch6") so its stale
  /// behaviors, and the results computed from them, are never served.
  std::string store_dir;
  size_t store_memory_budget_bytes = 64ull << 20;
  /// Per-namespace memory-tier quotas for the store ("unit:" and "hyp:"
  /// keys); 0 = no quota beyond the global budget. Evicted entries stay
  /// on disk.
  size_t store_unit_quota_bytes = 0;
  size_t store_hyp_quota_bytes = 0;
  /// Storeless sessions only: budget, in floats, of the memory-only
  /// store that holds the hypothesis-behavior tier (Figure 9); 0 = no
  /// in-memory hypothesis cache (every job evaluates hypotheses live).
  /// A session with a store_dir keeps that tier in its own store.
  size_t hypothesis_cache_values = size_t{1} << 26;

  // --- Multi-query scheduler (service/scheduler.h). ---
  /// Completed results are cached by (request fingerprint, catalog
  /// version) and identical re-submissions skip the engine entirely.
  bool enable_result_cache = true;
  size_t result_cache_budget_bytes = 8ull << 20;
  /// Concurrent jobs over one (model, dataset) fuse their block
  /// extraction through a SharedScan (one extraction pass per group).
  bool enable_shared_scan = true;
  /// Bytes of extracted blocks a fused group may keep in flight; blocks
  /// over budget are re-extracted per job instead of cached.
  size_t shared_scan_budget_bytes = 128ull << 20;

  /// In-flight dedup: an identical concurrent Submit()/Inspect() (same
  /// request fingerprint, same catalog version) attaches to the live run
  /// and receives its ResultTable — one extraction pass, one measure run,
  /// bit-identical scores. Cancelling a handle that shares its run
  /// resolves that handle only and the run goes on; cancelling the run's
  /// last handle stops the run.
  bool enable_inflight_dedup = true;

  /// Persist result-cache entries through the behavior store's blob tier
  /// ("cache:" namespace), keyed by (fingerprint, catalog version,
  /// dataset fingerprint), so a restarted session answers repeat queries
  /// with zero engine work. Requires store_dir; entries are revalidated
  /// against the current catalog version at load time, and stale versions
  /// are purged when the catalog mutates. A model is identified by its
  /// name and its extractor's model id (as the unit tier keys it), so a
  /// retrained model registered under its old name with a fresh id misses.
  /// Caveat: across restarts, hypothesis and measure *names* are their
  /// identity, and so is a model id (functions and weights cannot be
  /// content-fingerprinted — the store tiers' existing contract); register
  /// changed definitions under fresh names or ids, or disable this flag
  /// when definitions churn under fixed ones.
  bool persist_result_cache = true;
  /// On-disk byte quota for the "cache:" blob namespace (0 = unlimited).
  size_t result_cache_disk_quota_bytes = 32ull << 20;

  // --- Admission control (per-tenant quotas; this session is the
  // tenant). Over-quota submissions are rejected with a typed
  // kResourceExhausted status instead of queueing without bound. Result
  // cache hits and requests that attach to a live run consume no engine
  // resources and are always admitted.
  /// Max jobs queued or running at once (0 = unlimited).
  size_t max_concurrent_jobs = 0;
  /// Max estimated bytes of extraction work sitting in the queue
  /// (0 = unlimited). A submission that would overflow a non-empty queue
  /// is rejected; the first job in an empty queue is always admitted so
  /// the session cannot wedge.
  size_t max_queued_bytes = 0;

  // --- Observability (util/trace.h, util/metrics.h). ---
  /// Per-job span tracing: every async job gets a Tracer whose spans
  /// (scheduler queue, engine phases, cluster hops) are readable through
  /// JobHandle::TraceSpans(). A runtime switch.
  bool enable_tracing = true;
  /// Span ring capacity per job (oldest spans drop beyond this).
  size_t trace_ring_capacity = 256;
  /// Jobs whose submit→terminal wall time exceeds this log their full
  /// span tree (one structured line per span, level Warn) exactly once
  /// and count into deepbase_slow_jobs_total. 0 disables the slow-job
  /// log.
  double slow_job_threshold_s = 0;
};

/// \brief Lifecycle of an async inspection job.
enum class JobStatus { kQueued, kRunning, kDone, kCancelled };

/// \brief Snapshot of a job's live progress (JobHandle::Poll overload).
/// `blocks_total` is the engine's planned dispatch count — 0 until the
/// block loop has planned (and forever, for result-cache hits and
/// rejections, which no run serves). Every handle of a shared run reports
/// that run's counters. Early stopping may complete a job below
/// `blocks_total`. The network serving layer streams exactly these
/// numbers, so local and remote polling always agree.
struct JobProgress {
  JobStatus status = JobStatus::kQueued;
  uint64_t blocks_completed = 0;
  uint64_t blocks_total = 0;
  uint64_t records_processed = 0;
};

namespace internal {
struct JobState {
  explicit JobState(std::shared_ptr<const ProgressCounter> counter)
      : progress(std::move(counter)) {}

  uint64_t id = 0;
  mutable std::mutex mu;
  std::condition_variable cv;
  JobStatus status = JobStatus::kQueued;
  std::optional<Result<ResultTable>> result;
  RuntimeStats stats;
  /// Live engine progress of the run this job reports: set when the state
  /// is created, after admission picked the run, and never changed, so
  /// Poll reads it without the lock. Every handle of a shared run holds
  /// the run's counter; a job no run serves holds a fresh one. Never null.
  const std::shared_ptr<const ProgressCounter> progress;
  /// Run by JobHandle::Cancel() (read under mu, run outside it). The
  /// scheduler installs it on every job attached to a run: it detaches the
  /// job when others share the run, else stops the run. Cleared (under
  /// mu) when the job reaches a terminal state.
  std::function<void()> on_cancel;

  // --- Observability. tracer, root_span and submit_ns are set when the
  // scheduler creates the state and never change; the Tracer is
  // internally synchronized; queue_s is guarded by mu.
  std::shared_ptr<Tracer> tracer;  ///< null = tracing off for this job
  uint64_t root_span = 0;          ///< span id of the "sched.job" root
  int64_t submit_ns = 0;           ///< TraceNowNs() at submission
  double queue_s = 0;              ///< admission → execution start
  /// Terminal bookkeeping (root span, job metrics, slow-job log) already
  /// ran — it must run exactly once per job.
  bool finalized = false;
};
}  // namespace internal

/// \brief Critical-path breakdown of one finished job: where its wall
/// time went, phase by phase. extract/score are CPU-second sums across
/// lanes (== wall on one core); wire_s is filled by the serving layer
/// for remote jobs and stays 0 locally; worker_hop_s is the distributed
/// dispatch overhead beyond worker compute.
struct JobSummary {
  uint64_t trace_id = 0;
  double queue_s = 0;       ///< admission → execution start
  double extract_s = 0;     ///< unit + hypothesis extraction
  double score_s = 0;       ///< measure inspection
  double merge_s = 0;       ///< replica / coordinator merge
  double wire_s = 0;        ///< serialization + socket writes (remote)
  double worker_hop_s = 0;  ///< cluster dispatch beyond worker run time
  double total_s = 0;       ///< engine wall clock
};

/// \brief Shared handle to an async job submitted via
/// InspectionSession::Submit. Cheap to copy; all members are safe to call
/// from any thread.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return state_ != nullptr; }
  uint64_t id() const;

  /// \brief Non-blocking status probe.
  JobStatus Poll() const;
  /// \brief Non-blocking status + progress probe: blocks completed /
  /// total planned (live while running, final once done), the same
  /// numbers the serving layer streams to remote clients.
  JobStatus Poll(JobProgress* progress) const;
  bool Done() const;

  /// \brief Block until the job finishes (or is cancelled) and return its
  /// result. Cancelled jobs yield Status kCancelled.
  const Result<ResultTable>& Wait() const;

  /// \brief Request cooperative cancellation. A job that shares its run
  /// with other handles resolves as cancelled at once, and the run goes
  /// on for them. Otherwise a queued job is dropped and a running one
  /// stops at the next block boundary (the same plumbing as
  /// InspectOptions::time_budget_s / max_blocks).
  void Cancel();

  /// \brief Per-job engine stats; complete once Done().
  RuntimeStats Stats() const;

  /// \brief Critical-path phase breakdown; complete once Done().
  JobSummary Summary() const;

  /// \brief Snapshot of the job's recorded trace spans (empty when
  /// tracing is disabled). Ordered by start time; safe while running.
  std::vector<TraceSpan> TraceSpans() const;

 private:
  friend class InspectionSession;
  friend class Scheduler;
  explicit JobHandle(std::shared_ptr<internal::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::JobState> state_;
};

class InspectQuery;
class Scheduler;
struct InspectionPlan;

/// \brief The facade. Thread-safe: Submit/Inspect may be called
/// concurrently; jobs share the catalog, the behavior store tiers, the
/// result cache, and the multi-query scheduler's shared scans.
class InspectionSession {
 public:
  explicit InspectionSession(SessionConfig config = {});
  /// Waits for all outstanding jobs.
  ~InspectionSession();

  InspectionSession(const InspectionSession&) = delete;
  InspectionSession& operator=(const InspectionSession&) = delete;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  /// \brief The catalog's monotonic mutation counter (bumped by every
  /// Register*). Keys the result cache; handy for debugging staleness.
  uint64_t catalog_version() const;

  /// \brief The multi-query scheduler every Inspect()/Submit() routes
  /// through (result cache, shared-scan job batching; see
  /// service/scheduler.h for its stats and knobs).
  Scheduler& scheduler() { return *scheduler_; }
  const Scheduler& scheduler() const { return *scheduler_; }

  /// \brief Session-default engine options (used by requests without their
  /// own). Mutate between queries, not concurrently with running jobs.
  InspectOptions* mutable_default_options() { return &config_.options; }
  const InspectOptions& default_options() const { return config_.options; }

  /// \brief The session's behavior store (nullptr when store_dir was
  /// empty).
  BehaviorStore* store() { return store_.get(); }
  /// \brief The store whose hyp: tier caches hypothesis behaviors: store()
  /// when there is one, else the memory-only store (nullptr when
  /// hypothesis_cache_values is 0).
  BehaviorStore* hypothesis_store() {
    return store_ != nullptr ? store_.get() : hyp_store_.get();
  }
  /// \brief The async worker pool, created lazily by the first Submit()
  /// (sync-only sessions never spawn threads).
  ThreadPool* thread_pool() { return EnsurePool(); }

  /// \brief Attach the session substrate to a job's options where unset:
  /// the behavior store, the hypothesis store and, for jobs that shard
  /// their block loop (num_shards != 1), the session pool — shared
  /// fairly, as ParallelFor is cooperative. The scheduler and cluster
  /// workers both run jobs through it.
  void AttachSubstrate(InspectOptions* options);

  /// \brief Synchronous inspection: compile against the catalog, serve
  /// behaviors through the session store tiers, run the engine.
  Result<ResultTable> Inspect(const InspectRequest& request,
                              RuntimeStats* stats = nullptr);
  /// \brief Convenience: run a fluent-builder query through the session.
  Result<ResultTable> Inspect(const InspectQuery& query,
                              RuntimeStats* stats = nullptr);

  /// \brief Asynchronous inspection: enqueue on the session pool and
  /// return a handle with Poll()/Wait()/Cancel() and per-job stats.
  /// Inline pointers inside the request (extractors, datasets) must stay
  /// valid until the job completes.
  JobHandle Submit(InspectRequest request);
  JobHandle Submit(const InspectQuery& query);
  /// \brief Submit under an externally assigned trace id (the serving
  /// layer's path: the client mints the id, the server adopts it, so one
  /// id names the job on both sides of the wire). trace_id == 0 mints a
  /// fresh id.
  JobHandle Submit(InspectRequest request, uint64_t trace_id);

  /// \brief Handles of all jobs ever submitted (newest last).
  std::vector<JobHandle> Jobs() const;

  // --- EXPLAIN / EXPLAIN ANALYZE (service/explain.h; defined in
  // explain.cc). Explain() is a pure dry run: it renders the plan the
  // scheduler/cluster/store would execute without running a single block
  // or mutating any cache/counter. ExplainAnalyze() submits the JobPlan it
  // rendered, waits, and annotates every plan node with actual phase
  // seconds and counters, flagging plan-vs-actual divergences.
  Result<InspectionPlan> Explain(const InspectRequest& request);
  Result<InspectionPlan> ExplainAnalyze(const InspectRequest& request);

 private:
  friend class Scheduler;

  /// Create the worker pool on first use.
  ThreadPool* EnsurePool();
  /// Give a new job's state the next job id and list it in Jobs().
  void ListJob(const std::shared_ptr<internal::JobState>& state);

  SessionConfig config_;
  Catalog catalog_;
  std::unique_ptr<BehaviorStore> store_;
  /// Storeless sessions' memory-only hypothesis tier.
  std::unique_ptr<BehaviorStore> hyp_store_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Scheduler> scheduler_;

  mutable std::mutex jobs_mu_;
  uint64_t next_job_id_ = 1;
  std::vector<std::shared_ptr<internal::JobState>> jobs_;
};

}  // namespace deepbase
