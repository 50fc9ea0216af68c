// ClusterCoordinator: the coordinator half of the distributed inspection
// cluster. It accepts worker registrations over the wire protocol
// through the peer layer's listener (server/net.h: it backs off on
// descriptor exhaustion and closes a worker's connection as soon as the
// worker leaves), installs itself as the session scheduler's engine
// (Scheduler::SetEngine with one EngineHook: run, dispatch decision,
// default shard count) — so every existing front door
// (InspectionSession::Submit/Inspect, the network InspectionServer, the
// SQL layer) transparently executes on the cluster while result caching,
// in-flight dedup, and admission control keep working — and runs each job
// as PlanDispatch decides (the same decision EXPLAIN renders through
// Scheduler::Probe):
//
//   local — requests with inline definitions cannot cross the wire and
//     run on the local engine.
//   sliced — jobs whose PipelinePlan is sliceable (core/block_pipeline.h:
//     materialized, every measure merges, no sequential-lane work) are
//     split into min(S, workers) contiguous shard ranges (partition.h),
//     one assignment per range. Workers return serialized partial measure
//     states; the coordinator deserializes and folds them in ascending
//     shard order, which equals the in-process merge order, pair by pair
//     in the plan's order, then builds the table with the engine's row
//     assembly (AppendScoreRows, ApplyHaving). Every mergeable measure
//     merges exactly (integer counts) or bit-exactly (pairwise-tree moment
//     sums), so tables are byte-identical at any worker count.
//   whole — jobs with sequential-lane work (SGD-trained measures, model
//     merging, streaming runs) are pinned to their rendezvous worker,
//     which runs the full request and returns the serialized ResultTable.
//
// Determinism: a job's shard count S is resolved once, when the job is
// planned (Scheduler::PlanJob: the request's num_shards, else
// total_shards), and travels pinned in every assignment's options — sliced
// and whole alike — so scores depend only on (shuffle seed, S), never on
// the worker count or a worker's thread count, and the shard partition
// only on (S, live worker count). The *same table* comes back however
// many workers share the work, and after a degrade to the local engine,
// which runs the same pinned S.
//
// Failure semantics: workers heartbeat; a missed-heartbeat or dead-socket
// worker leaves the registry and has its in-flight assignments reassigned
// to live workers with bounded attempts and doubling backoff. Duplicate
// results (a slow worker answering after its range was reassigned) are
// ignored — first result wins, and determinism makes both byte-identical
// anyway. When no live worker remains, or an assignment exhausts its
// attempts, the job fails with a typed kUnavailable status — unless
// degrade_to_local is set, in which case the coordinator falls back to the
// local engine (counted in stats().jobs_degraded_local); determinism makes
// the degraded table identical to the distributed one.
//
// Deadlines: a job's InspectOptions::deadline travels inside every
// assignment (encoded as a relative remaining budget, re-anchored on the
// worker — no cross-host clock trust) and clamps each assignment's
// completion watchdog, so a straggling or reassigned worker can never
// spend past the job's budget. A run whose deadline passes fails with
// kDeadlineExceeded (never degraded: the local engine would be just as
// late).

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/partition.h"
#include "server/net.h"
#include "server/wire.h"
#include "service/inspection_session.h"
#include "service/scheduler.h"

namespace deepbase {
namespace cluster {

/// \brief Coordinator construction knobs.
struct CoordinatorConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the bound port is reported by port().
  uint16_t port = 0;
  /// Shard count of session jobs that do not pin their own
  /// (InspectOptions::num_shards 0), pinned when they are planned. This is
  /// the determinism key: a job's scores depend on (seed, S), never on
  /// worker count.
  uint32_t total_shards = 8;
  /// A worker this long without a heartbeat is declared dead and its
  /// assignments are reassigned.
  double heartbeat_timeout_s = 2.0;
  /// Per-assignment completion watchdog; an assignment over this deadline
  /// is treated like a dead worker's (reassigned, attempts permitting).
  double assign_timeout_s = 120.0;
  /// Max delivery attempts per assignment (first send + reassignments)
  /// before the job fails with kUnavailable.
  int max_attempts = 3;
  /// Base reassignment backoff; doubles per attempt.
  double reassign_backoff_s = 0.02;
  size_t max_frame_bytes = wire::kDefaultMaxFrameBytes;
  /// When false, Start() does not hook the session scheduler (tests drive
  /// DistributedRun directly).
  bool install_engine = true;
  /// When true, a job that would fail kUnavailable (no live workers, or an
  /// assignment out of attempts) runs on the local engine instead —
  /// availability over scale-out. Deterministic jobs return the same table
  /// either way. Deadline and compile errors are never degraded.
  bool degrade_to_local = false;
};

/// \brief Coordinator counters.
struct CoordinatorStats {
  size_t workers_registered = 0;
  size_t workers_lost = 0;
  size_t assignments_sent = 0;  ///< including reassignment resends
  size_t assignments_completed = 0;
  size_t reassignments = 0;
  size_t duplicate_results = 0;  ///< late answers after first-result-wins
  size_t jobs_sliced = 0;
  size_t jobs_whole = 0;
  size_t jobs_local_fallback = 0;  ///< inline-pointer requests run locally
  size_t jobs_degraded_local = 0;  ///< kUnavailable rescued by local engine
  size_t jobs_failed = 0;
};

/// \brief The coordinator. The session is not owned and must outlive it;
/// call Shutdown() (or destroy the coordinator) before the session dies.
class ClusterCoordinator {
 public:
  explicit ClusterCoordinator(InspectionSession* session,
                              CoordinatorConfig config = {});
  ~ClusterCoordinator();

  ClusterCoordinator(const ClusterCoordinator&) = delete;
  ClusterCoordinator& operator=(const ClusterCoordinator&) = delete;

  /// \brief Bind + listen + start the accept/monitor threads, and (by
  /// default) install the cluster as the scheduler's engine.
  Status Start();

  /// \brief Restore the local engine, fail in-flight distributed runs
  /// with kUnavailable, disconnect all workers, join all threads.
  /// Idempotent.
  void Shutdown();

  uint16_t port() const { return listener_.port(); }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// \brief Live (heartbeating) workers, sorted by id.
  std::vector<std::string> worker_ids() const;
  size_t num_workers() const;

  CoordinatorStats stats() const;

  /// \brief The dispatch decision for a planned job over the workers live
  /// now: local fallback, no workers, sliced ranges of its plan's S, or
  /// the whole job's rendezvous worker. RunCompiled executes it; the
  /// engine hook returns it to EXPLAIN.
  ClusterDispatch PlanDispatch(const JobPlan& job) const;

  /// \brief Compile and plan one request against the session catalog (S:
  /// its num_shards, else total_shards) and execute it on the cluster
  /// (RunCompiled). Lets tests and benches drive the cluster without a
  /// session round-trip.
  Result<ResultTable> DistributedRun(const InspectRequest& request,
                                     const InspectOptions& default_options,
                                     RuntimeStats* stats);

 private:
  /// One registered worker, listed in workers_ from its kWorkerHelloOk
  /// until its reader exits.
  struct Worker {
    std::shared_ptr<net::Conn> conn;
    std::string id;
    uint32_t num_threads = 0;
    bool alive = false;  ///< guarded by coordinator mu_
    std::chrono::steady_clock::time_point last_heartbeat;  ///< mu_
  };

  /// One unit of distributed work inside one run. The same assignment id
  /// (and encoded payload) is reused across reassignment attempts, so a
  /// late answer from a presumed-dead worker is either the first result
  /// (accepted) or a duplicate of one (ignored) — never ambiguous.
  struct Assignment {
    uint64_t id = 0;
    uint32_t shard_lo = 0;
    std::string payload;  ///< encoded AssignmentWire
    std::string owner;    ///< current worker id ("" = awaiting dispatch)
    int attempts = 0;
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point retry_at;
    bool done = false;
    wire::AssignResultWire result;
    uint64_t live_blocks = 0;   ///< latest in-flight progress report
    uint64_t live_records = 0;
    /// Tracing: the dispatch span id baked into the payload (the worker
    /// parents its local root to it) and the local dispatch timeline —
    /// first send to done, the anchor for re-basing worker clocks.
    uint64_t dispatch_span = 0;
    int64_t dispatch_ns = 0;  ///< 0 until the first send
    int64_t done_ns = 0;      ///< 0 until the result lands
  };

  /// One DistributedRun in flight; guarded by coordinator mu_.
  struct RunState {
    std::vector<Assignment> assignments;
    bool failed = false;
    Status fail_status;
  };

  /// The reader of one accepted connection: the kWorkerHello handshake,
  /// then the worker's frames until it disconnects.
  void ServeWorker(const std::shared_ptr<net::Conn>& peer);
  void MonitorLoop();
  /// Mark dead under mu_ (idempotent) and wake waiting runs.
  void MarkWorkerDeadLocked(const std::shared_ptr<Worker>& worker);
  std::shared_ptr<Worker> FindWorkerLocked(const std::string& id) const;
  std::vector<std::shared_ptr<Worker>> LiveWorkersLocked() const;

  /// The engine hook's run: execute a planned job as PlanDispatch decides
  /// (local fallback and degradation RunPlan its pipeline). `plan` is
  /// job.compiled with the run's substrate, cancel, progress and tracer.
  Result<ResultTable> RunCompiled(const JobPlan& job, const InspectPlan& plan,
                                  RuntimeStats* stats);

  /// Merge a completed sliced run into the final table (ascending
  /// shard_lo = ascending shard id = the in-process merge order).
  Result<ResultTable> MergeSliced(const JobPlan& job, const RunState& run);

  InspectionSession* session_;
  CoordinatorConfig config_;

  std::thread monitor_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> closing_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool shutting_down_ = false;  ///< fails new/waiting runs (guarded by mu_)
  std::vector<std::shared_ptr<Worker>> workers_;
  uint64_t next_assignment_id_ = 1;
  uint64_t next_run_id_ = 1;
  std::map<uint64_t, std::shared_ptr<RunState>> active_runs_;
  /// assignment id → (owning run, index into its assignments).
  std::map<uint64_t, std::pair<std::shared_ptr<RunState>, size_t>>
      assignment_index_;
  CoordinatorStats stats_;

  /// Last: its reader threads use every member above.
  net::Listener listener_;
};

}  // namespace cluster
}  // namespace deepbase
