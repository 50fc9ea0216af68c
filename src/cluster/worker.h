// InspectionWorker: the worker half of the distributed inspection cluster
// (coordinator/worker scale-out over the wire protocol). A worker process
// wraps its own InspectionSession — catalog, engine, behavior store,
// thread pool — registers with the coordinator over one TCP connection,
// and executes block-range assignments:
//
//   sliced mode — run the request through BlockPipeline restricted to
//     shards [lo, hi) of the job's total shard count and stream back the
//     serialized partial measure states (Measure::SerializeState). The
//     block→shard map and per-shard consumption order are the in-process
//     ones, so a worker's shard-s state is bit-identical to the shard-s
//     replica a single-process run would have built.
//   whole mode — jobs with sequential-lane work (SGD measures, model
//     merging) cannot slice; the worker runs the full request through its
//     session and returns the serialized ResultTable.
//
// Determinism contract: the worker's catalog must be equivalent to the
// coordinator's (same names → same models/datasets/hypotheses). The
// coordinator pins the job's shard count S into every assignment, sliced
// and whole, so scores depend only on (shuffle seed, S) — never on worker
// count, arrival order, which worker ran which range, or the worker's own
// thread count.
//
// Threads: a reader (decodes coordinator frames; a frame type it does not
// handle follows the peer layer's one rule, net::AnswerUnexpected), an
// executor (runs one assignment at a time), and a heartbeat thread
// (liveness ticks plus absolute progress counters for the active
// assignment). All three write through one net::Conn, whose failed write
// shuts the socket down, so the reader sees EOF and stops the worker.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "server/net.h"
#include "server/wire.h"
#include "service/inspection_session.h"

namespace deepbase {
namespace cluster {

/// \brief Worker construction knobs.
struct WorkerConfig {
  /// Cluster-wide identity; empty = "worker-<pid>". Also the rendezvous
  /// name the coordinator places whole jobs on.
  std::string worker_id;
  std::string coordinator_host = "127.0.0.1";
  uint16_t coordinator_port = 0;
  /// Liveness tick cadence; the coordinator declares a worker dead after
  /// CoordinatorConfig::heartbeat_timeout_s without one.
  double heartbeat_interval_s = 0.1;
  /// Artificial pause before starting each assignment — a test hook that
  /// widens the window for mid-job failure injection (Kill()).
  double assignment_delay_s = 0;
};

/// \brief Worker-side counters.
struct WorkerStats {
  size_t assignments_received = 0;
  size_t assignments_completed = 0;  ///< result sent with OK status
  size_t assignments_failed = 0;     ///< result sent with error status
};

/// \brief One worker process's cluster client. The session is not owned
/// and must outlive the worker.
class InspectionWorker {
 public:
  InspectionWorker(InspectionSession* session, WorkerConfig config = {});
  /// Shuts down (gracefully) if still connected.
  ~InspectionWorker();

  InspectionWorker(const InspectionWorker&) = delete;
  InspectionWorker& operator=(const InspectionWorker&) = delete;

  /// \brief Connect to the coordinator, perform the kWorkerHello
  /// handshake, and start the reader/executor/heartbeat threads.
  /// kIOError on connect failure, kInvalid on a protocol-version or
  /// handshake mismatch.
  Status Connect();

  /// \brief Graceful stop: cancel the active assignment, close the
  /// connection, join all threads. Idempotent.
  void Shutdown();

  /// \brief Failure injection (tests): abruptly shut the socket down with
  /// no farewell — the process-level equivalent of SIGKILL as seen by the
  /// coordinator, which must detect the death via heartbeat/read failure
  /// and reassign this worker's in-flight range. The worker object stays
  /// destructible (Shutdown() still joins the threads).
  void Kill();

  const std::string& id() const { return config_.worker_id; }
  bool connected() const;

  WorkerStats stats() const;

 private:
  void ReaderLoop();
  void ExecutorLoop();
  void HeartbeatLoop();

  /// Run one sliced assignment through BlockPipeline::RestrictShards and
  /// serialize the partial states; any failure becomes the result status.
  /// `tracer` (nullable) collects the pipeline's spans under `parent_span`
  /// for cross-host stitching.
  wire::AssignResultWire RunSliced(const wire::AssignmentWire& assignment,
                                   ProgressCounter* progress, Tracer* tracer,
                                   uint64_t parent_span);
  /// Run one whole assignment through the session (full engine + filter)
  /// and serialize the ResultTable.
  wire::AssignResultWire RunWhole(const wire::AssignmentWire& assignment,
                                  ProgressCounter* progress, Tracer* tracer,
                                  uint64_t parent_span);

  InspectionSession* session_;
  WorkerConfig config_;

  std::shared_ptr<net::Conn> conn_;  ///< the coordinator connection
  std::thread reader_;
  std::thread executor_;
  std::thread heartbeat_;
  std::atomic<bool> running_{false};
  std::atomic<bool> closing_{false};
  std::atomic<bool> broken_{false};
  std::atomic<bool> cancel_{false};  ///< stops the active pipeline run

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<wire::AssignmentWire> queue_;
  /// Active assignment id (0 = idle) + its live counters, read by the
  /// heartbeat thread under mu_ so id and counters stay coherent.
  uint64_t active_assignment_ = 0;
  ProgressCounter progress_;
  WorkerStats stats_;
};

}  // namespace cluster
}  // namespace deepbase
