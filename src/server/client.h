// InspectionClient: the remote counterpart of InspectionSession. One TCP
// connection multiplexes any number of concurrent remote jobs; it offers
// the in-process facade's verbs, so code migrates by swapping the session
// for a client:
//
//   InspectionClient client({.host = "127.0.0.1", .port = port});
//   DB_CHECK_OK(client.Connect());
//   Result<RemoteJob> job = client.Submit(request, [](auto& p) {
//     printf("%llu/%llu blocks\n", p.blocks_completed, p.blocks_total);
//   });                                        // async + streamed progress
//   const Result<ResultTable>& table = job->Wait();
//   Result<ResultTable> direct = client.Inspect(request);   // blocking
//
// Progress events are pushed by the server as blocks complete (strictly
// increasing) and delivered on the client's reader thread; Poll() issues
// a synchronous RPC and reports exactly the numbers a local
// JobHandle::Poll would.
//
// Reconnect semantics: when `auto_reconnect` is set, a broken connection
// is re-established transparently before the next RPC (Connect + Hello,
// bounded attempts with backoff). Jobs in flight when the connection died
// are resubmitted on the new connection by a background worker under
// `resubmit_attempts` tries with jittered doubling backoff — safe because
// submissions are idempotent server-side (the request fingerprint lands in
// the scheduler's dedup/result cache), so handles resolve with the job's
// real result instead of kIOError. Only once the retry budget is spent
// (or resubmission is disabled with resubmit_attempts = 0) does a handle
// resolve with the transport error; Close() always fails whatever is
// still in flight.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/result_table.h"
#include "server/net.h"
#include "server/wire.h"
#include "service/inspection_session.h"

namespace deepbase {

/// \brief Client construction knobs.
struct ClientConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Transparently reconnect (Connect + Hello) before the next RPC when
  /// the connection is found broken.
  bool auto_reconnect = true;
  size_t reconnect_attempts = 3;
  double reconnect_backoff_s = 0.05;
  /// Per-RPC response deadline.
  double rpc_timeout_s = 60.0;
  /// In-flight jobs orphaned by a connection loss are re-submitted after
  /// the automatic reconnect, up to this many attempts per job with
  /// jittered doubling backoff (deterministically seeded per job). 0
  /// disables resubmission: orphaned handles resolve with kIOError as
  /// soon as the loss is detected. Ignored when auto_reconnect is off.
  size_t resubmit_attempts = 3;
  /// Base backoff between resubmission attempts; doubles per attempt,
  /// scaled by a uniform jitter in [0.5, 1.5).
  double resubmit_backoff_s = 0.05;
  size_t max_frame_bytes = wire::kDefaultMaxFrameBytes;
};

/// \brief Remote job progress as streamed/polled over the wire.
struct RemoteProgress {
  JobStatus status = JobStatus::kQueued;
  uint64_t blocks_completed = 0;
  uint64_t blocks_total = 0;
  uint64_t records_processed = 0;
};

namespace internal {
/// Shared state of one remote job; resolved by the reader thread when the
/// server pushes the final kResult frame (or the connection dies).
struct RemoteJobState {
  /// Atomic because a resubmission rewrites it while user threads may be
  /// calling RemoteJob::id()/Poll().
  std::atomic<uint64_t> server_job_id{0};
  uint64_t submit_request_id = 0;  ///< guarded by the client's mu_
  /// Encoded kSubmit payload, set once the server acked the submission;
  /// non-empty means the job can be replayed after a connection loss
  /// (guarded by mu).
  std::string submit_payload;
  /// True while the background worker owns this job's replay, so a second
  /// connection loss does not enqueue it twice (guarded by the client's
  /// mu_).
  bool resubmitting = false;
  std::function<void(const RemoteProgress&)> on_progress;  // reader thread
  mutable std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::optional<Result<ResultTable>> result;
  wire::ResultSummaryWire summary;
  RemoteProgress last_progress;  // most recent streamed event
};
}  // namespace internal

class InspectionClient;

/// \brief Handle to a job running on the server: the remote JobHandle.
/// Cheap to copy; members are safe from any thread. Valid only while the
/// owning InspectionClient is alive.
class RemoteJob {
 public:
  RemoteJob() = default;

  bool valid() const { return state_ != nullptr; }
  /// Server-assigned job id (the session's job id on the server).
  uint64_t id() const;

  /// \brief Synchronous progress RPC (blocks completed / total planned) —
  /// the same numbers a local JobHandle::Poll reports.
  Result<RemoteProgress> Poll();
  /// \brief Latest streamed progress event (no network round trip).
  RemoteProgress LastProgress() const;

  /// \brief Request cooperative cancellation on the server.
  Status Cancel();

  /// \brief Block until the server pushes the job's terminal result (or
  /// the connection dies, which resolves the job with kIOError).
  const Result<ResultTable>& Wait() const;
  bool Done() const;

  /// \brief Server-side run summary (valid once Done): blocks processed,
  /// dedup/result-cache/shared-scan hits, wall seconds — the end-to-end
  /// view of the scheduler's multi-query optimizations.
  wire::ResultSummaryWire Summary() const;

 private:
  friend class InspectionClient;
  RemoteJob(std::shared_ptr<internal::RemoteJobState> state,
            InspectionClient* client)
      : state_(std::move(state)), client_(client) {}

  std::shared_ptr<internal::RemoteJobState> state_;
  InspectionClient* client_ = nullptr;
};

/// \brief The client. Thread-safe: RPCs may be issued from any thread;
/// one reader thread demultiplexes responses and pushed events.
class InspectionClient {
 public:
  explicit InspectionClient(ClientConfig config);
  ~InspectionClient();

  InspectionClient(const InspectionClient&) = delete;
  InspectionClient& operator=(const InspectionClient&) = delete;

  /// \brief Connect + protocol handshake. Idempotent.
  Status Connect();
  void Close();
  bool connected() const;

  /// \brief Catalog version reported by the server at the last handshake.
  uint64_t server_catalog_version() const;

  /// \brief Submit an inspection; `on_progress` (optional) subscribes to
  /// streamed progress events, invoked on the reader thread as blocks
  /// complete. The request must be fully name-resolved (wire.h).
  Result<RemoteJob> Submit(const InspectRequest& request,
                           std::function<void(const RemoteProgress&)>
                               on_progress = nullptr);

  /// \brief Blocking convenience: Submit + Wait.
  Result<ResultTable> Inspect(const InspectRequest& request);

  /// \brief Explicit kWait RPC: ask the server for `job`'s terminal
  /// result (answered immediately when already done, parked server-side
  /// otherwise — subject to rpc_timeout_s). The passive RemoteJob::Wait()
  /// is usually what you want; this exists for re-asking after the
  /// automatic push was consumed and for protocol-level tooling.
  Result<ResultTable> WaitResult(const RemoteJob& job);

  /// \brief Upload a dataset into the server catalog under `name`.
  Status RegisterDataset(const std::string& name, const Dataset& dataset);
  /// \brief Register a named hypothesis set from declarative specs.
  Status RegisterHypotheses(const std::string& set_name,
                            const std::vector<wire::HypothesisSpec>& specs);

  /// \brief Server + scheduler counters (the over-the-wire observability
  /// used by the serving bench).
  Result<wire::ServerStatsWire> Stats();

  /// \brief Scrape the server's metrics registry: Prometheus text
  /// exposition by default, JSON when `json` is set.
  Result<std::string> Metrics(bool json = false);

  /// \brief EXPLAIN (dry run) or EXPLAIN ANALYZE (run + reconcile) of
  /// `request` on the server, rendered as the plan's text tree (or JSON).
  /// The request must be fully name-resolved — inline pointers cannot
  /// cross the wire.
  Result<std::string> Explain(const InspectRequest& request,
                              bool analyze = false, bool json = false);

  /// \brief Live system introspection dump (jobs in flight, cache/store
  /// occupancy, worker liveness, armed failpoints).
  Result<std::string> Statusz(bool json = false);

 private:
  friend class RemoteJob;

  struct PendingRpc {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    wire::Frame frame;
    Status transport = Status::OK();
    /// For kWait RPCs: the job whose terminal result the kResult response
    /// carries (the reader resolves it alongside the RPC).
    std::shared_ptr<internal::RemoteJobState> job;
  };

  /// Issue one RPC: frame out, matching response in (by request id).
  /// Reconnects + retries once when the connection is found broken and
  /// auto_reconnect is on.
  Result<wire::Frame> Call(wire::MsgType type, const std::string& payload);
  Result<wire::Frame> CallOnce(
      wire::MsgType type, const std::string& payload,
      bool* transport_failure,
      std::shared_ptr<internal::RemoteJobState> link_job = nullptr);
  /// Connect + Hello without the reconnect wrapper. Caller holds mu_.
  Status ConnectLocked();
  /// The bounded-attempt reconnect shared by Connect() and the resubmit
  /// worker; only the former clears an in-progress Close.
  Status ConnectInternal(bool reset_closing);
  void CloseLocked(const Status& reason);
  void ReaderLoop(const std::shared_ptr<net::Conn>& conn);
  /// Resolve every pending RPC and live job with `reason`.
  void FailAllLocked(const Status& reason);
  /// Background worker: drains orphans_, replaying each job on the
  /// reconnected connection under the resubmission budget.
  void ResubmitLoop();
  void ResubmitJob(const std::shared_ptr<internal::RemoteJobState>& job);
  static void ResolveJob(const std::shared_ptr<internal::RemoteJobState>& job,
                         Result<ResultTable> result,
                         const wire::ResultSummaryWire& summary);

  ClientConfig config_;
  mutable std::mutex mu_;
  /// The current connection (guarded by mu_). Senders copy it under mu_
  /// and send without mu_ held; net::Conn serializes whole frames and
  /// closes under its write mutex, so a reconnect never lets an in-flight
  /// write land on a recycled descriptor.
  std::shared_ptr<net::Conn> conn_;
  bool connected_ = false;
  uint64_t next_request_id_ = 1;
  uint64_t server_catalog_version_ = 0;
  std::thread reader_;
  std::map<uint64_t, std::shared_ptr<PendingRpc>> pending_;
  /// Live jobs by their submit request id (the demux key of pushed
  /// frames).
  std::map<uint64_t, std::shared_ptr<internal::RemoteJobState>> jobs_;
  /// Jobs orphaned by a connection loss, awaiting replay (guarded by
  /// mu_). The lazily-started resubmit worker drains this queue.
  std::deque<std::shared_ptr<internal::RemoteJobState>> orphans_;
  std::condition_variable resubmit_cv_;
  std::thread resubmit_;
  bool closing_ = false;  ///< guarded by mu_; stops the resubmit worker
};

}  // namespace deepbase
