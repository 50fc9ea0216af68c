// InspectionServer: the network serving layer. A TCP listener multiplexes
// many remote clients onto one shared InspectionSession, so every
// scheduler optimization built for in-process multi-query workloads —
// shared-scan batching, the result cache (memory + persistent tiers),
// in-flight dedup, admission control — now pays off *across* clients:
// four users submitting the same query over four sockets cost one engine
// run, exactly as four threads in one process do (the DeepBase
// multi-tenant scenario, paper §1/§5).
//
// Threading model (one session, many sockets):
//   - one accept thread
//   - per connection: a reader thread (decodes frames, dispatches
//     requests, sends the direct responses) and a watcher thread (polls
//     the connection's jobs, pushes kEventProgress frames as blocks
//     complete and the final kResult frame exactly once per job)
//   - all frames on one socket are serialized by a per-connection write
//     mutex; per-connection job state by a per-connection state mutex
//
// Backpressure & lifecycle:
//   - session admission quotas (SessionConfig::max_concurrent_jobs /
//     max_queued_bytes) surface to clients as protocol-level
//     RESOURCE_EXHAUSTED errors on Submit
//   - client disconnect cancels that connection's unfinished jobs (the
//     session's cooperative cancellation; dedup waiters detach without
//     disturbing the leader)
//   - Shutdown() drains gracefully: the listener closes, new submits are
//     rejected (RESOURCE_EXHAUSTED, "draining"), in-flight jobs run to
//     completion and their results are delivered, then connections close

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/wire.h"
#include "service/inspection_session.h"

namespace deepbase {

/// \brief Server construction knobs.
struct ServerConfig {
  /// Bind address; the default serves loopback only (the safe default for
  /// a process with no authentication layer).
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the bound port is reported by port().
  uint16_t port = 0;
  int listen_backlog = 64;
  /// Connections above this are refused with RESOURCE_EXHAUSTED.
  size_t max_connections = 256;
  /// Frames above this are rejected as malformed.
  size_t max_frame_bytes = wire::kDefaultMaxFrameBytes;
  /// Watcher poll cadence for progress events; events are sent only when
  /// the block counter advanced, so a small interval costs little.
  double progress_poll_s = 0.002;
  /// Completed jobs retained per connection for late Poll/Wait
  /// re-delivery; beyond this the oldest delivered entries (and their
  /// pinned ResultTables) are dropped and late probes get NotFound.
  /// 0 = retain everything (unbounded memory on long-lived clients).
  size_t retained_results = 64;
  /// Allow RegisterDataset / RegisterHypotheses from clients. Off turns
  /// the server into a read-only query endpoint over the host-registered
  /// catalog.
  bool allow_remote_register = true;
};

/// \brief Serving-layer counters (scheduler counters travel separately,
/// via the Stats RPC's ServerStatsWire).
struct ServerStats {
  size_t connections_accepted = 0;
  size_t connections_active = 0;
  size_t connections_refused = 0;
  size_t frames_received = 0;
  size_t frames_sent = 0;
  size_t protocol_errors = 0;
  size_t submits = 0;
  size_t submits_rejected_draining = 0;
  size_t progress_events_sent = 0;
  size_t results_sent = 0;
};

/// \brief The serving layer. Owns no inspection state beyond per-client
/// bookkeeping: catalog, store, caches, and the scheduler all live in the
/// shared InspectionSession (not owned; must outlive the server).
class InspectionServer {
 public:
  explicit InspectionServer(InspectionSession* session,
                            ServerConfig config = {});
  /// Shuts down (gracefully) if still running.
  ~InspectionServer();

  InspectionServer(const InspectionServer&) = delete;
  InspectionServer& operator=(const InspectionServer&) = delete;

  /// \brief Bind + listen + start the accept loop. kIOError when the
  /// address cannot be bound.
  Status Start();

  /// \brief Graceful drain: stop accepting, reject new submits, let every
  /// in-flight job finish and deliver its result, then close all
  /// connections and join all threads. Idempotent; safe from any thread
  /// except a connection's own reader/watcher.
  void Shutdown();

  /// \brief The bound TCP port (valid after Start()).
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  ServerStats stats() const;

 private:
  /// One submitted job as seen by one connection.
  struct TrackedJob {
    JobHandle handle;
    uint64_t submit_request_id = 0;
    bool want_progress = false;
    /// kSubmitOk sent — the watcher must not push frames for a job the
    /// client has not been told about yet (response ordering contract).
    bool announced = false;
    uint64_t last_progress_sent = 0;
    bool result_sent = false;
    /// kWait request ids parked until the result is ready.
    std::vector<uint64_t> pending_waits;
  };

  struct Connection {
    int fd = -1;
    std::thread reader;
    std::thread watcher;
    std::mutex write_mu;  ///< serializes frames onto the socket
    std::mutex mu;        ///< guards jobs / closing / broken
    std::condition_variable cv;
    std::map<uint64_t, TrackedJob> jobs;  ///< by session job id
    /// Submit frames currently being dispatched on the reader thread.
    /// The graceful drain waits on this too, so a Submit that passed the
    /// draining check but has not yet registered its job cannot be torn
    /// down mid-flight.
    size_t submits_in_progress = 0;
    /// Result deliveries claimed (TrackedJob::result_sent) but not yet
    /// written. The drain waits on these as well: a result is claimed
    /// under mu and written outside it, and tearing the socket down in
    /// between would drop a result the drain already counts as sent.
    size_t deliveries_in_progress = 0;
    bool closing = false;
    bool broken = false;  ///< a send failed; stop pushing
  };

  void AcceptLoop();
  void ServeConnection(const std::shared_ptr<Connection>& conn);
  void WatchConnection(const std::shared_ptr<Connection>& conn);
  /// Join the reader threads of connections already torn down by their
  /// own reader (client-initiated hangups). Called from the accept loop
  /// and Shutdown so dead connections don't accumulate thread handles.
  void ReapZombies();
  /// Dispatch one decoded frame; returns false when the connection must
  /// close (protocol violation that loses stream sync).
  bool HandleFrame(const std::shared_ptr<Connection>& conn,
                   const wire::Frame& frame);

  void HandleSubmit(const std::shared_ptr<Connection>& conn,
                    const wire::Frame& frame);
  void HandleSubmitImpl(const std::shared_ptr<Connection>& conn,
                        const wire::Frame& frame);
  void HandleRegisterDataset(const std::shared_ptr<Connection>& conn,
                             const wire::Frame& frame);
  void HandleRegisterHypotheses(const std::shared_ptr<Connection>& conn,
                                const wire::Frame& frame);

  /// Send one frame on the connection (write-mutex serialized); marks the
  /// connection broken on failure.
  void Send(const std::shared_ptr<Connection>& conn, wire::MsgType type,
            uint64_t request_id, const std::string& payload);
  void SendError(const std::shared_ptr<Connection>& conn,
                 uint64_t request_id, const Status& status);

  /// Serialized kResult payload for a finished job's handle. Callers
  /// must not hold conn->mu: result tables can be large, and request
  /// dispatch must not stall behind their serialization.
  std::string ResultPayload(const JobHandle& handle) const;

  InspectionSession* session_;
  ServerConfig config_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> closing_{false};

  mutable std::mutex conns_mu_;
  /// Live connections. Cleanup ownership is decided by presence here
  /// (under conns_mu_): a reader that finds its connection in the list
  /// removes it and reclaims watcher/fd/jobs itself (moving into
  /// zombies_ for its own thread handle); Shutdown swaps the list out
  /// and reclaims whatever is left.
  std::vector<std::shared_ptr<Connection>> conns_;
  /// Torn-down connections whose reader threads still need joining.
  std::vector<std::shared_ptr<Connection>> zombies_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace deepbase
