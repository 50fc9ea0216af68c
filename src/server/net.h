// The TCP peer layer: the only code in src/ that touches a socket. The
// inspection server, its client, the cluster coordinator and its workers
// listen, accept, dial and send wire frames (wire.h) through it, so a fix
// here reaches every peer.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/wire.h"
#include "util/status.h"

namespace deepbase {
namespace net {

/// \brief One framed TCP connection. Any thread may Send; its one reader
/// thread calls Read.
class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// \brief Write one whole frame under the write mutex. A failed write
  /// shuts the socket down: a connection that cannot be written to is
  /// dead, so both readers see EOF and their owners' normal teardown runs.
  Status Send(wire::MsgType type, uint64_t request_id,
              const std::string& payload);
  /// \brief Send a kError frame carrying `status`.
  Status SendError(uint64_t request_id, const Status& status);
  /// \brief Blocking read of the next frame; never concurrent with Close.
  Status Read(wire::Frame* frame,
              size_t max_frame_bytes = wire::kDefaultMaxFrameBytes) const;
  /// \brief Shut both directions down, unblocking a parked Read or Send.
  void Shutdown();
  /// \brief Shut down, then close the descriptor under the write mutex,
  /// so no concurrent Send can land on a number the kernel reuses.
  void Close();

 private:
  std::mutex write_mu_;
  std::mutex fd_mu_;  ///< orders Shutdown against Close
  int fd_;
};

/// \brief The one rule for a frame type its receiver does not handle: a
/// kError is dropped (an answer would be answered in turn, forever); any
/// other type is answered with kNotImplemented for its request id and the
/// connection stays up. True when an answer went out.
bool AnswerUnexpected(Conn* conn, const wire::Frame& frame);

/// \brief Connect and run the dialer's half of the handshake before its
/// reader starts: send `hello` (request id 0) and read the one reply. A
/// kError reply fails with the status it carries, any type but `ack` with
/// kDataLoss; on success `*ack_payload` holds the ack's payload.
Result<std::shared_ptr<Conn>> Dial(
    const std::string& host, uint16_t port, wire::MsgType hello,
    const std::string& hello_payload, wire::MsgType ack,
    std::string* ack_payload,
    size_t max_frame_bytes = wire::kDefaultMaxFrameBytes);

/// \brief A listening socket and the connections it accepted. Each
/// connection runs `serve` on its own reader thread; once `serve` returns,
/// the reader closes the connection and its thread is joined before the
/// next accept (or by Stop).
class Listener {
 public:
  using Serve = std::function<void(const std::shared_ptr<Conn>&)>;

  Listener() = default;
  ~Listener() { Stop(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// \brief Bind and listen, then start the accept loop, which retries
  /// transient errors and backs off 10 ms on descriptor exhaustion.
  Status Start(const std::string& bind_address, uint16_t port, Serve serve);
  uint16_t port() const { return port_; }
  /// \brief Stop accepting; live connections keep being served.
  void StopAccepting();
  /// \brief StopAccepting, then shut every live connection down and join
  /// its reader. Idempotent.
  void Stop();

 private:
  struct Entry {
    std::shared_ptr<Conn> conn;
    std::thread reader;
    bool finished = false;  ///< guarded by mu_
  };

  void AcceptLoop();

  Serve serve_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::mutex mu_;
  std::vector<std::shared_ptr<Entry>> entries_;  ///< guarded by mu_
  std::thread accept_thread_;
};

}  // namespace net
}  // namespace deepbase
