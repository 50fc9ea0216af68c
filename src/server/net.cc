#include "server/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace deepbase {
namespace net {

namespace {

constexpr int kListenBacklog = 64;

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Status Conn::Send(wire::MsgType type, uint64_t request_id,
                  const std::string& payload) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (fd_ < 0) return Status::IOError("connection closed");
  const Status st = wire::WriteFrame(fd_, type, request_id, payload);
  if (!st.ok()) {
    std::lock_guard<std::mutex> fd_lock(fd_mu_);
    ::shutdown(fd_, SHUT_RDWR);
  }
  return st;
}

Status Conn::SendError(uint64_t request_id, const Status& status) {
  wire::Writer w;
  wire::EncodeStatus(status, &w);
  return Send(wire::MsgType::kError, request_id, w.bytes());
}

Status Conn::Read(wire::Frame* frame, size_t max_frame_bytes) const {
  return wire::ReadFrame(fd_, frame, max_frame_bytes);
}

void Conn::Shutdown() {
  std::lock_guard<std::mutex> lock(fd_mu_);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Conn::Close() {
  Shutdown();  // a Send blocked on a full buffer returns the write mutex
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::lock_guard<std::mutex> lock(fd_mu_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool AnswerUnexpected(Conn* conn, const wire::Frame& frame) {
  if (frame.type == wire::MsgType::kError) return false;
  const std::string type = std::to_string(static_cast<int>(frame.type));
  return conn
      ->SendError(frame.request_id,
                  Status::NotImplemented("unknown message type " + type))
      .ok();
}

Result<std::shared_ptr<Conn>> Dial(const std::string& host, uint16_t port,
                                   wire::MsgType hello,
                                   const std::string& hello_payload,
                                   wire::MsgType ack, std::string* ack_payload,
                                   size_t max_frame_bytes) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::Invalid("bad host address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  auto conn = std::make_shared<Conn>(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Errno("connect");
  }
  SetNoDelay(fd);
  wire::Frame reply;
  Status st = conn->Send(hello, 0, hello_payload);
  if (st.ok()) st = conn->Read(&reply, max_frame_bytes);
  if (st.ok() && reply.type == wire::MsgType::kError) {
    wire::Reader r(reply.payload);
    st = wire::DecodeStatus(&r);
    if (st.ok()) st = Status::DataLoss("handshake rejected");
  } else if (st.ok() && reply.type != ack) {
    st = Status::DataLoss("unexpected handshake reply");
  }
  if (!st.ok()) return st;
  *ack_payload = std::move(reply.payload);
  return conn;
}

Status Listener::Start(const std::string& bind_address, uint16_t port,
                       Serve serve) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::Invalid("bad bind address: " + bind_address);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  Status st = Status::OK();
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    st = Errno("bind");
  } else if (::listen(fd, kListenBacklog) < 0) {
    st = Errno("listen");
  }
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  serve_ = std::move(serve);
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Listener::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    // Join the readers of finished connections first, so thread handles
    // never accumulate across a long-lived listener.
    std::vector<std::shared_ptr<Entry>> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto done = std::stable_partition(
          entries_.begin(), entries_.end(),
          [](const std::shared_ptr<Entry>& e) { return !e->finished; });
      finished.assign(done, entries_.end());
      entries_.erase(done, entries_.end());
    }
    for (const auto& entry : finished) entry->reader.join();

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // Transient conditions must not kill the listener: a peer that
      // aborted between SYN and accept, or momentary descriptor
      // exhaustion (the pending connection stays queued meanwhile).
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // listening socket shut down (or fatal error)
    }
    SetNoDelay(fd);
    auto entry = std::make_shared<Entry>();
    entry->conn = std::make_shared<Conn>(fd);
    entry->reader = std::thread([this, entry] {
      serve_(entry->conn);
      entry->conn->Close();  // release the descriptor now, not at the join
      std::lock_guard<std::mutex> lock(mu_);
      entry->finished = true;
    });
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(std::move(entry));
  }
}

void Listener::StopAccepting() {
  stopping_.store(true, std::memory_order_release);
  // accept() returns an error once the listening socket is shut down.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
}

void Listener::Stop() {
  StopAccepting();
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.swap(entries_);
  }
  for (const auto& entry : entries) entry->conn->Shutdown();
  for (const auto& entry : entries) entry->reader.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace net
}  // namespace deepbase
