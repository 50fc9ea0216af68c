#include "server/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "util/failpoint.h"
#include "util/rng.h"
#include "util/trace.h"

namespace deepbase {

namespace {

JobStatus JobStatusFromWire(uint8_t value) {
  switch (value) {
    case 0:
      return JobStatus::kQueued;
    case 1:
      return JobStatus::kRunning;
    case 2:
      return JobStatus::kDone;
    case 3:
      return JobStatus::kCancelled;
    default:
      return JobStatus::kDone;
  }
}

RemoteProgress ProgressFromWire(const wire::JobProgressWire& p) {
  RemoteProgress out;
  out.status = JobStatusFromWire(p.status);
  out.blocks_completed = p.blocks_completed;
  out.blocks_total = p.blocks_total;
  out.records_processed = p.records_processed;
  return out;
}

/// Terminal state backing default-constructed (invalid) handles, so every
/// RemoteJob member is safe to call (the JobHandle idiom).
internal::RemoteJobState& InvalidRemoteJobState() {
  static internal::RemoteJobState* state = [] {
    auto* s = new internal::RemoteJobState();
    s->done = true;
    s->result = Status::Invalid("invalid remote job handle");
    return s;
  }();
  return *state;
}

}  // namespace

// ---------------------------------------------------------------------------
// RemoteJob.
// ---------------------------------------------------------------------------

uint64_t RemoteJob::id() const {
  return state_ != nullptr
             ? state_->server_job_id.load(std::memory_order_relaxed)
             : 0;
}

RemoteProgress RemoteJob::LastProgress() const {
  internal::RemoteJobState& state =
      state_ != nullptr ? *state_ : InvalidRemoteJobState();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.last_progress;
}

const Result<ResultTable>& RemoteJob::Wait() const {
  internal::RemoteJobState& state =
      state_ != nullptr ? *state_ : InvalidRemoteJobState();
  std::unique_lock<std::mutex> lock(state.mu);
  state.cv.wait(lock, [&state] { return state.done; });
  return *state.result;
}

bool RemoteJob::Done() const {
  internal::RemoteJobState& state =
      state_ != nullptr ? *state_ : InvalidRemoteJobState();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.done;
}

wire::ResultSummaryWire RemoteJob::Summary() const {
  internal::RemoteJobState& state =
      state_ != nullptr ? *state_ : InvalidRemoteJobState();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.summary;
}

Result<RemoteProgress> RemoteJob::Poll() {
  if (state_ == nullptr || client_ == nullptr) {
    return Status::Invalid("invalid remote job handle");
  }
  wire::Writer w;
  w.U64(state_->server_job_id);
  Result<wire::Frame> reply =
      client_->Call(wire::MsgType::kPoll, w.bytes());
  if (!reply.ok()) return reply.status();
  wire::Reader r(reply->payload);
  wire::JobProgressWire p;
  if (reply->type != wire::MsgType::kPollOk ||
      !wire::DecodeJobProgress(&r, &p)) {
    return Status::DataLoss("malformed Poll response");
  }
  return ProgressFromWire(p);
}

Status RemoteJob::Cancel() {
  if (state_ == nullptr || client_ == nullptr) {
    return Status::Invalid("invalid remote job handle");
  }
  wire::Writer w;
  w.U64(state_->server_job_id);
  Result<wire::Frame> reply =
      client_->Call(wire::MsgType::kCancel, w.bytes());
  if (!reply.ok()) return reply.status();
  if (reply->type != wire::MsgType::kCancelOk) {
    return Status::DataLoss("malformed Cancel response");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// InspectionClient: connection lifecycle.
// ---------------------------------------------------------------------------

InspectionClient::InspectionClient(ClientConfig config)
    : config_(std::move(config)) {}

InspectionClient::~InspectionClient() { Close(); }

bool InspectionClient::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connected_;
}

uint64_t InspectionClient::server_catalog_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return server_catalog_version_;
}

Status InspectionClient::ConnectLocked() {
  wire::Writer hello;
  hello.U16(wire::kProtocolVersion);
  std::string ack;
  DB_ASSIGN_OR_RETURN(
      std::shared_ptr<net::Conn> conn,
      net::Dial(config_.host, config_.port, wire::MsgType::kHello,
                hello.bytes(), wire::MsgType::kHelloOk, &ack,
                config_.max_frame_bytes));
  wire::Reader r(ack);
  const uint16_t server_version = r.U16();
  const uint64_t catalog_version = r.U64();
  if (!r.ok() || server_version != wire::kProtocolVersion) {
    return Status::DataLoss("unsupported server protocol version");
  }
  server_catalog_version_ = catalog_version;
  conn_ = conn;
  connected_ = true;
  reader_ = std::thread([this, conn] { ReaderLoop(conn); });
  return Status::OK();
}

Status InspectionClient::Connect() {
  // Misconfigured timeouts surface here, before any socket exists: a
  // nonpositive RPC timeout would fail every call, and negative backoffs
  // are sleep_for UB.
  if (!(config_.rpc_timeout_s > 0)) {
    return Status::Invalid("ClientConfig.rpc_timeout_s must be positive, "
                           "got " + std::to_string(config_.rpc_timeout_s));
  }
  if (config_.reconnect_backoff_s < 0) {
    return Status::Invalid("ClientConfig.reconnect_backoff_s must be "
                           "non-negative, got " +
                           std::to_string(config_.reconnect_backoff_s));
  }
  if (config_.resubmit_backoff_s < 0) {
    return Status::Invalid("ClientConfig.resubmit_backoff_s must be "
                           "non-negative, got " +
                           std::to_string(config_.resubmit_backoff_s));
  }
  return ConnectInternal(/*reset_closing=*/true);
}

Status InspectionClient::ConnectInternal(bool reset_closing) {
  // Join a reader left over from a dead connection before reconnecting
  // (it cannot join itself when it detects EOF).
  std::thread stale;
  std::shared_ptr<net::Conn> stale_conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A user-initiated Connect() reopens a Close()d client (and resumes
    // the resubmission service); the resubmit worker's internal reconnect
    // must instead respect an in-progress Close, or it would revive the
    // connection Close is tearing down.
    if (reset_closing) closing_ = false;
    if (closing_) return Status::IOError("client closed");
    if (connected_) return Status::OK();
    if (reader_.joinable()) {
      stale = std::move(reader_);
      stale_conn = conn_;
    }
  }
  if (stale_conn != nullptr) {
    // The old reader may still be parked in Read (a send that lost a race
    // with an earlier reconnect marked this connection lost): shut the
    // socket down first so the join below cannot wait on a read that will
    // never return. conn_ is left pointing at the stale connection so the
    // woken reader recognizes the loss as its own and runs the full
    // teardown (fail pending RPCs, orphan replayable jobs).
    stale_conn->Shutdown();
  }
  if (stale.joinable()) stale.join();
  if (stale_conn != nullptr) stale_conn->Close();

  Status st = Status::IOError("no connection attempts configured");
  for (size_t attempt = 0; attempt <= config_.reconnect_attempts;
       ++attempt) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closing_) return Status::IOError("client closed");
      if (connected_) return Status::OK();
      st = ConnectLocked();
      if (st.ok()) return st;
    }
    if (attempt < config_.reconnect_attempts &&
        config_.reconnect_backoff_s > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(config_.reconnect_backoff_s));
    }
  }
  return st;
}

void InspectionClient::FailAllLocked(const Status& reason) {
  for (auto& [id, rpc] : pending_) {
    std::lock_guard<std::mutex> lock(rpc->mu);
    rpc->transport = reason;
    rpc->done = true;
    rpc->cv.notify_all();
  }
  pending_.clear();
  for (auto& [id, job] : jobs_) {
    ResolveJob(job, reason, {});
  }
  jobs_.clear();
}

void InspectionClient::CloseLocked(const Status& reason) {
  if (conn_ != nullptr) conn_->Shutdown();
  connected_ = false;
  FailAllLocked(reason);
}

void InspectionClient::Close() {
  std::thread reader;
  std::thread resubmitter;
  std::shared_ptr<net::Conn> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closing_ = true;
    // Jobs queued for replay resolve now — there will be no reconnect to
    // replay them on.
    for (const auto& job : orphans_) {
      ResolveJob(job, Status::IOError("client closed"), {});
    }
    orphans_.clear();
    resubmit_cv_.notify_all();
    CloseLocked(Status::IOError("client closed"));
    reader = std::move(reader_);
    resubmitter = std::move(resubmit_);
    conn = std::move(conn_);
  }
  if (reader.joinable()) reader.join();
  if (resubmitter.joinable()) resubmitter.join();
  if (conn != nullptr) conn->Close();
}

void InspectionClient::ResolveJob(
    const std::shared_ptr<internal::RemoteJobState>& job,
    Result<ResultTable> result, const wire::ResultSummaryWire& summary) {
  std::lock_guard<std::mutex> lock(job->mu);
  if (job->done) return;
  job->summary = summary;
  job->result = std::move(result);
  job->done = true;
  job->cv.notify_all();
}

// ---------------------------------------------------------------------------
// Reader: demultiplex responses and pushed events.
// ---------------------------------------------------------------------------

void InspectionClient::ReaderLoop(const std::shared_ptr<net::Conn>& conn) {
  while (true) {
    wire::Frame frame;
    Status st = Status::OK();
    if (failpoint::Armed()) {
      // A client-side read fault is indistinguishable from a dead server
      // connection; the injected error drives the whole loss/reconnect/
      // resubmit path below. (Deliberately client-scoped: a shared
      // "wire.read_frame" fault would also hit server/worker readers.)
      st = failpoint::Evaluate("client.read_frame");
    }
    if (st.ok()) st = conn->Read(&frame, config_.max_frame_bytes);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (conn == conn_) {
        // The live connection died under us: every parked caller learns
        // now instead of hanging (server-side, the disconnect cancels our
        // jobs). A stale connection means Close()/reconnect already
        // cleaned up.
        connected_ = false;
        // Acked submissions are replayable: pull them out of jobs_ before
        // FailAllLocked so their handles survive the loss and resolve
        // with the job's real result after the background resubmission.
        std::vector<std::shared_ptr<internal::RemoteJobState>> replayable;
        if (config_.auto_reconnect && config_.resubmit_attempts > 0 &&
            !closing_) {
          for (auto it = jobs_.begin(); it != jobs_.end();) {
            const std::shared_ptr<internal::RemoteJobState>& job =
                it->second;
            bool can_replay = false;
            {
              std::lock_guard<std::mutex> job_lock(job->mu);
              can_replay = !job->submit_payload.empty() && !job->done;
            }
            if (can_replay) {
              // A job the worker already owns (second loss mid-replay)
              // must not enqueue twice; it is still unhooked from jobs_.
              if (!job->resubmitting) replayable.push_back(job);
              it = jobs_.erase(it);
            } else {
              ++it;
            }
          }
        }
        FailAllLocked(Status::IOError("connection lost (" +
                                      std::string(StatusCodeName(st.code())) +
                                      ": " + st.message() + ")"));
        if (!replayable.empty()) {
          for (auto& job : replayable) orphans_.push_back(std::move(job));
          if (!resubmit_.joinable()) {
            resubmit_ = std::thread([this] { ResubmitLoop(); });
          }
          resubmit_cv_.notify_all();
        }
      }
      return;
    }
    std::shared_ptr<PendingRpc> rpc;
    std::shared_ptr<internal::RemoteJobState> job;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (frame.type == wire::MsgType::kEventProgress) {
        auto it = jobs_.find(frame.request_id);
        if (it != jobs_.end()) job = it->second;
      } else {
        auto pit = pending_.find(frame.request_id);
        if (pit != pending_.end()) {
          rpc = pit->second;
          pending_.erase(pit);
          if (rpc->job != nullptr &&
              (frame.type == wire::MsgType::kResult ||
               frame.type == wire::MsgType::kError)) {
            // A Wait RPC response doubles as the job's terminal result.
            job = rpc->job;
            jobs_.erase(job->submit_request_id);
          }
        } else if (frame.type == wire::MsgType::kResult ||
                   frame.type == wire::MsgType::kError) {
          auto jit = jobs_.find(frame.request_id);
          if (jit != jobs_.end()) {
            job = jit->second;
            jobs_.erase(jit);
          }
        }
      }
    }
    if (job != nullptr) {
      if (frame.type == wire::MsgType::kEventProgress) {
        wire::Reader r(frame.payload);
        wire::JobProgressWire p;
        if (wire::DecodeJobProgress(&r, &p)) {
          const RemoteProgress progress = ProgressFromWire(p);
          std::function<void(const RemoteProgress&)> callback;
          {
            std::lock_guard<std::mutex> lock(job->mu);
            job->last_progress = progress;
            callback = job->on_progress;
          }
          if (callback) callback(progress);
        }
      } else if (frame.type == wire::MsgType::kResult) {
        wire::Reader r(frame.payload);
        Status status = wire::DecodeStatus(&r);
        if (status.ok()) {
          const std::string table_bytes = r.Str();
          wire::ResultSummaryWire summary;
          if (!r.ok() || !wire::DecodeResultSummary(&r, &summary)) {
            ResolveJob(job, Status::DataLoss("malformed result frame"), {});
          } else {
            Result<ResultTable> table =
                ResultTable::DeserializeFromString(table_bytes);
            if (table.ok()) {
              ResolveJob(job, std::move(table).ValueOrDie(), summary);
            } else {
              ResolveJob(job, table.status(), {});
            }
          }
        } else {
          ResolveJob(job, status, {});
        }
      } else if (frame.type == wire::MsgType::kError) {
        wire::Reader r(frame.payload);
        Status status = wire::DecodeStatus(&r);
        if (status.ok()) status = Status::Internal("unspecified server error");
        ResolveJob(job, status, {});
      }
    }
    if (rpc != nullptr) {
      std::lock_guard<std::mutex> lock(rpc->mu);
      rpc->frame = frame;
      rpc->done = true;
      rpc->cv.notify_all();
    }
  }
}

// ---------------------------------------------------------------------------
// Resubmission: replay orphaned jobs after a reconnect.
// ---------------------------------------------------------------------------

void InspectionClient::ResubmitLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    resubmit_cv_.wait(lock,
                      [this] { return closing_ || !orphans_.empty(); });
    if (closing_) return;
    std::shared_ptr<internal::RemoteJobState> job =
        std::move(orphans_.front());
    orphans_.pop_front();
    job->resubmitting = true;
    lock.unlock();
    ResubmitJob(job);
    lock.lock();
  }
}

void InspectionClient::ResubmitJob(
    const std::shared_ptr<internal::RemoteJobState>& job) {
  std::string payload;
  uint64_t seed = 0;
  {
    std::lock_guard<std::mutex> job_lock(job->mu);
    payload = job->submit_payload;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    seed = job->submit_request_id;
  }
  // Deterministic per-job jitter: decorrelates a herd of orphans without
  // introducing run-to-run nondeterminism in tests.
  Rng rng(0x9e3779b97f4a7c15ull ^ seed);
  Status last = Status::IOError("connection lost before resubmission");
  for (size_t attempt = 0; attempt < config_.resubmit_attempts; ++attempt) {
    if (attempt > 0) {
      const double base =
          config_.resubmit_backoff_s *
          static_cast<double>(1ull << std::min<size_t>(attempt - 1, 10));
      std::this_thread::sleep_for(
          std::chrono::duration<double>(base * (0.5 + rng.Uniform())));
    }
    bool already_done = false;
    {
      std::lock_guard<std::mutex> job_lock(job->mu);
      already_done = job->done;  // Close() or a late result resolved it
    }
    if (already_done) {
      std::lock_guard<std::mutex> lock(mu_);
      job->resubmitting = false;
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closing_) {
        job->resubmitting = false;
        ResolveJob(job, Status::IOError("client closed"), {});
        return;
      }
    }
    const Status reconnected = ConnectInternal(/*reset_closing=*/false);
    if (!reconnected.ok()) {
      last = reconnected;
      continue;
    }
    // Re-register under a fresh request id and replay the exact encoded
    // submission — same fingerprint server-side, so a still-running (or
    // cached) incarnation of the job is joined, not duplicated.
    std::shared_ptr<PendingRpc> rpc;
    uint64_t request_id = 0;
    std::shared_ptr<net::Conn> conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!connected_ || closing_) {
        last = Status::IOError("not connected");
        continue;
      }
      request_id = next_request_id_++;
      job->submit_request_id = request_id;
      rpc = std::make_shared<PendingRpc>();
      pending_[request_id] = rpc;
      jobs_[request_id] = job;
      conn = conn_;
    }
    const Status sent =
        conn->Send(wire::MsgType::kSubmit, request_id, payload);
    if (!sent.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(request_id);
      auto it = jobs_.find(request_id);
      if (it != jobs_.end() && it->second == job) jobs_.erase(it);
      connected_ = false;
      last = sent;
      continue;
    }
    bool answered = false;
    Status transport;
    wire::Frame frame;
    {
      std::unique_lock<std::mutex> rpc_lock(rpc->mu);
      answered = rpc->cv.wait_for(
          rpc_lock, std::chrono::duration<double>(config_.rpc_timeout_s),
          [&rpc] { return rpc->done; });
      transport = rpc->transport;
      frame = std::move(rpc->frame);
    }
    if (!answered) {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(request_id);
      auto it = jobs_.find(request_id);
      if (it != jobs_.end() && it->second == job) jobs_.erase(it);
      last = Status::IOError("resubmit rpc timed out");
      continue;
    }
    if (!transport.ok()) {
      // The connection died again; the reader's loss path unhooked the
      // job (and skipped re-enqueueing it — resubmitting is set). Retry
      // on this budget.
      last = transport;
      continue;
    }
    if (frame.type == wire::MsgType::kSubmitOk) {
      wire::Reader r(frame.payload);
      const uint64_t job_id = r.U64();
      if (r.ok()) {
        job->server_job_id.store(job_id, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu_);
        job->resubmitting = false;
        return;  // re-hooked; the pushed result resolves the handle
      }
      last = Status::DataLoss("malformed SubmitOk payload");
    } else if (frame.type == wire::MsgType::kError) {
      // A definitive server answer, not a transport fault: no retry.
      wire::Reader r(frame.payload);
      Status status = wire::DecodeStatus(&r);
      if (status.ok()) status = Status::Internal("unspecified server error");
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = jobs_.find(request_id);
        if (it != jobs_.end() && it->second == job) jobs_.erase(it);
        job->resubmitting = false;
      }
      ResolveJob(job, status, {});
      return;
    } else {
      last = Status::DataLoss("unexpected Submit response");
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = jobs_.find(request_id);
      if (it != jobs_.end() && it->second == job) jobs_.erase(it);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job->resubmitting = false;
  }
  ResolveJob(job, last, {});
}

// ---------------------------------------------------------------------------
// RPCs.
// ---------------------------------------------------------------------------

Result<wire::Frame> InspectionClient::CallOnce(
    wire::MsgType type, const std::string& payload, bool* transport_failure,
    std::shared_ptr<internal::RemoteJobState> link_job) {
  *transport_failure = false;
  std::shared_ptr<PendingRpc> rpc;
  uint64_t request_id = 0;
  std::shared_ptr<net::Conn> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!connected_) {
      *transport_failure = true;
      return Status::IOError("not connected");
    }
    request_id = next_request_id_++;
    rpc = std::make_shared<PendingRpc>();
    rpc->job = std::move(link_job);
    pending_[request_id] = rpc;
    conn = conn_;
  }
  const Status sent = conn->Send(type, request_id, payload);
  if (!sent.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(request_id);
    connected_ = false;
    *transport_failure = true;
    return sent;
  }
  Status transport;
  wire::Frame frame;
  {
    std::unique_lock<std::mutex> lock(rpc->mu);
    const bool done = rpc->cv.wait_for(
        lock, std::chrono::duration<double>(config_.rpc_timeout_s),
        [&rpc] { return rpc->done; });
    if (!done) {
      // Drop rpc->mu before taking mu_: the reader's failure path
      // (FailAllLocked) holds mu_ while resolving rpc->mu — taking them
      // in the opposite order here would deadlock a timeout racing a
      // connection loss.
      lock.unlock();
      std::lock_guard<std::mutex> plock(mu_);
      pending_.erase(request_id);
      return Status::IOError("rpc timed out after " +
                             std::to_string(config_.rpc_timeout_s) + " s");
    }
    transport = rpc->transport;
    frame = std::move(rpc->frame);
  }
  if (!transport.ok()) {
    *transport_failure = true;
    return transport;
  }
  if (frame.type == wire::MsgType::kError) {
    wire::Reader r(frame.payload);
    Status status = wire::DecodeStatus(&r);
    if (status.ok()) status = Status::Internal("unspecified server error");
    return status;
  }
  return frame;
}

Result<wire::Frame> InspectionClient::Call(wire::MsgType type,
                                           const std::string& payload) {
  if (!connected() && config_.auto_reconnect) {
    DB_RETURN_NOT_OK(Connect());
  }
  bool transport_failure = false;
  Result<wire::Frame> reply = CallOnce(type, payload, &transport_failure);
  if (reply.ok() || !transport_failure || !config_.auto_reconnect) {
    return reply;
  }
  // The connection was found broken: reconnect once and retry.
  DB_RETURN_NOT_OK(Connect());
  return CallOnce(type, payload, &transport_failure);
}

Result<RemoteJob> InspectionClient::Submit(
    const InspectRequest& request,
    std::function<void(const RemoteProgress&)> on_progress) {
  wire::Writer w;
  w.U8(on_progress != nullptr ? 1 : 0);
  // The client mints the trace id so one id spans client-observed latency,
  // server scheduling, and (in clustered setups) worker hops. It lives in
  // the replay payload too, so a resubmitted job keeps its identity.
  w.U64(NewTraceId());
  DB_RETURN_NOT_OK(wire::EncodeInspectRequest(request, &w));
  const std::string payload = w.Take();

  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!connected() && config_.auto_reconnect) {
      DB_RETURN_NOT_OK(Connect());
    }
    auto state = std::make_shared<internal::RemoteJobState>();
    state->on_progress = on_progress;
    // Register under the request id before the frame is on the wire, so
    // an early progress event cannot be dropped.
    std::shared_ptr<PendingRpc> rpc;
    uint64_t request_id = 0;
    std::shared_ptr<net::Conn> conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!connected_) {
        if (config_.auto_reconnect && attempt == 0) continue;
        return Status::IOError("not connected");
      }
      request_id = next_request_id_++;
      state->submit_request_id = request_id;
      rpc = std::make_shared<PendingRpc>();
      pending_[request_id] = rpc;
      jobs_[request_id] = state;
      conn = conn_;
    }
    const Status sent =
        conn->Send(wire::MsgType::kSubmit, request_id, payload);
    bool transport_failure = !sent.ok();
    Status failure = sent;
    if (sent.ok()) {
      std::unique_lock<std::mutex> lock(rpc->mu);
      const bool done = rpc->cv.wait_for(
          lock, std::chrono::duration<double>(config_.rpc_timeout_s),
          [&rpc] { return rpc->done; });
      if (!done) {
        failure = Status::IOError("Submit rpc timed out");
      } else if (!rpc->transport.ok()) {
        transport_failure = true;
        failure = rpc->transport;
      } else if (rpc->frame.type == wire::MsgType::kError) {
        wire::Reader r(rpc->frame.payload);
        Status status = wire::DecodeStatus(&r);
        if (status.ok()) status = Status::Internal("unspecified error");
        failure = status;
      } else if (rpc->frame.type == wire::MsgType::kSubmitOk) {
        wire::Reader r(rpc->frame.payload);
        const uint64_t job_id = r.U64();
        if (r.ok()) {
          {
            std::lock_guard<std::mutex> job_lock(state->mu);
            state->server_job_id = job_id;
            // Acked: from here the job is replayable after a connection
            // loss (the resubmission worker re-sends this exact payload).
            state->submit_payload = payload;
          }
          return RemoteJob(state, this);
        }
        failure = Status::DataLoss("malformed SubmitOk payload");
      } else {
        failure = Status::DataLoss("unexpected Submit response");
      }
    }
    // Failed: unregister this attempt's bookkeeping.
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(request_id);
      jobs_.erase(request_id);
      if (transport_failure) connected_ = false;
    }
    if (!(transport_failure && config_.auto_reconnect && attempt == 0)) {
      return failure;
    }
    DB_RETURN_NOT_OK(Connect());
  }
  return Status::IOError("submit failed after reconnect");
}

Result<ResultTable> InspectionClient::Inspect(const InspectRequest& request) {
  Result<RemoteJob> job = Submit(request);
  if (!job.ok()) return job.status();
  return job->Wait();
}

Result<ResultTable> InspectionClient::WaitResult(const RemoteJob& job) {
  if (!job.valid()) return Status::Invalid("invalid remote job handle");
  wire::Writer w;
  w.U64(job.id());
  bool transport_failure = false;
  Result<wire::Frame> reply =
      CallOnce(wire::MsgType::kWait, w.bytes(), &transport_failure,
               job.state_);
  if (!reply.ok()) return reply.status();
  if (reply->type != wire::MsgType::kResult) {
    return Status::DataLoss("malformed Wait response");
  }
  // The reader resolved the linked job from the same frame.
  return job.Wait();
}

Status InspectionClient::RegisterDataset(const std::string& name,
                                         const Dataset& dataset) {
  wire::Writer w;
  w.Str(name);
  wire::EncodeDataset(dataset, &w);
  Result<wire::Frame> reply =
      Call(wire::MsgType::kRegisterDataset, w.bytes());
  if (!reply.ok()) return reply.status();
  if (reply->type != wire::MsgType::kRegisterOk) {
    return Status::DataLoss("malformed RegisterDataset response");
  }
  wire::Reader r(reply->payload);
  const uint64_t version = r.U64();
  if (r.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    server_catalog_version_ = version;
  }
  return Status::OK();
}

Status InspectionClient::RegisterHypotheses(
    const std::string& set_name,
    const std::vector<wire::HypothesisSpec>& specs) {
  wire::Writer w;
  w.Str(set_name);
  w.U32(static_cast<uint32_t>(specs.size()));
  for (const wire::HypothesisSpec& spec : specs) {
    wire::EncodeHypothesisSpec(spec, &w);
  }
  Result<wire::Frame> reply =
      Call(wire::MsgType::kRegisterHypotheses, w.bytes());
  if (!reply.ok()) return reply.status();
  if (reply->type != wire::MsgType::kRegisterOk) {
    return Status::DataLoss("malformed RegisterHypotheses response");
  }
  wire::Reader r(reply->payload);
  const uint64_t version = r.U64();
  if (r.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    server_catalog_version_ = version;
  }
  return Status::OK();
}

Result<wire::ServerStatsWire> InspectionClient::Stats() {
  Result<wire::Frame> reply = Call(wire::MsgType::kStats, "");
  if (!reply.ok()) return reply.status();
  wire::Reader r(reply->payload);
  wire::ServerStatsWire stats;
  if (reply->type != wire::MsgType::kStatsOk ||
      !wire::DecodeServerStats(&r, &stats)) {
    return Status::DataLoss("malformed Stats response");
  }
  return stats;
}

Result<std::string> InspectionClient::Metrics(bool json) {
  wire::Writer w;
  w.U8(json ? 1 : 0);
  Result<wire::Frame> reply = Call(wire::MsgType::kMetrics, w.bytes());
  if (!reply.ok()) return reply.status();
  if (reply->type != wire::MsgType::kMetricsOk) {
    return Status::DataLoss("malformed Metrics response");
  }
  wire::Reader r(reply->payload);
  r.U8();  // format echo
  std::string text = r.Str();
  if (!r.ok()) return Status::DataLoss("malformed Metrics response");
  return text;
}

Result<std::string> InspectionClient::Explain(const InspectRequest& request,
                                              bool analyze, bool json) {
  wire::Writer w;
  w.U8(static_cast<uint8_t>((analyze ? 1 : 0) | (json ? 2 : 0)));
  DB_RETURN_NOT_OK(wire::EncodeInspectRequest(request, &w));
  Result<wire::Frame> reply = Call(wire::MsgType::kExplain, w.bytes());
  if (!reply.ok()) return reply.status();
  if (reply->type != wire::MsgType::kExplainOk) {
    return Status::DataLoss("malformed Explain response");
  }
  wire::Reader r(reply->payload);
  r.U8();  // flags echo
  std::string text = r.Str();
  if (!r.ok()) return Status::DataLoss("malformed Explain response");
  return text;
}

Result<std::string> InspectionClient::Statusz(bool json) {
  wire::Writer w;
  w.U8(json ? 1 : 0);
  Result<wire::Frame> reply = Call(wire::MsgType::kStatusz, w.bytes());
  if (!reply.ok()) return reply.status();
  if (reply->type != wire::MsgType::kStatuszOk) {
    return Status::DataLoss("malformed Statusz response");
  }
  wire::Reader r(reply->payload);
  r.U8();  // format echo
  std::string text = r.Str();
  if (!r.ok()) return Status::DataLoss("malformed Statusz response");
  return text;
}

}  // namespace deepbase
