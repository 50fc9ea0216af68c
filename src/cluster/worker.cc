#include "cluster/worker.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>

#include "core/block_pipeline.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace deepbase {
namespace cluster {

InspectionWorker::InspectionWorker(InspectionSession* session,
                                   WorkerConfig config)
    : session_(session), config_(std::move(config)) {
  if (config_.worker_id.empty()) {
    config_.worker_id = "worker-" + std::to_string(::getpid());
  }
}

InspectionWorker::~InspectionWorker() { Shutdown(); }

Status InspectionWorker::Connect() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("worker already connected");
  }
  // A nonpositive heartbeat interval would register a worker the monitor
  // immediately declares dead; reject it before touching the network.
  if (!(config_.heartbeat_interval_s > 0)) {
    return Status::Invalid("WorkerConfig.heartbeat_interval_s must be "
                           "positive, got " +
                           std::to_string(config_.heartbeat_interval_s));
  }
  if (config_.assignment_delay_s < 0) {
    return Status::Invalid("WorkerConfig.assignment_delay_s must be "
                           "non-negative, got " +
                           std::to_string(config_.assignment_delay_s));
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.coordinator_port);
  if (::inet_pton(AF_INET, config_.coordinator_host.c_str(),
                  &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    return Status::Invalid("bad coordinator host: " +
                           config_.coordinator_host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status st =
        Status::IOError(std::string("connect: ") + std::strerror(errno));
    ::close(fd_);
    fd_ = -1;
    return st;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  // Handshake: announce ourselves, wait for the coordinator's ack before
  // any thread starts (so a version rejection surfaces synchronously).
  wire::WorkerHelloWire hello;
  hello.worker_id = config_.worker_id;
  hello.catalog_version = session_->catalog_version();
  hello.num_threads = 0;
  wire::Writer w;
  wire::EncodeWorkerHello(hello, &w);
  Status st = wire::WriteFrame(fd_, wire::MsgType::kWorkerHello, 0, w.bytes());
  wire::Frame ack;
  if (st.ok()) st = wire::ReadFrame(fd_, &ack);
  if (st.ok() && ack.type == wire::MsgType::kError) {
    wire::Reader r(ack.payload);
    st = wire::DecodeStatus(&r);
    if (st.ok()) st = Status::Invalid("coordinator rejected registration");
  } else if (st.ok() && ack.type != wire::MsgType::kWorkerHelloOk) {
    st = Status::Invalid("unexpected handshake reply from coordinator");
  }
  if (!st.ok()) {
    ::close(fd_);
    fd_ = -1;
    return st;
  }

  closing_.store(false, std::memory_order_release);
  broken_.store(false, std::memory_order_release);
  cancel_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  reader_ = std::thread([this] { ReaderLoop(); });
  executor_ = std::thread([this] { ExecutorLoop(); });
  heartbeat_ = std::thread([this] { HeartbeatLoop(); });
  return Status::OK();
}

void InspectionWorker::Send(wire::MsgType type, uint64_t request_id,
                            const std::string& payload) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (fd_ < 0) return;
  const Status st = wire::WriteFrame(fd_, type, request_id, payload);
  if (!st.ok()) {
    broken_.store(true, std::memory_order_release);
    cv_.notify_all();
  }
}

void InspectionWorker::ReaderLoop() {
  while (!closing_.load(std::memory_order_acquire) &&
         !broken_.load(std::memory_order_acquire)) {
    wire::Frame frame;
    const Status st = wire::ReadFrame(fd_, &frame);
    if (!st.ok()) {
      broken_.store(true, std::memory_order_release);
      cv_.notify_all();
      break;
    }
    switch (frame.type) {
      case wire::MsgType::kAssign: {
        wire::Reader r(frame.payload);
        wire::AssignmentWire assignment;
        if (!wire::DecodeAssignment(&r, &assignment) || !r.exhausted()) {
          wire::Writer w;
          wire::EncodeStatus(Status::DataLoss("malformed Assign payload"),
                             &w);
          Send(wire::MsgType::kError, frame.request_id, w.bytes());
          break;
        }
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.assignments_received;
        queue_.push_back(std::move(assignment));
        cv_.notify_all();
        break;
      }
      case wire::MsgType::kStoreKeymap: {
        wire::Reader r(frame.payload);
        wire::StoreKeymapWire keymap;
        if (wire::DecodeStoreKeymap(&r, &keymap) && r.exhausted()) {
          std::lock_guard<std::mutex> lock(mu_);
          keymap_ = std::move(keymap.placements);
          ++stats_.keymap_updates;
        }
        break;
      }
      default: {
        // Forward compatibility (the wire protocol's rule for every peer):
        // an unknown frame type is answered with a typed error and the
        // connection stays alive.
        wire::Writer w;
        wire::EncodeStatus(
            Status::NotImplemented(
                "unknown message type " +
                std::to_string(static_cast<int>(frame.type))),
            &w);
        Send(wire::MsgType::kError, frame.request_id, w.bytes());
        break;
      }
    }
  }
}

wire::AssignResultWire InspectionWorker::RunSliced(
    const wire::AssignmentWire& assignment, ProgressCounter* progress,
    Tracer* tracer, uint64_t parent_span) {
  wire::AssignResultWire out;
  out.assignment_id = assignment.assignment_id;
  out.mode = assignment.mode;
  Result<InspectPlan> plan_or = session_->catalog().Compile(
      assignment.request, session_->default_options());
  if (!plan_or.ok()) {
    out.status = plan_or.status();
    return out;
  }
  InspectPlan plan = std::move(plan_or).ValueOrDie();
  // The coordinator pinned the score-affecting options into the request
  // (RestrictShards rejects a job that is not sliceable); pin the
  // assignment's partition and attach this process's substrate (pointers
  // never travel). A slice reads no behavior tier: it extracts units and
  // evaluates hypotheses live for the blocks it owns, where a tier would
  // hold whole-dataset matrices this worker mostly never reads.
  plan.options.num_shards = assignment.total_shards;
  plan.options.shared_scan = nullptr;
  session_->AttachSubstrate(&plan.options);
  plan.options.hypothesis_store = nullptr;
  plan.options.progress = progress;
  plan.options.cancel = &cancel_;
  plan.options.tracer = tracer;
  plan.options.trace_parent_span = parent_span;

  Stopwatch watch;
  BlockPipeline pipeline(plan.models, *plan.dataset, plan.measures,
                         plan.hypotheses, plan.options);
  const Status st =
      pipeline.RestrictShards(assignment.shard_lo, assignment.shard_hi);
  if (!st.ok()) {
    out.status = st;
    return out;
  }
  BlockPipeline::Totals totals = pipeline.Run(watch);
  if (cancel_.load(std::memory_order_acquire)) {
    out.status = Status::Cancelled("worker shutting down");
    return out;
  }
  if (totals.deadline_exceeded) {
    // Partial states past the deadline never travel: the coordinator gets
    // the typed error (its own job-deadline watchdog resolves the run).
    out.status = Status::DeadlineExceeded(
        "assignment exceeded the job deadline on worker " +
        config_.worker_id);
    return out;
  }
  std::vector<std::unique_ptr<Measure>> states = pipeline.TakeShardStates();
  for (const std::unique_ptr<Measure>& state : states) {
    codec::Writer w;
    if (state == nullptr || !state->SerializeState(&w)) {
      out.status = Status::Internal(
          "partial measure state did not serialize (non-mergeable measure "
          "in a sliced assignment?)");
      return out;
    }
    out.pair_states.push_back(w.Take());
  }
  out.blocks_processed = totals.blocks_processed;
  out.records_processed = totals.records_processed;
  out.all_converged = pipeline.AllConverged() ? 1 : 0;
  out.status = Status::OK();
  return out;
}

wire::AssignResultWire InspectionWorker::RunWhole(
    const wire::AssignmentWire& assignment, ProgressCounter* progress,
    Tracer* tracer, uint64_t parent_span) {
  wire::AssignResultWire out;
  out.assignment_id = assignment.assignment_id;
  out.mode = assignment.mode;
  InspectRequest request = assignment.request;
  if (!request.options.has_value()) {
    request.options = session_->default_options();
  }
  request.options->progress = progress;
  request.options->cancel = &cancel_;
  request.options->tracer = tracer;
  request.options->trace_parent_span = parent_span;
  RuntimeStats stats;
  Result<ResultTable> result = session_->Inspect(request, &stats);
  if (cancel_.load(std::memory_order_acquire)) {
    out.status = Status::Cancelled("worker shutting down");
    return out;
  }
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.table_bytes = result->SerializeToString();
  out.blocks_processed = stats.blocks_processed;
  out.records_processed = stats.records_processed;
  out.all_converged = stats.all_converged ? 1 : 0;
  out.status = Status::OK();
  return out;
}

void InspectionWorker::ExecutorLoop() {
  while (true) {
    wire::AssignmentWire assignment;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return !queue_.empty() ||
               closing_.load(std::memory_order_acquire) ||
               broken_.load(std::memory_order_acquire);
      });
      if (closing_.load(std::memory_order_acquire) ||
          broken_.load(std::memory_order_acquire)) {
        break;
      }
      assignment = std::move(queue_.front());
      queue_.pop_front();
      active_assignment_ = assignment.assignment_id;
      progress_.blocks_done.store(0, std::memory_order_relaxed);
      progress_.blocks_total.store(0, std::memory_order_relaxed);
      progress_.records_done.store(0, std::memory_order_relaxed);
    }
    if (config_.assignment_delay_s > 0) {
      // Failure-injection window (tests): hold the assignment in flight.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration<double>(config_.assignment_delay_s);
      while (std::chrono::steady_clock::now() < deadline &&
             !cancel_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    // Per-assignment tracer: the coordinator minted the trace id; every
    // span this run records (root "worker.assign" + the pipeline's
    // extract/score lanes) travels back in the kAssignResult frame, in
    // this process's clock domain — the coordinator re-anchors on import.
    std::unique_ptr<Tracer> tracer;
    uint64_t root_span = 0;
    if (assignment.trace_id != 0) {
      tracer = std::make_unique<Tracer>(assignment.trace_id);
      root_span = NewSpanId();
    }
    const int64_t run_start_ns = TraceNowNs();
    wire::AssignResultWire result;
    Status injected = Status::OK();
    if (failpoint::Armed()) {
      injected = failpoint::Evaluate("worker.assign.run");
    }
    if (!injected.ok()) {
      // The fault travels as the assignment's result — the coordinator
      // sees a typed execution failure, exactly as if the pipeline threw.
      result.assignment_id = assignment.assignment_id;
      result.mode = assignment.mode;
      result.status = injected;
    } else {
      result =
          assignment.mode == wire::AssignmentWire::Mode::kWhole
              ? RunWhole(assignment, &progress_, tracer.get(), root_span)
              : RunSliced(assignment, &progress_, tracer.get(), root_span);
    }
    result.run_ns = TraceNowNs() - run_start_ns;
    if (tracer != nullptr) {
      TraceSpan root;
      root.span_id = root_span;
      root.parent_id = assignment.parent_span;
      root.name = "worker.assign";
      root.start_ns = run_start_ns;
      root.duration_ns = result.run_ns;
      root.tags = "worker=" + config_.worker_id + ",assignment=" +
                  std::to_string(assignment.assignment_id);
      tracer->Record(std::move(root));
      result.spans = tracer->Spans();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_assignment_ = 0;
      if (result.status.ok()) {
        ++stats_.assignments_completed;
      } else {
        ++stats_.assignments_failed;
      }
    }
    wire::Writer w;
    wire::EncodeAssignResult(result, &w);
    Send(wire::MsgType::kAssignResult, assignment.assignment_id, w.Take());
  }
}

void InspectionWorker::HeartbeatLoop() {
  const auto interval = std::chrono::duration<double>(
      config_.heartbeat_interval_s > 0 ? config_.heartbeat_interval_s : 0.1);
  while (!closing_.load(std::memory_order_acquire) &&
         !broken_.load(std::memory_order_acquire)) {
    {
      wire::Writer w;
      w.Str(config_.worker_id);
      Send(wire::MsgType::kWorkerHeartbeat, 0, w.bytes());
    }
    uint64_t active = 0;
    wire::WorkerProgressWire progress;
    {
      std::lock_guard<std::mutex> lock(mu_);
      active = active_assignment_;
      if (active != 0) {
        progress.assignment_id = active;
        progress.blocks_processed =
            progress_.blocks_done.load(std::memory_order_relaxed);
        progress.records_processed =
            progress_.records_done.load(std::memory_order_relaxed);
      }
    }
    if (active != 0) {
      // Absolute counters: a lost or duplicated tick cannot skew the
      // coordinator's aggregate (it keeps per-assignment maxima).
      wire::Writer w;
      wire::EncodeWorkerProgress(progress, &w);
      Send(wire::MsgType::kEventWorkerProgress, active, w.bytes());
    }
    std::this_thread::sleep_for(interval);
  }
}

void InspectionWorker::Kill() {
  if (!running_.load(std::memory_order_acquire)) return;
  cancel_.store(true, std::memory_order_release);
  broken_.store(true, std::memory_order_release);
  // No farewell, no drain: the coordinator sees exactly what a SIGKILLed
  // process would leave behind — a dead socket mid-assignment.
  ::shutdown(fd_, SHUT_RDWR);
  cv_.notify_all();
}

void InspectionWorker::Shutdown() {
  if (!running_.load(std::memory_order_acquire)) return;
  closing_.store(true, std::memory_order_release);
  cancel_.store(true, std::memory_order_release);
  cv_.notify_all();
  ::shutdown(fd_, SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
  if (executor_.joinable()) executor_.join();
  if (heartbeat_.joinable()) heartbeat_.join();
  ::close(fd_);
  fd_ = -1;
  running_.store(false, std::memory_order_release);
}

bool InspectionWorker::connected() const {
  return running_.load(std::memory_order_acquire) &&
         !broken_.load(std::memory_order_acquire) &&
         !closing_.load(std::memory_order_acquire);
}

std::vector<std::pair<std::string, std::string>> InspectionWorker::keymap()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return keymap_;
}

WorkerStats InspectionWorker::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cluster
}  // namespace deepbase
