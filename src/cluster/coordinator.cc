#include "cluster/coordinator.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/block_pipeline.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace deepbase {
namespace cluster {

namespace {

using Clock = std::chrono::steady_clock;

/// Cluster-layer metrics (handles cached once; see util/metrics.h).
struct ClusterMetrics {
  Counter* assignments = nullptr;
  Counter* reassignments = nullptr;
  Counter* degraded = nullptr;
  Gauge* workers = nullptr;
};

ClusterMetrics& Metrics() {
  static ClusterMetrics* metrics = [] {
    auto* m = new ClusterMetrics();
    MetricsRegistry& reg = MetricsRegistry::Global();
    m->assignments = reg.GetCounter("deepbase_cluster_assignments_total");
    m->reassignments =
        reg.GetCounter("deepbase_cluster_reassignments_total");
    m->degraded = reg.GetCounter("deepbase_cluster_jobs_degraded_total");
    m->workers = reg.GetGauge("deepbase_cluster_workers");
    return m;
  }();
  return *metrics;
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

// Whole jobs place by rendezvous hash over the live workers, so repeats
// land on the same worker and its behavior store warms up.
std::string WholeJobOwner(const InspectRequest& request,
                          const std::vector<std::string>& live_workers) {
  return PlaceKey("job:" + request.dataset_name, live_workers);
}

}  // namespace

ClusterCoordinator::ClusterCoordinator(InspectionSession* session,
                                       CoordinatorConfig config)
    : session_(session), config_(std::move(config)) {}

ClusterCoordinator::~ClusterCoordinator() { Shutdown(); }

Status ClusterCoordinator::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("coordinator already running");
  }
  // Misconfigured timeouts fail loudly at startup instead of declaring
  // every worker dead (or no worker ever dead) at runtime.
  if (!(config_.heartbeat_timeout_s > 0)) {
    return Status::Invalid("CoordinatorConfig.heartbeat_timeout_s must be "
                           "positive, got " +
                           std::to_string(config_.heartbeat_timeout_s));
  }
  if (!(config_.assign_timeout_s > 0)) {
    return Status::Invalid("CoordinatorConfig.assign_timeout_s must be "
                           "positive, got " +
                           std::to_string(config_.assign_timeout_s));
  }
  if (!(config_.reassign_backoff_s >= 0)) {
    return Status::Invalid("CoordinatorConfig.reassign_backoff_s must be "
                           "non-negative, got " +
                           std::to_string(config_.reassign_backoff_s));
  }
  if (config_.max_attempts < 1) {
    return Status::Invalid("CoordinatorConfig.max_attempts must be at least "
                           "1, got " + std::to_string(config_.max_attempts));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = false;
  }
  closing_.store(false, std::memory_order_release);
  DB_RETURN_NOT_OK(listener_.Start(
      config_.bind_address, config_.port,
      [this](const std::shared_ptr<net::Conn>& peer) { ServeWorker(peer); }));
  running_.store(true, std::memory_order_release);
  monitor_thread_ = std::thread([this] { MonitorLoop(); });
  if (config_.install_engine) {
    session_->scheduler().SetEngine(
        {.default_shards = config_.total_shards,
         .dispatch = [this](const JobPlan& job) { return PlanDispatch(job); },
         .run = [this](const JobPlan& job, const InspectPlan& plan,
                       RuntimeStats* stats) {
           return RunCompiled(job, plan, stats);
         }});
  }
  return Status::OK();
}

void ClusterCoordinator::MarkWorkerDeadLocked(
    const std::shared_ptr<Worker>& worker) {
  if (!worker->alive) return;
  worker->alive = false;
  ++stats_.workers_lost;
  Metrics().workers->Sub(1);
  // Unblock a reader parked on the dead connection and wake every run
  // waiting on cv_ so its reassignment scan sees the death promptly.
  worker->conn->Shutdown();
  cv_.notify_all();
}

std::shared_ptr<ClusterCoordinator::Worker>
ClusterCoordinator::FindWorkerLocked(const std::string& id) const {
  std::shared_ptr<Worker> found;
  for (const auto& worker : workers_) {
    if (worker->id != id) continue;
    if (worker->alive) return worker;  // alive entry wins over a stale one
    found = worker;
  }
  return found;
}

std::vector<std::shared_ptr<ClusterCoordinator::Worker>>
ClusterCoordinator::LiveWorkersLocked() const {
  std::vector<std::shared_ptr<Worker>> live;
  for (const auto& worker : workers_) {
    if (worker->alive) live.push_back(worker);
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  return live;
}

void ClusterCoordinator::ServeWorker(const std::shared_ptr<net::Conn>& peer) {
  auto worker = std::make_shared<Worker>();
  worker->conn = peer;
  // Handshake: the first frame must be kWorkerHello with our protocol
  // version; anything else gets a typed error and the connection closes
  // (there is no stream to keep in sync with an unregistered peer).
  wire::Frame frame;
  Status st = peer->Read(&frame, config_.max_frame_bytes);
  bool registered = false;
  if (st.ok() && frame.type == wire::MsgType::kWorkerHello) {
    wire::WorkerHelloWire hello;
    wire::Reader r(frame.payload);
    if (wire::DecodeWorkerHello(&r, &hello) && r.exhausted() &&
        hello.protocol_version == wire::kProtocolVersion) {
      size_t live_count = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        // A same-id reconnect replaces the previous connection: the old
        // socket is dead weight (its assignments reassign to the new one).
        std::shared_ptr<Worker> old = FindWorkerLocked(hello.worker_id);
        if (old != nullptr && old->alive) MarkWorkerDeadLocked(old);
        worker->id = hello.worker_id;
        worker->num_threads = hello.num_threads;
        worker->last_heartbeat = Clock::now();
        worker->alive = true;
        workers_.push_back(worker);
        ++stats_.workers_registered;
        Metrics().workers->Add(1);
        live_count = LiveWorkersLocked().size();
      }
      wire::Writer w;
      w.U64(session_->catalog_version());
      w.U32(static_cast<uint32_t>(live_count));
      if (peer->Send(wire::MsgType::kWorkerHelloOk, frame.request_id,
                     w.bytes())
              .ok()) {
        registered = true;
        cv_.notify_all();
      }
    }
  }
  if (!registered) {
    peer->SendError(frame.request_id,
                    Status::Invalid("worker registration requires a "
                                    "protocol-matched WorkerHello as the "
                                    "first frame"));
  }

  while (registered && !closing_.load(std::memory_order_acquire)) {
    st = peer->Read(&frame, config_.max_frame_bytes);
    if (!st.ok()) break;
    switch (frame.type) {
      case wire::MsgType::kWorkerHeartbeat: {
        std::lock_guard<std::mutex> lock(mu_);
        worker->last_heartbeat = Clock::now();
        break;
      }
      case wire::MsgType::kEventWorkerProgress: {
        wire::Reader r(frame.payload);
        wire::WorkerProgressWire progress;
        if (!wire::DecodeWorkerProgress(&r, &progress) || !r.exhausted()) {
          break;
        }
        std::lock_guard<std::mutex> lock(mu_);
        worker->last_heartbeat = Clock::now();  // progress implies liveness
        auto it = assignment_index_.find(progress.assignment_id);
        if (it != assignment_index_.end()) {
          Assignment& a = it->second.first->assignments[it->second.second];
          // Absolute counters; keep maxima so a reordered tick never
          // regresses the aggregate.
          a.live_blocks = std::max(a.live_blocks, progress.blocks_processed);
          a.live_records =
              std::max(a.live_records, progress.records_processed);
          cv_.notify_all();
        }
        break;
      }
      case wire::MsgType::kAssignResult: {
        wire::Reader r(frame.payload);
        wire::AssignResultWire result;
        if (!wire::DecodeAssignResult(&r, &result) || !r.exhausted()) {
          peer->SendError(frame.request_id,
                          Status::DataLoss("malformed AssignResult payload"));
          break;
        }
        std::lock_guard<std::mutex> lock(mu_);
        auto it = assignment_index_.find(result.assignment_id);
        if (it == assignment_index_.end() ||
            it->second.first->assignments[it->second.second].done) {
          // First result wins. Work is deterministic, so a late duplicate
          // from a presumed-dead worker carried identical bytes anyway.
          ++stats_.duplicate_results;
          break;
        }
        Assignment& a = it->second.first->assignments[it->second.second];
        a.result = std::move(result);
        a.done = true;
        a.done_ns = TraceNowNs();
        ++stats_.assignments_completed;
        cv_.notify_all();
        break;
      }
      default:
        net::AnswerUnexpected(peer.get(), frame);
        break;
    }
  }

  // Reclaim: the worker leaves the registry (a run whose assignment it
  // owned finds no owner and reassigns), and the peer layer closes the
  // connection once this reader returns.
  std::lock_guard<std::mutex> lock(mu_);
  MarkWorkerDeadLocked(worker);
  auto it = std::find(workers_.begin(), workers_.end(), worker);
  if (it != workers_.end()) workers_.erase(it);
}

void ClusterCoordinator::MonitorLoop() {
  while (!closing_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto now = Clock::now();
      const auto timeout = Seconds(config_.heartbeat_timeout_s);
      for (const auto& worker : workers_) {
        if (worker->alive && now - worker->last_heartbeat > timeout) {
          MarkWorkerDeadLocked(worker);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

ClusterDispatch ClusterCoordinator::PlanDispatch(const JobPlan& job) const {
  ClusterDispatch dispatch;
  dispatch.degrade_to_local = config_.degrade_to_local;
  dispatch.live_workers = worker_ids();
  // Requests holding inline pointers (extractors, datasets, hypothesis or
  // measure objects) have no identity across the wire; they run on the
  // local engine instead of failing.
  wire::Writer probe;
  if (!wire::EncodeInspectRequest(job.request, &probe).ok()) {
    dispatch.mode = ClusterDispatch::Mode::kLocalFallback;
    return dispatch;
  }
  if (dispatch.live_workers.empty()) {
    dispatch.mode = ClusterDispatch::Mode::kNoWorkers;
    return dispatch;
  }
  // A sliceable plan splits its S into ranges; the rest (streaming runs,
  // S < 2, sequential-lane measures) pin the whole job to one worker.
  if (job.pipeline.sliceable) {
    dispatch.mode = ClusterDispatch::Mode::kSliced;
    dispatch.ranges = MakeShardRanges(
        static_cast<uint32_t>(job.pipeline.num_shards),
        static_cast<uint32_t>(dispatch.live_workers.size()));
  } else {
    dispatch.mode = ClusterDispatch::Mode::kWhole;
    dispatch.ranges = {ShardRange{0, 1}};
    dispatch.worker = WholeJobOwner(job.request, dispatch.live_workers);
  }
  return dispatch;
}

Result<ResultTable> ClusterCoordinator::DistributedRun(
    const InspectRequest& request, const InspectOptions& default_options,
    RuntimeStats* stats) {
  JobPlan job;
  job.request = request;
  DB_ASSIGN_OR_RETURN(job.compiled,
                      session_->catalog().Compile(request, default_options));
  InspectOptions& options = job.compiled.options;
  options.num_shards =
      ResolveShardCount(options.num_shards, config_.total_shards);
  job.pipeline = PlanPipeline(job.compiled.models, *job.compiled.dataset,
                              job.compiled.measures, job.compiled.hypotheses,
                              options, job.compiled.dataset_fingerprint);
  return RunCompiled(job, job.compiled, stats);
}

Result<ResultTable> ClusterCoordinator::RunCompiled(const JobPlan& job,
                                                    const InspectPlan& plan,
                                                    RuntimeStats* stats) {
  Stopwatch watch;
  // Same pre-flight as a local run, before any work is dispatched: sliced
  // workers drive the pipeline directly and would only normalize.
  DB_RETURN_NOT_OK(CheckHypothesisOutputFormat(plan));

  // The scheduler's Execute installed the job tracer into the plan's
  // options, so the coordinator's dispatch/merge spans and the imported
  // worker spans all land in the same per-job trace.
  Tracer* tracer = plan.options.tracer;
  TraceContext trace{tracer, plan.options.trace_parent_span};
  DB_SPAN_NAMED(run_span, trace, "coord.run");

  const ClusterDispatch dispatch = PlanDispatch(job);
  if (dispatch.mode == ClusterDispatch::Mode::kLocalFallback) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.jobs_local_fallback;
    }
    return RunPlan(plan, stats, &job.pipeline);
  }

  // Availability rescue: a kUnavailable outcome (quorum loss, attempts
  // exhausted, injected dispatch fault) degrades to the local engine when
  // configured — the job completes with the same deterministic table
  // instead of failing. Anything else (deadline, compile errors) stays an
  // error: a local retry would fail identically.
  auto fail_or_degrade = [&](const Status& why) -> Result<ResultTable> {
    if (config_.degrade_to_local &&
        why.code() == StatusCode::kUnavailable) {
      Metrics().degraded->Inc();
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.jobs_degraded_local;
      }
      return RunPlan(plan, stats, &job.pipeline);
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.jobs_failed;
    return why;
  };

  if (failpoint::Armed()) {
    const Status fp = failpoint::Evaluate("cluster.dispatch");
    if (!fp.ok()) return fail_or_degrade(fp);
  }

  // The request that travels carries the job's options, S pinned, so the
  // scores depend only on (seed, S), never on worker count or which worker
  // ran which range.
  const bool sliceable = dispatch.mode == ClusterDispatch::Mode::kSliced;
  const size_t num_shards = job.pipeline.num_shards;
  InspectRequest wire_request = job.request;
  wire_request.options = plan.options;

  // Plan the assignments.
  auto run = std::make_shared<RunState>();
  uint64_t run_id = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutting_down_) {
      ++stats_.jobs_failed;
      return Status::Unavailable("coordinator is shutting down");
    }
    if (dispatch.mode == ClusterDispatch::Mode::kNoWorkers) {
      lock.unlock();  // fail_or_degrade takes mu_ (and may run locally)
      return fail_or_degrade(
          Status::Unavailable("no live workers registered"));
    }
    run_id = next_run_id_++;
    ++(sliceable ? stats_.jobs_sliced : stats_.jobs_whole);
    for (const ShardRange& range : dispatch.ranges) {
      wire::AssignmentWire aw;
      aw.assignment_id = next_assignment_id_++;
      aw.mode = sliceable ? wire::AssignmentWire::Mode::kSliced
                          : wire::AssignmentWire::Mode::kWhole;
      aw.total_shards = static_cast<uint32_t>(num_shards);
      aw.shard_lo = range.lo;
      aw.shard_hi = range.hi;
      // Pre-allocate the dispatch span: its id is baked into the cached
      // payload (the worker parents its root to it), and the span itself
      // is recorded once the assignment resolves.
      if (tracer != nullptr) {
        aw.trace_id = tracer->trace_id();
        aw.parent_span = NewSpanId();
      }
      aw.request = wire_request;
      wire::Writer w;
      const Status st = wire::EncodeAssignment(aw, &w);
      DB_DCHECK(st.ok());  // PlanDispatch checked encodability
      Assignment a;
      a.id = aw.assignment_id;
      a.shard_lo = range.lo;
      a.dispatch_span = aw.parent_span;
      a.payload = w.Take();
      a.retry_at = Clock::now();
      run->assignments.push_back(std::move(a));
    }
    active_runs_[run_id] = run;
    for (size_t i = 0; i < run->assignments.size(); ++i) {
      assignment_index_[run->assignments[i].id] = {run, i};
    }
  }

  // Drive the run: dispatch (and re-dispatch) assignments, aggregate
  // progress, detect dead/slow owners, until completion or failure.
  // Every state change funnels through cv_, so the 50 ms tick is only a
  // deadline-check cadence, not the completion latency.
  const std::atomic<bool>* cancel = plan.options.cancel;
  ProgressCounter* progress = plan.options.progress;
  if (progress != nullptr) {
    progress->blocks_done.store(0, std::memory_order_relaxed);
    progress->records_done.store(0, std::memory_order_relaxed);
    progress->blocks_total.store(job.pipeline.blocks_planned,
                                 std::memory_order_relaxed);
  }
  bool cancelled = false;
  Status failure = Status::OK();
  bool degradable_failure = false;  ///< kUnavailable the local engine can fix
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      // Aggregate progress, strictly increasing: per-assignment maxima of
      // live ticks and final counters, summed, published as a max. It runs
      // before the completion check so the last result lands in it too.
      if (progress != nullptr) {
        uint64_t blocks = 0, records = 0;
        for (const Assignment& a : run->assignments) {
          blocks += std::max(a.live_blocks, a.result.blocks_processed);
          records += std::max(a.live_records, a.result.records_processed);
        }
        if (blocks > progress->blocks_done.load(std::memory_order_relaxed)) {
          progress->blocks_done.store(blocks, std::memory_order_relaxed);
        }
        if (records >
            progress->records_done.load(std::memory_order_relaxed)) {
          progress->records_done.store(records, std::memory_order_relaxed);
        }
      }
      if (run->failed) {
        failure = run->fail_status;
        degradable_failure = true;
        break;
      }
      bool all_done = true;
      for (const Assignment& a : run->assignments) {
        if (!a.done) {
          all_done = false;
          break;
        }
      }
      if (all_done) break;
      if (shutting_down_) {
        failure = Status::Unavailable("coordinator is shutting down");
        break;
      }
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        cancelled = true;
        break;
      }
      if (plan.options.deadline != Clock::time_point::max() &&
          Clock::now() >= plan.options.deadline) {
        size_t pending = 0;
        for (const Assignment& a : run->assignments) {
          if (!a.done) ++pending;
        }
        failure = Status::DeadlineExceeded(
            "job deadline expired with " + std::to_string(pending) + " of " +
            std::to_string(run->assignments.size()) +
            " assignments incomplete");
        break;
      }

      // (Re)dispatch: assignments whose owner died or blew its deadline
      // go back to the pool with bounded attempts + doubling backoff.
      const auto now = Clock::now();
      std::vector<std::pair<std::shared_ptr<Worker>, const Assignment*>>
          sends;
      for (Assignment& a : run->assignments) {
        if (a.done) continue;
        if (!a.owner.empty()) {
          const std::shared_ptr<Worker> owner = FindWorkerLocked(a.owner);
          const bool owner_dead = owner == nullptr || !owner->alive;
          const bool timed_out = now >= a.deadline;
          if (!owner_dead && !timed_out) continue;
          a.owner.clear();
          ++stats_.reassignments;
          Metrics().reassignments->Inc();
          const double backoff =
              config_.reassign_backoff_s *
              static_cast<double>(1u << std::min(a.attempts, 10));
          a.retry_at = now + Seconds(backoff);
        }
        if (now < a.retry_at) continue;
        if (a.attempts >= config_.max_attempts) {
          run->failed = true;
          run->fail_status = Status::Unavailable(
              "assignment " + std::to_string(a.id) + " failed after " +
              std::to_string(a.attempts) + " attempts");
          break;
        }
        const std::vector<std::shared_ptr<Worker>> live =
            LiveWorkersLocked();
        if (live.empty()) {
          run->failed = true;
          run->fail_status =
              Status::Unavailable("no live workers remain for this job");
          break;
        }
        // A whole job goes to its rendezvous owner among the workers live
        // now (the planned worker unless membership changed); sliced
        // ranges spread round-robin over the sorted live set.
        std::shared_ptr<Worker> target;
        if (!sliceable) {
          std::vector<std::string> ids;
          for (const auto& worker : live) ids.push_back(worker->id);
          const std::string owner = WholeJobOwner(wire_request, ids);
          for (const auto& worker : live) {
            if (worker->id == owner) target = worker;
          }
        }
        if (target == nullptr) target = live[a.id % live.size()];
        a.owner = target->id;
        ++a.attempts;
        // The per-assignment watchdog never outlives the job's own budget:
        // a straggler past the job deadline is reclaimed (and the run
        // resolved) instead of quietly spending someone else's time.
        a.deadline = now + Seconds(config_.assign_timeout_s);
        if (plan.options.deadline != Clock::time_point::max() &&
            plan.options.deadline < a.deadline) {
          a.deadline = plan.options.deadline;
        }
        ++stats_.assignments_sent;
        Metrics().assignments->Inc();
        if (a.dispatch_ns == 0) a.dispatch_ns = TraceNowNs();
        sends.emplace_back(target, &a);
      }
      if (run->failed) continue;  // loop re-enters and breaks with status
      if (!sends.empty()) {
        // Socket writes happen outside mu_; a failed send marks the
        // worker dead and the next scan reassigns.
        std::vector<std::pair<std::shared_ptr<Worker>, std::string>> frames;
        std::vector<uint64_t> ids;
        for (const auto& [target, a] : sends) {
          frames.emplace_back(target, a->payload);
          ids.push_back(a->id);
        }
        lock.unlock();
        std::vector<std::shared_ptr<Worker>> broken;
        for (size_t i = 0; i < frames.size(); ++i) {
          if (!frames[i].first->conn
                   ->Send(wire::MsgType::kAssign, ids[i], frames[i].second)
                   .ok()) {
            broken.push_back(frames[i].first);
          }
        }
        lock.lock();
        for (const auto& worker : broken) MarkWorkerDeadLocked(worker);
        continue;
      }

      cv_.wait_for(lock, std::chrono::milliseconds(50));
    }

    // Deregister before releasing the lock: late results for this run are
    // duplicates from here on.
    for (const Assignment& a : run->assignments) {
      assignment_index_.erase(a.id);
    }
    active_runs_.erase(run_id);
    cv_.notify_all();  // Shutdown() may be draining active_runs_
  }

  if (cancelled) {
    // The engine's cancellation contract: OK with the partial (here:
    // empty) table and stats.cancelled set; workers finish their in-flight
    // assignments and the late results are ignored.
    if (stats != nullptr) {
      stats->cancelled = true;
      stats->total_s = watch.Seconds();
    }
    return ResultTable();
  }
  if (!failure.ok()) {
    if (degradable_failure) return fail_or_degrade(failure);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.jobs_failed;
    return failure;
  }

  // Per-assignment worker errors surface as the job's error (they are
  // deterministic — a retry elsewhere would fail identically for compile
  // errors, and transport-level failures never produce a done result).
  // kUnavailable is the one exception: it reports the worker's state, not
  // the job's, so it goes through the degradation path like quorum loss.
  for (const Assignment& a : run->assignments) {
    if (!a.result.status.ok()) return fail_or_degrade(a.result.status);
  }

  // Stitch the per-worker timelines into the job trace and charge the
  // wire/queueing overhead of each hop: the dispatch window minus the
  // worker's own run time is what scale-out cost beyond compute.
  double worker_hop_s = 0;
  for (const Assignment& a : run->assignments) {
    const int64_t dispatch_ns =
        a.done_ns > a.dispatch_ns ? a.done_ns - a.dispatch_ns : 0;
    if (dispatch_ns > a.result.run_ns) {
      worker_hop_s +=
          static_cast<double>(dispatch_ns - a.result.run_ns) * 1e-9;
    }
    if (tracer == nullptr || a.dispatch_span == 0) continue;
    TraceSpan dispatch;
    dispatch.span_id = a.dispatch_span;
    dispatch.parent_id = run_span.id();
    dispatch.name = "coord.dispatch";
    dispatch.start_ns = a.dispatch_ns;
    dispatch.duration_ns = dispatch_ns;
    dispatch.tags = "assignment=" + std::to_string(a.id) +
                    ",worker=" + a.owner;
    tracer->Record(std::move(dispatch));
    if (!a.result.spans.empty()) {
      // Re-anchor the worker's clock domain: its root span (the one
      // parented to our dispatch span) is pinned to our dispatch time.
      int64_t worker_root_start = 0;
      for (const TraceSpan& span : a.result.spans) {
        if (span.parent_id == a.dispatch_span) {
          worker_root_start = span.start_ns;
          break;
        }
      }
      tracer->Import(a.result.spans, a.dispatch_ns - worker_root_start);
    }
  }

  Stopwatch merge_watch;
  Result<ResultTable> table = [&]() -> Result<ResultTable> {
    DB_SPAN(trace, "coord.merge");
    return sliceable ? MergeSliced(job, *run)
                     : ResultTable::DeserializeFromString(
                           run->assignments[0].result.table_bytes);
  }();
  if (!table.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.jobs_failed;
    return table.status();
  }

  if (stats != nullptr) {
    bool all_converged = true;
    for (const Assignment& a : run->assignments) {
      stats->blocks_processed += a.result.blocks_processed;
      stats->records_processed += a.result.records_processed;
      all_converged = all_converged && a.result.all_converged != 0;
    }
    stats->blocks_total_planned = job.pipeline.blocks_planned;
    stats->num_shards = num_shards;
    stats->all_converged = all_converged;
    stats->merge_s = merge_watch.Seconds();
    stats->worker_hop_s = worker_hop_s;
    stats->total_s = watch.Seconds();
  }
  return table;
}

Result<ResultTable> ClusterCoordinator::MergeSliced(const JobPlan& job,
                                                    const RunState& run) {
  // Ascending shard_lo = ascending shard id: each worker pre-merged its
  // contiguous range in ascending order, so this fold visits shards
  // 0..S-1 in order — the in-process merge order.
  std::vector<size_t> order(run.assignments.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&run](size_t a, size_t b) {
    return run.assignments[a].shard_lo < run.assignments[b].shard_lo;
  });

  // Workers return one state per pair of the same PipelinePlan (a
  // sliceable plan has no composites), in its order.
  const InspectPlan& plan = job.compiled;
  ResultTable table;
  for (size_t i = 0; i < job.pipeline.pairs.size(); ++i) {
    const PlannedPair& pair = job.pipeline.pairs[i];
    const UnitGroupSpec& group = plan.models[pair.model_i].groups[pair.group_i];
    const MeasureFactory& measure = *plan.measures[pair.score_i];
    const HypothesisFn& hypothesis = *plan.hypotheses[pair.hyp_i];
    std::unique_ptr<Measure> state;
    for (size_t r : order) {
      const wire::AssignResultWire& result = run.assignments[r].result;
      if (i >= result.pair_states.size()) {
        return Status::DataLoss(
            "worker returned too few partial measure states");
      }
      std::unique_ptr<Measure> partial =
          measure.Create(group.unit_ids.size(), hypothesis.num_classes());
      codec::Reader reader(result.pair_states[i]);
      if (partial == nullptr || !partial->DeserializeState(&reader) ||
          !reader.exhausted()) {
        return Status::DataLoss("partial state for measure '" +
                                measure.name() + "' / hypothesis '" +
                                hypothesis.name() + "' failed to decode");
      }
      if (state == nullptr) {
        state = std::move(partial);
      } else {
        state->MergeFrom(*partial);
      }
    }
    if (state == nullptr) {
      return Status::Internal("sliced run produced no partial states");
    }
    AppendScoreRows(plan.models[pair.model_i].extractor->model_id(), group,
                    measure.name(), hypothesis.name(), state->Scores(),
                    &table);
  }
  return ApplyHaving(plan, std::move(table));
}

void ClusterCoordinator::Shutdown() {
  if (!running_.load(std::memory_order_acquire)) return;
  if (config_.install_engine) session_->scheduler().SetEngine({});
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  // Drain: every in-flight DistributedRun observes shutting_down_ and
  // resolves (kUnavailable) on its own scheduler thread.
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return active_runs_.empty(); });
  }
  closing_.store(true, std::memory_order_release);
  listener_.Stop();  // every worker reader runs its teardown and is joined
  if (monitor_thread_.joinable()) monitor_thread_.join();
  running_.store(false, std::memory_order_release);
}

std::vector<std::string> ClusterCoordinator::worker_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  for (const auto& worker : LiveWorkersLocked()) ids.push_back(worker->id);
  return ids;
}

size_t ClusterCoordinator::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return LiveWorkersLocked().size();
}

CoordinatorStats ClusterCoordinator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cluster
}  // namespace deepbase
