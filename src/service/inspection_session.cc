#include "service/inspection_session.h"

#include <utility>

#include "core/inspect_query.h"
#include "service/scheduler.h"

namespace deepbase {

namespace {

// Terminal state backing default-constructed (invalid) handles, so every
// JobHandle member is safe to call even before a Submit().
internal::JobState& InvalidJobState() {
  static internal::JobState* state = [] {
    auto* s = new internal::JobState(std::make_shared<ProgressCounter>());
    s->status = JobStatus::kCancelled;
    s->result = Status::Invalid("invalid job handle (no job submitted)");
    return s;
  }();
  return *state;
}

}  // namespace

uint64_t JobHandle::id() const { return state_ != nullptr ? state_->id : 0; }

JobStatus JobHandle::Poll() const {
  internal::JobState& state = state_ != nullptr ? *state_ : InvalidJobState();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.status;
}

JobStatus JobHandle::Poll(JobProgress* progress) const {
  const JobStatus status = Poll();
  if (progress != nullptr) {
    // The job's counter is fixed at creation (its run's), and updated
    // with relaxed atomics by whichever engine lane dispatches a block; a
    // snapshot needs no lock.
    const ProgressCounter& counter =
        *(state_ != nullptr ? *state_ : InvalidJobState()).progress;
    progress->status = status;
    progress->blocks_completed =
        counter.blocks_done.load(std::memory_order_relaxed);
    progress->blocks_total =
        counter.blocks_total.load(std::memory_order_relaxed);
    progress->records_processed =
        counter.records_done.load(std::memory_order_relaxed);
  }
  return status;
}

bool JobHandle::Done() const {
  const JobStatus status = Poll();
  return status == JobStatus::kDone || status == JobStatus::kCancelled;
}

const Result<ResultTable>& JobHandle::Wait() const {
  internal::JobState& state = state_ != nullptr ? *state_ : InvalidJobState();
  std::unique_lock<std::mutex> lock(state.mu);
  state.cv.wait(lock, [&state] {
    return state.status == JobStatus::kDone ||
           state.status == JobStatus::kCancelled;
  });
  return *state.result;
}

void JobHandle::Cancel() {
  if (state_ == nullptr) return;
  // The scheduler's hook detaches this job from a run other handles
  // share, or stops the run when this is its last handle; a terminal job
  // has none. Read under the lock, run outside it (the hook takes
  // scheduler locks).
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    hook = state_->on_cancel;
  }
  if (hook) hook();
}

RuntimeStats JobHandle::Stats() const {
  internal::JobState& state = state_ != nullptr ? *state_ : InvalidJobState();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.stats;
}

JobSummary JobHandle::Summary() const {
  internal::JobState& state = state_ != nullptr ? *state_ : InvalidJobState();
  std::lock_guard<std::mutex> lock(state.mu);
  JobSummary summary;
  summary.trace_id =
      state.tracer != nullptr ? state.tracer->trace_id() : 0;
  summary.queue_s = state.queue_s;
  summary.extract_s =
      state.stats.unit_extraction_s + state.stats.hyp_extraction_s;
  summary.score_s = state.stats.inspection_s;
  summary.merge_s = state.stats.merge_s;
  summary.worker_hop_s = state.stats.worker_hop_s;
  summary.total_s = state.stats.total_s;
  return summary;
}

std::vector<TraceSpan> JobHandle::TraceSpans() const {
  std::shared_ptr<Tracer> tracer;
  if (state_ != nullptr) {
    std::lock_guard<std::mutex> lock(state_->mu);
    tracer = state_->tracer;
  }
  return tracer != nullptr ? tracer->Spans() : std::vector<TraceSpan>{};
}

InspectionSession::InspectionSession(SessionConfig config)
    : config_(std::move(config)) {
  if (!config_.store_dir.empty()) {
    store_ = std::make_unique<BehaviorStore>(
        config_.store_dir, config_.store_memory_budget_bytes);
    if (config_.store_unit_quota_bytes > 0) {
      store_->SetNamespaceQuota("unit", config_.store_unit_quota_bytes);
    }
    if (config_.store_hyp_quota_bytes > 0) {
      store_->SetNamespaceQuota("hyp", config_.store_hyp_quota_bytes);
    }
  }
  if (store_ == nullptr && config_.hypothesis_cache_values > 0) {
    hyp_store_ = std::make_unique<BehaviorStore>(
        "", config_.hypothesis_cache_values * sizeof(float));
  }
  scheduler_ = std::make_unique<Scheduler>(this);
  // Close the stale-admission window: every Register* raises the result
  // cache's admission floor synchronously, so a job that started under
  // the old catalog version cannot admit its result after the mutation.
  catalog_.SetMutationListener(
      [this](uint64_t version) { scheduler_->OnCatalogMutation(version); });
}

uint64_t InspectionSession::catalog_version() const {
  return catalog_.version();
}

ThreadPool* InspectionSession::EnsurePool() {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
  return pool_.get();
}

InspectionSession::~InspectionSession() {
  // The pool destructor drains the queue and joins, so every outstanding
  // job reaches a terminal state before the catalog/store/cache go away.
  pool_.reset();
  // The scheduler is destroyed before the catalog; drop the listener so a
  // stray Register* on a dying session cannot call into freed memory.
  catalog_.SetMutationListener(nullptr);
}

void InspectionSession::AttachSubstrate(InspectOptions* options) {
  if (options->behavior_store == nullptr) {
    options->behavior_store = store_.get();
  }
  if (options->hypothesis_store == nullptr) {
    options->hypothesis_store = hypothesis_store();
  }
  // Intra-job sharding runs on the session pool; num_shards == 1 keeps
  // sync-only sessions thread-free.
  if (options->pool == nullptr && options->num_shards != 1) {
    options->pool = EnsurePool();
  }
}

void InspectionSession::ListJob(
    const std::shared_ptr<internal::JobState>& state) {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  state->id = next_job_id_++;
  jobs_.push_back(state);
}

Result<ResultTable> InspectionSession::Inspect(const InspectRequest& request,
                                               RuntimeStats* stats) {
  return scheduler_->RunSync(request, stats);
}

Result<ResultTable> InspectionSession::Inspect(const InspectQuery& query,
                                               RuntimeStats* stats) {
  return Inspect(query.request(), stats);
}

JobHandle InspectionSession::Submit(InspectRequest request) {
  return scheduler_->Submit(std::move(request), /*trace_id=*/0);
}

JobHandle InspectionSession::Submit(InspectRequest request,
                                    uint64_t trace_id) {
  return scheduler_->Submit(std::move(request), trace_id);
}

JobHandle InspectionSession::Submit(const InspectQuery& query) {
  return Submit(query.request());
}

std::vector<JobHandle> InspectionSession::Jobs() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  std::vector<JobHandle> handles;
  handles.reserve(jobs_.size());
  for (const auto& state : jobs_) handles.push_back(JobHandle(state));
  return handles;
}

}  // namespace deepbase
