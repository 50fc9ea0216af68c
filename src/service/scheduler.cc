#include "service/scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "core/behavior_store.h"
#include "core/block_pipeline.h"
#include "util/failpoint.h"
#include "util/fnv.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace deepbase {

namespace {

// Drift guard for the SchedulerStats X-macro (see engine.cc for the
// RuntimeStats twin): every cumulative counter is a size_t, so a field
// added to the struct but not the macro changes sizeof and fails here.
#define DEEPBASE_COUNT_FIELD(type, name) +1
constexpr size_t kSchedulerCounterFieldCount =
    0 DEEPBASE_SCHEDULER_STATS_COUNTER_FIELDS(DEEPBASE_COUNT_FIELD);
#undef DEEPBASE_COUNT_FIELD
static_assert(kSchedulerCounterFieldCount == 14,
              "SchedulerStats counter list changed; update the X-macro and "
              "this count together");
static_assert(sizeof(SchedulerStats) ==
                  kSchedulerCounterFieldCount * 8 +
                      sizeof(SchedulerStats::Snapshot),
              "SchedulerStats has a counter missing from "
              "DEEPBASE_SCHEDULER_STATS_COUNTER_FIELDS");

// Process-global job metrics, registered once and cached (handles are
// stable; every hit after that is a relaxed atomic add).
struct JobMetrics {
  Counter* submitted;
  Counter* ok;
  Counter* error;
  Counter* cancelled;
  Counter* slow;
  Counter* dedup_followers;
  Counter* cache_hits;
  Counter* cache_misses;
  Counter* admission_rejections;
  Counter* trace_spans_dropped;
  Gauge* queue_depth;
  Histogram* latency;
};

JobMetrics& Metrics() {
  static JobMetrics* metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    auto* m = new JobMetrics();
    m->submitted = reg.GetCounter("deepbase_jobs_submitted_total");
    m->ok = reg.GetCounter("deepbase_jobs_total{status=\"ok\"}");
    m->error = reg.GetCounter("deepbase_jobs_total{status=\"error\"}");
    m->cancelled = reg.GetCounter("deepbase_jobs_total{status=\"cancelled\"}");
    m->slow = reg.GetCounter("deepbase_slow_jobs_total");
    m->dedup_followers = reg.GetCounter("deepbase_dedup_followers_total");
    m->cache_hits = reg.GetCounter("deepbase_result_cache_hits_total");
    m->cache_misses = reg.GetCounter("deepbase_result_cache_misses_total");
    m->admission_rejections =
        reg.GetCounter("deepbase_admission_rejections_total");
    m->trace_spans_dropped =
        reg.GetCounter("deepbase_trace_spans_dropped_total");
    m->queue_depth = reg.GetGauge("deepbase_queue_depth");
    m->latency = reg.GetHistogram("deepbase_job_latency_seconds",
                                  DefaultLatencyBounds());
    return m;
  }();
  return *metrics;
}

/// Count one job reaching a terminal state. `wall_s` < 0 skips the
/// latency histogram (callers without a submission timestamp).
void CountJobTerminal(const char* status, double wall_s) {
  JobMetrics& m = Metrics();
  if (std::strcmp(status, "ok") == 0) {
    m.ok->Inc();
  } else if (std::strcmp(status, "cancelled") == 0) {
    m.cancelled->Inc();
  } else {
    m.error->Inc();
  }
  if (wall_s >= 0) m.latency->Observe(wall_s);
}

/// Parse the catalog-version field out of a "cache:<fp>:<version>:<ds>"
/// blob key; false when the key is not a result-cache entry.
bool ParseBlobKeyVersion(const std::string& key, uint64_t* version) {
  constexpr char kPrefix[] = "cache:";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (key.rfind(kPrefix, 0) != 0) return false;
  const size_t fp_end = key.find(':', kPrefixLen);
  if (fp_end == std::string::npos) return false;
  const size_t version_end = key.find(':', fp_end + 1);
  if (version_end == std::string::npos) return false;
  uint64_t v = 0;
  for (size_t i = fp_end + 1; i < version_end; ++i) {
    const char c = key[i];
    int digit = 0;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *version = v;
  return true;
}

// Only complete, deterministic runs are cacheable/dedupable: a cancelled
// or budget-truncated result depends on wall-clock timing. A deadline is
// the same hazard as a finite time budget (whether the run completes
// depends on the clock), so deadline-bearing requests are excluded too —
// a no-deadline request must never share a run that ends in
// kDeadlineExceeded.
bool DeterministicOptions(const InspectOptions& options) {
  return options.max_blocks == std::numeric_limits<size_t>::max() &&
         std::isinf(options.time_budget_s) &&
         options.deadline == std::chrono::steady_clock::time_point::max();
}

// Batching key for shared-scan grouping: per model its id and resolved
// unit union — SharedScan keys blocks by it, so jobs share blocks however
// their groups partition the union, and a layer-0 job's blocks are never
// held pending for a layer-1 job — then the dataset fingerprint and the
// options that shape the block sequence.
std::string BatchKeyFor(const InspectPlan& plan) {
  std::string key;
  for (const ModelSpec& model : plan.models) {
    const std::vector<int> units = UnitUnion(model);
    key += model.extractor->model_id();
    key += '@';
    key += std::to_string(
        Fnv1a(units.data(), units.size() * sizeof(int), kFnvOffsetBasis));
    key += '|';
  }
  key += std::to_string(plan.dataset_fingerprint);
  // Scan-shaping options: jobs with different block sequences would never
  // share cached blocks anyway, so keep their groups separate.
  const InspectOptions& options = plan.options;
  key += '|';
  key += std::to_string(options.block_size);
  key += ':';
  key += std::to_string(options.shuffle_seed);
  key += ':';
  key += options.streaming ? 's' : 'm';
  key += ':';
  key += std::to_string(options.passes);
  return key;
}

// Rough extraction footprint of a plan (dataset symbols × unit count),
// the unit of the queued-bytes quota.
size_t QueuedBytesFor(const InspectPlan& plan) {
  size_t units = 0;
  for (const ModelSpec& model : plan.models) {
    units += model.extractor->num_units();
  }
  const size_t symbols = plan.dataset->num_records() * plan.dataset->ns();
  const size_t estimate =
      symbols * std::max<size_t>(units, 1) * sizeof(float);
  // An empty dataset still occupies a queue slot; charge a floor.
  return std::max<size_t>(estimate, size_t{1} << 10);
}

}  // namespace

std::string ResultCacheBlobKey(uint64_t fingerprint, uint64_t version,
                               uint64_t dataset_fingerprint) {
  return "cache:" + HexU64(fingerprint) + ":" + HexU64(version) + ":" +
         HexU64(dataset_fingerprint);
}

// ---------------------------------------------------------------------------
// ResultCache.
// ---------------------------------------------------------------------------

std::optional<ResultTable> ResultCache::Lookup(uint64_t fingerprint,
                                               uint64_t version,
                                               uint64_t dataset_fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  if (version < floor_version_) {
    // Below the admission floor: the catalog has already invalidated this
    // version; never serve it even if a late admission slipped an entry in.
    ++misses_;
    return std::nullopt;
  }
  auto it = index_.find({fingerprint, version});
  if (it != index_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->table;
  }
  if (persist_) {
    Result<std::string> blob = store_->GetBlob(
        ResultCacheBlobKey(fingerprint, version, dataset_fingerprint));
    if (blob.ok()) {
      Result<ResultTable> table = ResultTable::DeserializeFromString(*blob);
      if (table.ok()) {
        // Revalidated by construction: the blob key carries the catalog
        // version and dataset fingerprint this lookup asked for.
        ++hits_;
        ++persistent_hits_;
        ResultTable value = std::move(table).ValueOrDie();
        ResultTable copy = value;
        AdmitLocked(fingerprint, version, std::move(value));
        return copy;
      }
    }
  }
  ++misses_;
  return std::nullopt;
}

void ResultCache::Insert(uint64_t fingerprint, uint64_t version,
                         uint64_t dataset_fingerprint, ResultTable table) {
  // Serialization does not depend on cache state; keep it off the lock.
  std::string serialized;
  if (persist_) serialized = table.SerializeToString();
  std::lock_guard<std::mutex> lock(mu_);
  if (version < floor_version_) {
    // The stale-admission window, closed: this result was computed under
    // a catalog version that a Register* has already invalidated. Had it
    // been admitted, no later InvalidateBelow would sweep it (the sweep
    // already ran) and a restarted session whose version counter re-
    // reaches `version` could be served a stale table.
    ++stale_rejections_;
    return;
  }
  if (persist_) {
    ++persistent_writes_;
    // Best-effort: a full disk fails the Put, the memory tier still
    // works. The write stays under mu_ deliberately — the floor check
    // above and the blob write must be atomic against InvalidateBelow's
    // purge, or a racing Register* could sweep the directory *before*
    // this stale blob lands and it would survive on disk.
    store_->PutBlob(
        ResultCacheBlobKey(fingerprint, version, dataset_fingerprint),
        serialized);
  }
  AdmitLocked(fingerprint, version, std::move(table));
}

void ResultCache::AdmitLocked(uint64_t fingerprint, uint64_t version,
                              ResultTable table) {
  auto it = index_.find({fingerprint, version});
  if (it != index_.end()) EraseLocked(it->second);
  Entry entry;
  entry.fingerprint = fingerprint;
  entry.version = version;
  entry.bytes = table.EstimatedBytes();
  entry.table = std::move(table);
  bytes_ += entry.bytes;
  lru_.push_front(std::move(entry));
  index_[{fingerprint, version}] = lru_.begin();
  while (bytes_ > budget_ && lru_.size() > 1) {
    ++evictions_;
    EraseLocked(std::prev(lru_.end()));
  }
  if (bytes_ > budget_ && lru_.size() == 1) {
    // A single oversized result never fits; don't pin it.
    ++evictions_;
    EraseLocked(lru_.begin());
  }
}

void ResultCache::InvalidateBelow(uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (version <= floor_version_) return;  // already invalidated up to here
  floor_version_ = version;
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (it->version < version) {
      ++invalidations_;
      EraseLocked(it);
    }
    it = next;
  }
  if (persist_) {
    // Purge stale persisted entries too: a restarted session re-reaches
    // old version numbers (the counter starts at 0), so leaving them on
    // disk would let a different catalog at the same version be served a
    // stale table.
    for (const std::string& key : store_->BlobKeys()) {
      uint64_t blob_version = 0;
      if (!ParseBlobKeyVersion(key, &blob_version)) continue;
      if (blob_version < version) {
        store_->RemoveBlob(key);
        ++invalidations_;
      }
    }
  }
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

void ResultCache::EraseLocked(std::list<Entry>::iterator it) {
  bytes_ -= it->bytes;
  index_.erase({it->fingerprint, it->version});
  lru_.erase(it);
}

std::string ResultCache::PeekTier(uint64_t fingerprint, uint64_t version,
                                  uint64_t dataset_fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (version < floor_version_) return "";
  if (index_.count({fingerprint, version}) > 0) return "memory";
  if (persist_ && store_->ContainsBlob(ResultCacheBlobKey(
                      fingerprint, version, dataset_fingerprint))) {
    return "persistent";
  }
  return "";
}

size_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}
size_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}
size_t ResultCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}
size_t ResultCache::invalidations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return invalidations_;
}
size_t ResultCache::persistent_writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return persistent_writes_;
}
size_t ResultCache::persistent_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return persistent_hits_;
}
size_t ResultCache::stale_rejections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stale_rejections_;
}
size_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}
size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

// ---------------------------------------------------------------------------
// SchedulerStats.
// ---------------------------------------------------------------------------

void SchedulerStats::Accumulate(const SchedulerStats& other) {
#define DEEPBASE_SUM_FIELD(type, name) name += other.name;
  DEEPBASE_SCHEDULER_STATS_COUNTER_FIELDS(DEEPBASE_SUM_FIELD)
#undef DEEPBASE_SUM_FIELD
  // Gauges are point-in-time, not additive: the most recent poll wins.
  snapshot = other.snapshot;
}

// ---------------------------------------------------------------------------
// Scheduler.
// ---------------------------------------------------------------------------

Scheduler::Scheduler(InspectionSession* session)
    : session_(session),
      result_cache_(session->config_.result_cache_budget_bytes,
                    session->store_.get(),
                    session->config_.persist_result_cache) {
  if (session->store_ != nullptr && session->config_.persist_result_cache &&
      session->config_.result_cache_disk_quota_bytes > 0) {
    session->store_->SetBlobNamespaceQuota(
        "cache", session->config_.result_cache_disk_quota_bytes);
  }
}

void Scheduler::OnCatalogMutation(uint64_t version) {
  result_cache_.InvalidateBelow(version);
}

std::optional<Scheduler::GroupHandle> Scheduler::AttachToGroup(
    const std::string& key) {
  if (!session_->config_.enable_shared_scan) return std::nullopt;
  GroupHandle handle;
  handle.key = key;
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<SharedScan>& scan = groups_[key];
  if (scan == nullptr) {
    scan = std::make_shared<SharedScan>(
        session_->config_.shared_scan_budget_bytes);
    ++groups_formed_;
  } else {
    ++jobs_coscheduled_;
  }
  handle.scan = scan;
  handle.client = std::make_shared<SharedScanClient>(scan);
  return handle;
}

void Scheduler::ReleaseGroup(GroupHandle* group) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    scan_extractions_ += group->client->extractions();
    scan_shared_hits_ += group->client->shared_hits();
  }
  group->client.reset();  // detaches this job from the scan
  std::lock_guard<std::mutex> lock(mu_);
  auto it = groups_.find(group->key);
  if (it != groups_.end() && it->second == group->scan &&
      it->second->attached() == 0) {
    groups_.erase(it);
  }
  group->scan.reset();
}

void Scheduler::OnJobStarted(size_t queued_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queued_jobs_ > 0) --queued_jobs_;
  queued_bytes_ -= std::min(queued_bytes_, queued_bytes);
}

void Scheduler::OnJobFinished() {
  Metrics().queue_depth->Sub(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (active_jobs_ > 0) --active_jobs_;
}

void Scheduler::UnregisterLocked(const Run& run) {
  if (!run.plan->dedupable) return;
  auto it = runs_.find(
      {*run.plan->fingerprint, run.plan->compiled.catalog_version});
  if (it != runs_.end() && it->second.get() == &run) runs_.erase(it);
}

void Scheduler::CancelHandle(const std::shared_ptr<Run>& run,
                             const std::shared_ptr<internal::JobState>& state) {
  std::shared_ptr<internal::JobState> next_reporter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(run->handles.begin(), run->handles.end(), state);
    if (it == run->handles.end()) return;  // the run is resolving it
    if (run->handles.size() == 1) {
      // The last handle stops the run, which resolves it from what the
      // engine observed. The run leaves the registry now, so a later
      // identical request starts a fresh run.
      run->cancel.store(true, std::memory_order_relaxed);
      UnregisterLocked(*run);
      return;
    }
    if (it == run->handles.begin() && run->started) {
      next_reporter = run->handles[1];
    }
    run->handles.erase(it);
  }
  // Other handles share the run: it goes on for them, untouched.
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->on_cancel = nullptr;
    state->status = JobStatus::kCancelled;
    state->result = Status::Cancelled("job " + std::to_string(state->id) +
                                      " cancelled; its shared run goes on");
    state->cv.notify_all();
  }
  FinalizeJob(state, "cancelled");
  if (next_reporter != nullptr) {
    // It reports the run from now on.
    std::lock_guard<std::mutex> lock(next_reporter->mu);
    if (next_reporter->status == JobStatus::kQueued) {
      next_reporter->status = JobStatus::kRunning;
    }
  }
}

void Scheduler::SetEngine(EngineHook hook) {
  std::shared_ptr<const EngineHook> engine;
  if (hook.run) engine = std::make_shared<const EngineHook>(std::move(hook));
  std::lock_guard<std::mutex> lock(mu_);
  engine_ = std::move(engine);
}

std::shared_ptr<const EngineHook> Scheduler::Engine() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_;
}

ClusterDispatch Scheduler::Dispatch(const JobPlan& job) const {
  const std::shared_ptr<const EngineHook> engine = Engine();
  return engine != nullptr && engine->dispatch ? engine->dispatch(job)
                                               : ClusterDispatch{};
}

void Scheduler::FinalizeJob(const std::shared_ptr<internal::JobState>& state,
                            const char* status) {
  std::shared_ptr<Tracer> tracer;
  uint64_t root_span = 0;
  int64_t submit_ns = 0;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->finalized) return;
    state->finalized = true;
    tracer = state->tracer;
    root_span = state->root_span;
    submit_ns = state->submit_ns;
  }
  const int64_t now_ns = TraceNowNs();
  const double wall_s =
      submit_ns > 0 ? static_cast<double>(now_ns - submit_ns) * 1e-9 : -1;
  CountJobTerminal(status, wall_s);
  if (tracer == nullptr) return;
  // The root span is recorded here, at the terminal transition, so the
  // slow-job dump below always sees a complete tree.
  TraceSpan root;
  root.span_id = root_span;
  root.parent_id = 0;
  root.name = "sched.job";
  root.start_ns = submit_ns;
  root.duration_ns = now_ns - submit_ns;
  root.tags = std::string("status=") + status;
  tracer->Record(std::move(root));
  // Per-job ring overflow, exported once at the terminal transition (the
  // `finalized` latch above guarantees exactly one count per job).
  if (tracer->dropped() > 0) {
    Metrics().trace_spans_dropped->Inc(tracer->dropped());
  }
  const double threshold = session_->config_.slow_job_threshold_s;
  if (threshold > 0 && wall_s > threshold) {
    Metrics().slow->Inc();
    DB_LOG(Warn) << "slow job trace=" << HexU64(tracer->trace_id())
                 << " wall_s=" << wall_s << " threshold_s=" << threshold
                 << " status=" << status << " dropped_spans="
                 << tracer->dropped() << " — span tree follows";
    for (const TraceSpan& span : tracer->Spans()) {
      DB_LOG(Warn) << FormatSpanLogLine(tracer->trace_id(), span, submit_ns);
    }
  }
}

void Scheduler::Execute(const std::shared_ptr<Run>& run,
                        std::optional<GroupHandle> group) {
  const JobPlan& job = *run->plan;
  std::shared_ptr<internal::JobState> reporter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    run->started = true;
    reporter = run->handles.front();
  }
  {
    // A handle that detached since it was picked above is resolved
    // already, and CancelHandle has marked the next one running.
    std::lock_guard<std::mutex> lock(reporter->mu);
    if (reporter->status == JobStatus::kQueued) {
      const int64_t start_ns = TraceNowNs();
      reporter->status = JobStatus::kRunning;
      reporter->queue_s =
          static_cast<double>(start_ns - reporter->submit_ns) * 1e-9;
      if (reporter->tracer != nullptr) {
        TraceSpan queue_span;
        queue_span.span_id = NewSpanId();
        queue_span.parent_id = reporter->root_span;
        queue_span.name = "sched.queue";
        queue_span.start_ns = reporter->submit_ns;
        queue_span.duration_ns = start_ns - reporter->submit_ns;
        reporter->tracer->Record(std::move(queue_span));
      }
    }
  }

  RuntimeStats stats;
  Result<ResultTable> result = Status::Cancelled("cancelled before execution");
  // The engine's spans, kept apart from any one handle's trace: the handle
  // that reports the run when it resolves imports them.
  std::optional<Tracer> run_spans;
  if (run->cancel.load(std::memory_order_relaxed)) {
    // Cancelled while queued: detach, so the fused group's pending-block
    // accounting does not wait on a job that will never read anything.
    if (group) ReleaseGroup(&*group);
    stats.cancelled = true;
  } else {
    InspectPlan plan = job.compiled;
    InspectOptions& options = plan.options;
    session_->AttachSubstrate(&options);
    // Nothing sets a sync caller's run flag, so the flag its request
    // carries, if any, stops the run (a worker's whole assignment passes
    // one), and its counter reports the run unless handles may share it.
    if (!run->sync || options.cancel == nullptr) options.cancel = &run->cancel;
    if (!run->sync || options.progress == nullptr || job.dedupable) {
      options.progress = run->progress.get();
    }
    if (group) options.shared_scan = group->client.get();
    if (options.tracer == nullptr && reporter->tracer != nullptr) {
      // A request that already carries its own tracer (a worker replaying
      // a coordinator assignment) keeps it.
      run_spans.emplace(reporter->tracer->trace_id(),
                        session_->config_.trace_ring_capacity);
      options.tracer = &*run_spans;
      options.trace_parent_span = reporter->root_span;
    }
    const std::shared_ptr<const EngineHook> engine = Engine();
    result = engine != nullptr ? engine->run(job, plan, &stats)
                               : RunPlan(plan, &stats, &job.pipeline);
    if (group) ReleaseGroup(&*group);
    if (job.cacheable) {
      stats.result_cache_misses = 1;
      Metrics().cache_misses->Inc();
      // Only complete, deterministic runs are cacheable. Staleness is
      // handled inside Insert: its admission floor was raised
      // synchronously by any Register* that happened while this job ran,
      // so a result computed under an invalidated catalog version is
      // rejected there — no check-then-insert race against the catalog.
      if (result.ok() && !stats.cancelled && job.deterministic) {
        result_cache_.Insert(*job.fingerprint, job.compiled.catalog_version,
                             job.compiled.dataset_fingerprint, *result);
      }
    }
  }

  // Retire the registry entry before any handle resolves, so "every
  // handle resolved" implies "registry clean".
  std::vector<std::shared_ptr<internal::JobState>> handles;
  {
    std::lock_guard<std::mutex> lock(mu_);
    UnregisterLocked(*run);
    handles.swap(run->handles);
  }
  // The first handle left reports the run: the engine's stats and spans,
  // its spans hung under that handle's root. Every other handle reports
  // the run's shards and wall clock, and every handle but the creator
  // counts a dedup hit.
  internal::JobState& first = *handles.front();
  if (run_spans && first.tracer != nullptr) {
    std::vector<TraceSpan> spans = run_spans->Spans();
    for (TraceSpan& span : spans) {
      if (span.parent_id == reporter->root_span) {
        span.parent_id = first.root_span;
      }
    }
    first.tracer->Import(spans, /*offset_ns=*/0);
    if (run_spans->dropped() > 0) {
      Metrics().trace_spans_dropped->Inc(run_spans->dropped());
    }
  }
  RuntimeStats shared;
  shared.num_shards = stats.num_shards;
  shared.total_s = stats.total_s;
  const char* status =
      stats.cancelled ? "cancelled" : (result.ok() ? "ok" : "error");
  for (size_t i = 0; i < handles.size(); ++i) {
    internal::JobState& state = *handles[i];
    {
      std::lock_guard<std::mutex> lock(state.mu);
      state.on_cancel = nullptr;
      state.stats = i == 0 ? stats : shared;
      state.stats.dedup_hits = handles[i] == run->creator ? 0 : 1;
      // Key off what the engine actually observed (stats.cancelled), not
      // the flag: a Cancel() racing with completion must not discard a
      // fully computed result. A run stops early when its last handle
      // cancels it, or a sync caller's own flag stops it; every handle
      // left then resolves cancelled.
      if (stats.cancelled) {
        state.status = JobStatus::kCancelled;
        state.result = Status::Cancelled(
            "job " + std::to_string(state.id) + " cancelled after " +
            std::to_string(stats.blocks_processed) + " blocks");
      } else {
        state.status = JobStatus::kDone;
        state.result =
            i + 1 < handles.size() ? result : std::move(result);
      }
      state.cv.notify_all();
    }
    FinalizeJob(handles[i], status);
  }
}

std::shared_ptr<const JobPlan> Scheduler::PlanJob(
    InspectRequest request) const {
  const SessionConfig& config = session_->config_;
  auto plan = std::make_shared<JobPlan>();
  // The job's one compile: every later stage reads this plan, so the job
  // runs the catalog as of compiled.catalog_version.
  Result<InspectPlan> compiled =
      session_->catalog_.Compile(request, config.options);
  plan->request = std::move(request);
  if (!compiled.ok()) {
    plan->status = compiled.status();
    return plan;
  }
  plan->compiled = std::move(compiled).ValueOrDie();
  InspectOptions& options = plan->compiled.options;
  // The job's one shard count: the request's, else the default of the
  // engine that will run it — the installed engine's, or one shard per
  // thread of the pool the session attaches (ThreadPool's own 0 =
  // hardware-concurrency rule).
  const std::shared_ptr<const EngineHook> engine = Engine();
  size_t default_shards =
      config.num_threads != 0
          ? config.num_threads
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  if (options.pool != nullptr) default_shards = options.pool->num_threads();
  if (engine != nullptr) default_shards = engine->default_shards;
  options.num_shards = ResolveShardCount(options.num_shards, default_shards);
  plan->pipeline =
      PlanPipeline(plan->compiled.models, *plan->compiled.dataset,
                   plan->compiled.measures, plan->compiled.hypotheses, options,
                   plan->compiled.dataset_fingerprint);
  plan->deterministic = DeterministicOptions(options);
  // The fingerprint keys both the result cache and the dedup registry;
  // either feature alone needs it. Bit-exact shard merges make full
  // sweeps shard-count-invariant, so only early-stopping requests hash
  // the pinned shard count (see HashOptions in core/catalog.cc).
  if (config.enable_result_cache || config.enable_inflight_dedup) {
    plan->fingerprint =
        InspectRequestFingerprint(plan->request, plan->compiled, options);
  }
  plan->cacheable = plan->fingerprint.has_value() && config.enable_result_cache;
  plan->dedupable = plan->fingerprint.has_value() &&
                    config.enable_inflight_dedup && plan->deterministic;
  plan->group_key = BatchKeyFor(plan->compiled);
  plan->queued_bytes = QueuedBytesFor(plan->compiled);
  return plan;
}

Status Scheduler::QuotaLocked(const JobPlan& plan, bool queued) const {
  const SessionConfig& config = session_->config_;
  if (config.max_concurrent_jobs > 0 &&
      active_jobs_ >= config.max_concurrent_jobs) {
    return Status::ResourceExhausted(
        "concurrent-job quota exhausted: " + std::to_string(active_jobs_) +
        " active, quota " + std::to_string(config.max_concurrent_jobs));
  }
  // Keyed on queued (not running) jobs: the first job into an empty queue
  // is always admitted, even over-size, so a single large request cannot
  // wedge the session.
  if (queued && config.max_queued_bytes > 0 && queued_jobs_ > 0 &&
      queued_bytes_ + plan.queued_bytes > config.max_queued_bytes) {
    return Status::ResourceExhausted(
        "queued-bytes quota exhausted: " + std::to_string(queued_bytes_) +
        " queued + " + std::to_string(plan.queued_bytes) +
        " requested > quota " + std::to_string(config.max_queued_bytes));
  }
  return Status::OK();
}

void Scheduler::NewState(Commit* commit,
                         std::shared_ptr<const ProgressCounter> progress,
                         const std::shared_ptr<Run>& run) {
  auto state = std::make_shared<internal::JobState>(std::move(progress));
  state->tracer = commit->tracer;
  state->root_span = commit->root_span;
  state->submit_ns = commit->submit_ns;
  if (run != nullptr) {
    std::weak_ptr<Run> weak_run = run;
    std::weak_ptr<internal::JobState> weak_state = state;
    state->on_cancel = [this, weak_run, weak_state] {
      std::shared_ptr<Run> locked_run = weak_run.lock();
      std::shared_ptr<internal::JobState> locked_state = weak_state.lock();
      if (locked_run && locked_state) CancelHandle(locked_run, locked_state);
    };
  }
  if (commit->listed) session_->ListJob(state);
  if (run != nullptr) run->handles.push_back(state);
  commit->state = std::move(state);
}

Admission Scheduler::Admit(const std::shared_ptr<const JobPlan>& job,
                           bool queued, Commit* commit) {
  const JobPlan& plan = *job;
  Admission verdict;
  // A rejection or a cache hit: the job is born terminal, reporting a
  // counter no run touches.
  auto born_terminal = [&](Admission::Outcome outcome, Status why) {
    verdict.outcome = outcome;
    verdict.status = std::move(why);
    if (commit != nullptr) {
      NewState(commit, std::make_shared<ProgressCounter>(), nullptr);
    }
    return verdict;
  };
  auto reject = [&](Status why) {
    return born_terminal(Admission::Outcome::kRejected, std::move(why));
  };
  if (commit != nullptr) {
    Metrics().submitted->Inc();
    std::lock_guard<std::mutex> lock(mu_);
    ++jobs_scheduled_;
  }

  // 0. Compile: a request that does not resolve never takes a slot.
  if (!plan.status.ok()) return reject(plan.status);
  // 1. Deadline: a request that can no longer finish never takes a slot.
  const InspectOptions& options = plan.compiled.options;
  if (options.deadline != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() >= options.deadline) {
    return reject(
        Status::DeadlineExceeded("job deadline expired before admission"));
  }
  if (commit != nullptr && failpoint::Armed()) {
    Status fault = failpoint::Evaluate("scheduler.admit");
    if (!fault.ok()) return reject(std::move(fault));
  }

  // 2. Result cache.
  const uint64_t version = plan.compiled.catalog_version;
  if (plan.cacheable) {
    const uint64_t dataset_fingerprint = plan.compiled.dataset_fingerprint;
    if (commit == nullptr) {
      verdict.cache_tier = result_cache_.PeekTier(*plan.fingerprint, version,
                                                  dataset_fingerprint);
      if (!verdict.cache_tier.empty()) {
        verdict.outcome = Admission::Outcome::kCacheHit;
        return verdict;
      }
    } else {
      result_cache_.InvalidateBelow(version);
      commit->table = result_cache_.Lookup(*plan.fingerprint, version,
                                           dataset_fingerprint);
      if (commit->table) {
        Metrics().cache_hits->Inc();
        return born_terminal(Admission::Outcome::kCacheHit, Status::OK());
      }
    }
  }

  // Stages 3-5 decide under one lock, so a rejected request leaves no
  // registry entry behind and a registered run always has a handle.
  std::lock_guard<std::mutex> lock(mu_);
  // 3. Attach to the live run of an identical request.
  if (plan.dedupable) {
    auto it = runs_.find({*plan.fingerprint, version});
    if (it != runs_.end()) {
      if (commit != nullptr) {
        commit->run = it->second;
        NewState(commit, commit->run->progress, commit->run);
        ++dedup_followers_;
        Metrics().dedup_followers->Inc();
      }
      verdict.outcome = Admission::Outcome::kWaiter;
      return verdict;
    }
  }
  // 4. Quota.
  if (Status quota = QuotaLocked(plan, queued); !quota.ok()) {
    if (commit != nullptr) {
      ++admission_rejections_;
      Metrics().admission_rejections->Inc();
    }
    return reject(std::move(quota));
  }
  // 5. A new run.
  if (commit != nullptr) {
    ++active_jobs_;
    Metrics().queue_depth->Add(1);
    if (queued) {
      ++queued_jobs_;
      commit->queued_bytes =
          session_->config_.max_queued_bytes > 0 ? plan.queued_bytes : 0;
      queued_bytes_ += commit->queued_bytes;
    }
    commit->run = std::make_shared<Run>(job, /*sync_caller=*/!commit->listed);
    NewState(commit, commit->run->progress, commit->run);
    commit->run->creator = commit->state;
    if (plan.dedupable) runs_[{*plan.fingerprint, version}] = commit->run;
  }
  verdict.outcome = Admission::Outcome::kLeader;
  return verdict;
}

void Scheduler::ResolveBornTerminal(const Admission& admission,
                                    const JobPlan& plan, Commit* commit) {
  const bool hit = admission.outcome == Admission::Outcome::kCacheHit;
  internal::JobState& state = *commit->state;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.status = JobStatus::kDone;
    state.stats.result_cache_hits = hit ? 1 : 0;
    // The served table is the one this plan's S computes.
    if (hit) state.stats.num_shards = plan.pipeline.num_shards;
    state.result = hit ? Result<ResultTable>(std::move(*commit->table))
                       : Result<ResultTable>(admission.status);
    state.cv.notify_all();
  }
  FinalizeJob(commit->state, hit ? "ok" : "error");
}

Result<ResultTable> Scheduler::RunSync(const InspectRequest& request,
                                       RuntimeStats* stats) {
  Commit commit;
  commit.submit_ns = TraceNowNs();
  const std::shared_ptr<const JobPlan> plan = PlanJob(request);
  const Admission admission = Admit(plan, /*queued=*/false, &commit);
  switch (admission.outcome) {
    case Admission::Outcome::kRejected:
    case Admission::Outcome::kCacheHit:
      ResolveBornTerminal(admission, *plan, &commit);
      break;
    case Admission::Outcome::kWaiter:
      break;  // the run's executor resolves this caller
    case Admission::Outcome::kLeader:
      Execute(commit.run, AttachToGroup(plan->group_key));
      OnJobFinished();
      break;
  }
  internal::JobState& state = *commit.state;
  std::unique_lock<std::mutex> lock(state.mu);
  state.cv.wait(lock, [&state] {
    return state.status == JobStatus::kDone ||
           state.status == JobStatus::kCancelled;
  });
  if (stats != nullptr) *stats = state.stats;
  return std::move(*state.result);
}

JobHandle Scheduler::Submit(InspectRequest request, uint64_t trace_id) {
  // Submission time precedes the compile, so the admit span covers it.
  const int64_t submit_ns = TraceNowNs();
  return Enqueue(PlanJob(std::move(request)), trace_id, submit_ns);
}

JobHandle Scheduler::Submit(std::shared_ptr<const JobPlan> plan,
                            uint64_t trace_id) {
  return Enqueue(std::move(plan), trace_id, TraceNowNs());
}

JobHandle Scheduler::Enqueue(std::shared_ptr<const JobPlan> plan,
                             uint64_t trace_id, int64_t submit_ns) {
  Commit commit;
  commit.listed = true;
  commit.submit_ns = submit_ns;
  // The job's tracer exists before any admission decision, so even
  // born-terminal handles carry a (tiny) trace. An inbound trace_id (the
  // serving layer) is adopted; 0 mints a fresh one.
  if (session_->config_.enable_tracing) {
    commit.tracer = std::make_shared<Tracer>(
        trace_id != 0 ? trace_id : NewTraceId(),
        session_->config_.trace_ring_capacity);
    commit.root_span = NewSpanId();
  }
  const Admission admission = Admit(plan, /*queued=*/true, &commit);
  const JobHandle handle(commit.state);
  switch (admission.outcome) {
    case Admission::Outcome::kRejected:
    case Admission::Outcome::kCacheHit:
      // Born terminal: Submit has no Status channel of its own.
      ResolveBornTerminal(admission, *plan, &commit);
      return handle;
    case Admission::Outcome::kWaiter:
      return handle;  // the run's executor resolves it
    case Admission::Outcome::kLeader:
      break;
  }

  if (commit.tracer != nullptr) {
    // Admission is over: one span covers the compile and plan, the
    // deadline gate, the cache probe, and the dedup/quota critical
    // section.
    TraceSpan admit_span;
    admit_span.span_id = NewSpanId();
    admit_span.parent_id = commit.root_span;
    admit_span.name = "sched.admit";
    admit_span.start_ns = submit_ns;
    admit_span.duration_ns = TraceNowNs() - submit_ns;
    if (plan->dedupable) admit_span.tags = "dedup=leader";
    commit.tracer->Record(std::move(admit_span));
  }

  ThreadPool* pool = session_->EnsurePool();
  // Group membership is claimed at submit time (not when the worker picks
  // the job up), so every job queued in one burst lands in one group.
  std::optional<GroupHandle> group = AttachToGroup(plan->group_key);
  pool->Submit([this, run = std::move(commit.run),
                charged = commit.queued_bytes,
                group = std::move(group)]() mutable {
    OnJobStarted(charged);
    Execute(run, std::move(group));
    OnJobFinished();
  });
  return handle;
}

SchedulerProbe Scheduler::Probe(const InspectRequest& request) {
  SchedulerProbe probe;
  probe.plan = PlanJob(request);
  probe.admission = Admit(probe.plan, /*queued=*/true, /*commit=*/nullptr);
  if (probe.plan->status.ok()) probe.cluster = Dispatch(*probe.plan);
  probe.shared_scan_enabled = session_->config_.enable_shared_scan;
  std::lock_guard<std::mutex> lock(mu_);
  probe.group_exists = groups_.count(probe.plan->group_key) > 0;
  probe.active_jobs = active_jobs_;
  probe.queued_bytes = queued_bytes_;
  return probe;
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.jobs_scheduled = jobs_scheduled_;
    s.groups_formed = groups_formed_;
    s.jobs_coscheduled = jobs_coscheduled_;
    s.scan_extractions = scan_extractions_;
    s.scan_shared_hits = scan_shared_hits_;
    s.dedup_followers = dedup_followers_;
    s.admission_rejections = admission_rejections_;
    s.snapshot.inflight_jobs = runs_.size();
    s.snapshot.active_jobs = active_jobs_;
    s.snapshot.queued_bytes = queued_bytes_;
  }
  s.result_cache_hits = result_cache_.hits();
  s.result_cache_misses = result_cache_.misses();
  s.result_cache_evictions = result_cache_.evictions();
  s.result_cache_invalidations = result_cache_.invalidations();
  s.result_cache_persistent_hits = result_cache_.persistent_hits();
  s.result_cache_persistent_writes = result_cache_.persistent_writes();
  s.result_cache_stale_rejections = result_cache_.stale_rejections();
  s.snapshot.result_cache_bytes = result_cache_.bytes();
  s.snapshot.result_cache_entries = result_cache_.entries();
  return s;
}

size_t Scheduler::active_groups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return groups_.size();
}

size_t Scheduler::inflight_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_.size();
}

}  // namespace deepbase
