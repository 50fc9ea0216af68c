// bench_paper: the paper-level benchmark of the DeepBase reproduction.
//
// One program, four workloads (kWorkloads below). Each is a closed loop
// with zero think time — analysts wait for each result before sending the
// next query — generated from this one process with at most 4 load
// threads, over model worlds that are fixed inputs (built with seed 33).
// The --seed picks what varies: hypothesis subsets, measures, the op mix
// and the positions of catalog writes.
//
//   ablation  — the optimisation ladder of Fig. 5/8 on pearson and L1
//               logreg queries: the loop runs DeepBase, and traced runs
//               add the whole ladder (MADlib, PyBase, +MM, +MM+ES,
//               DeepBase) after it.
//               Extraction, hypothesis evaluation, the scoring kernels and
//               SGD, and the block pipeline's streaming / merging /
//               early-stop flags do all the work; the store, scheduler,
//               wire and cluster layers are idle.
//   reinspect — the model-development loop of Fig. 9 / §6.3: re-inspect a
//               corpus whose unit behaviors exceed the store's memory
//               budget (served from the mmap tier) while hypotheses churn
//               through the LRU; every 25th op re-registers the model,
//               forcing store writes and a catalog bump.
//   serve     — four TCP clients against an in-process InspectionServer:
//               fresh queries fuse into shared scans, repeats and hot
//               queries hit the result cache or dedup, and remote
//               registrations invalidate the cache.
//   cluster   — a coordinator with two in-process workers runs sliceable
//               full sweeps on the LSTM extractor: dispatch, partial-state
//               serialization, merges and the worker hop.
//
// Usage:
//   bench_paper --workload W --seed S [--seconds N] [--trace]
//               [--out FILE] [--trace-out FILE] [--workdir DIR]
//   bench_paper --selfcheck [--workdir DIR]
//
// Prints a `host` line, then one `name value unit` line per metric, then
// `attempted N`, `failed N` and `correct 0|1`. Exits 1 when an output
// check fails. Times are seconds at a reference host speed (paper/speed.h
// probes the host between ops). --trace registers the timing decorators
// of paper/trace.h and reports the per-layer metrics; trace.overhead
// compares traced ops with untraced ops of the same class, interleaved in
// the same run.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/madlib.h"
#include "baselines/pybase.h"
#include "bench/common.h"
#include "cluster/coordinator.h"
#include "cluster/worker.h"
#include "core/behavior_store.h"
#include "core/inspect_parser.h"
#include "paper/speed.h"
#include "paper/stats.h"
#include "paper/trace.h"
#include "server/client.h"
#include "server/server.h"
#include "service/scheduler.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace deepbase {
namespace paperbench {
namespace {

constexpr uint64_t kWorldSeed = 33;
constexpr size_t kThreads = 4;
/// Above this probe interference (paper/speed.h) a run warns.
constexpr double kMaxProbeInterference = 0.10;
constexpr const char* kMeasureNames[] = {"pearson", "logreg_l1", "diff_means",
                                         "jaccard", "mutual_info"};

// ---------------------------------------------------------------------------
// Ops, metrics, run control.
// ---------------------------------------------------------------------------

/// One measured op (a job, in the metrics' vocabulary).
struct Op {
  uint64_t id = 0;  ///< 1-based, unique within the run
  int client = 0;
  size_t index = 0;  ///< position in its client's sequence
  std::string cls;   ///< op class, for traced-vs-untraced matching
  std::string key;   ///< request identity: equal keys give equal tables
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = true;
  bool traced = false;
  uint64_t digest = 0;  ///< FNV-1a of the serialized result table(s)
  bool has_stats = false;
  RuntimeStats stats;  ///< engine stats (the server-side job's for serve)
  bool remote = false;
  wire::ResultSummaryWire summary;
  double queue_s = 0;               ///< scheduler queue (JobSummary)
  int64_t submit_ns = 0;            ///< serve: the Submit RPC
  uint64_t unit_extract_calls = 0;  ///< traced ops: extract.unit calls

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Memory once the load has completed a fixed number of ops: what the
/// system holds after a fixed amount of work. (Sessions keep every job's
/// state, so memory grows with the ops a run gets through, and that count
/// follows the host's speed.) It is read at the gate's next stop, with no
/// op in flight: a concurrent client's running job holds blocks and
/// partial states that would otherwise count or not by timing.
class MemoryMark {
 public:
  MemoryMark(size_t at_op, ProbeGate* gate) : at_op_(at_op), gate_(gate) {}

  void OpDone() {
    if (done_.fetch_add(1) + 1 != at_op_) return;
    gate_->StopSoon([this] {
      heap_mb_.store(HeapInUseMb());
      rss_mb_.store(RssMb());
    });
  }
  /// The marks, or the current values if the run ended before them.
  double heap_mb() const {
    const double mb = heap_mb_.load();
    return mb > 0 ? mb : HeapInUseMb();
  }
  double rss_mb() const {
    const double mb = rss_mb_.load();
    return mb > 0 ? mb : RssMb();
  }

 private:
  size_t at_op_;
  ProbeGate* gate_;
  std::atomic<size_t> done_{0};
  std::atomic<double> heap_mb_{0};
  std::atomic<double> rss_mb_{0};
};

struct RunControl {
  int64_t deadline_ns = 0;    ///< start no op after this...
  size_t max_ops = 0;         ///< ...or run exactly this many (selfcheck)
  bool trace = false;         ///< decorators are registered
  bool alternate = false;     ///< trace every other op (untraced twins)
  ProbeGate* gate = nullptr;  ///< host speed probes between ops
  MemoryMark* memory = nullptr;

  bool Continue(size_t done) const {
    return max_ops > 0 ? done < max_ops : TraceNowNs() < deadline_ns;
  }
  /// Each client calls these around every op, and Leave when it stops.
  void BeforeOp() const {
    if (gate != nullptr) gate->Between();
  }
  void AfterOp() const {
    if (memory != nullptr) memory->OpDone();
  }
  void Leave() const {
    if (gate != nullptr) gate->Leave();
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t Digest(const ResultTable& table, uint64_t seed = kFnvOffsetBasis) {
  const std::string bytes = table.SerializeToString();
  return Fnv1a(bytes.data(), bytes.size(), seed);
}

/// Runs one op of a single-client loop: stamps its id, toggles the
/// recorder (every other op when alternating), times it, and records its
/// job span.
void RunOp(const RunControl& control, std::vector<Op>* ops, Op op,
           const std::function<void(Op*)>& body) {
  Recorder& rec = Recorder::Get();
  control.BeforeOp();
  op.id = ops->size() + 1;
  op.index = ops->size();
  op.traced = control.trace && (!control.alternate || op.id % 2 == 1);
  const uint64_t calls0 = rec.totals(Layer::kExtractUnit).calls.load();
  rec.set_job(op.id);
  rec.set_on(op.traced);
  op.start_ns = TraceNowNs();
  body(&op);
  op.end_ns = TraceNowNs();
  rec.set_on(false);
  if (op.traced) {
    rec.AddSpan(Span{Layer::kJob, op.start_ns, op.end_ns, op.id, 0});
    op.unit_extract_calls = rec.totals(Layer::kExtractUnit).calls.load() - calls0;
  }
  ops->push_back(std::move(op));
  control.AfterOp();
}

std::string MakeTempDir(const std::string& workdir, const std::string& tag) {
  std::filesystem::create_directories(workdir);
  std::string pattern =
      (std::filesystem::path(workdir) / ("store_" + tag + "_XXXXXX")).string();
  if (mkdtemp(pattern.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed under %s\n", workdir.c_str());
    std::exit(2);
  }
  return pattern;
}

/// Adds a job's own trace spans (the program's tracer, on by default) as
/// spans of op `job`, for the layer boundaries the bench cannot wrap.
void ImportProgramSpans(const std::vector<TraceSpan>& spans, bool cache_hit,
                        bool dedup, uint64_t job) {
  for (const TraceSpan& span : spans) {
    Layer layer = Layer::kJob;
    if (span.name == "sched.job") {
      if (!cache_hit && !dedup) continue;
      layer = cache_hit ? Layer::kCacheHit : Layer::kDedupWait;
    } else if (!ProgramLayer(span.name, &layer)) {
      continue;
    }
    Recorder::Get().AddSpan(
        Span{layer, span.start_ns, span.start_ns + span.duration_ns, job, 0});
  }
}

/// Submit + Wait on a local session: the scheduler path remote jobs take
/// too, with the job's stats and (traced ops) its program spans.
Result<ResultTable> SubmitAndWait(InspectionSession* session,
                                  const InspectRequest& request, Op* op) {
  JobHandle job = session->Submit(request);
  Result<ResultTable> result = job.Wait();
  const RuntimeStats stats = job.Stats();
  op->has_stats = true;
  op->stats.Accumulate(stats);
  op->queue_s += job.Summary().queue_s;
  if (op->traced) {
    ImportProgramSpans(job.TraceSpans(), stats.result_cache_hits > 0,
                       stats.dedup_hits > 0, op->id);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Catalog wiring: every workload registers its objects through these, so
// a traced run swaps in the decorators under the same names.
// ---------------------------------------------------------------------------

/// Extractors a session's catalog points at (the catalog does not own
/// them); destroyed after the session.
struct Extractors {
  std::vector<std::unique_ptr<Extractor>> owned;

  const Extractor* Make(const std::string& model_id, const LstmLm* model,
                        bool traced, ThreadPool* pool = nullptr) {
    owned.push_back(std::make_unique<LstmLmExtractor>(model_id, model, pool));
    if (traced) {
      owned.push_back(std::make_unique<TimedExtractor>(owned.back().get()));
    }
    return owned.back().get();
  }
};

void RegisterMeasures(Catalog* catalog, bool traced) {
  if (!traced) return;  // built-in names resolve without registration
  for (const char* name : kMeasureNames) {
    Result<MeasureFactoryPtr> factory = MeasureByName(name);
    DB_CHECK_OK(factory.status());
    catalog->RegisterMeasure(
        name, std::make_shared<TimedMeasureFactory>(*factory));
  }
}

std::vector<HypothesisPtr> MaybeTimed(const std::vector<HypothesisPtr>& hyps,
                                      bool traced) {
  return traced ? TimedHypotheses(hyps) : hyps;
}

std::vector<std::string> HypNames(const std::vector<HypothesisPtr>& hyps) {
  std::vector<std::string> names;
  for (const HypothesisPtr& h : hyps) names.push_back(h->name());
  return names;
}

/// `k` distinct names drawn from `pool`, sorted (a canonical filter).
std::vector<std::string> DrawSubset(const std::vector<std::string>& pool,
                                    size_t k, Rng* rng) {
  std::vector<size_t> idx(pool.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng->Shuffle(&idx);
  std::vector<std::string> out;
  for (size_t i = 0; i < std::min(k, idx.size()); ++i) out.push_back(pool[idx[i]]);
  std::sort(out.begin(), out.end());
  return out;
}

/// Op classes drawn in rounds: a round holds class i exactly counts[i]
/// times, in an order the rng shuffles. The seed moves where each class
/// falls, never how much of a run it is, so per-run latency quantiles do
/// not follow the seed's luck in the mix.
class ShuffledRounds {
 public:
  explicit ShuffledRounds(const std::vector<size_t>& counts) {
    for (size_t c = 0; c < counts.size(); ++c) round_.insert(round_.end(), counts[c], c);
    next_ = round_.size();
  }

  size_t Next(Rng* rng) {
    if (next_ == round_.size()) {
      rng->Shuffle(&round_);
      next_ = 0;
    }
    return round_[next_++];
  }

 private:
  std::vector<size_t> round_;
  size_t next_ = 0;
};

std::string KeyOf(const std::string& model, const std::string& measure,
                  const std::vector<std::string>& filter) {
  std::string key = model + "|" + measure;
  for (const std::string& f : filter) key += "|" + f;
  return key;
}

InspectRequest FilteredRequest(const std::string& model,
                               const std::string& set,
                               const std::vector<std::string>& filter,
                               const std::string& dataset,
                               const std::string& measure) {
  InspectRequest request;
  request.models.emplace_back().name = model;
  request.hypothesis_sets = {set};
  request.hypothesis_filter = filter;
  request.dataset_name = dataset;
  request.measure_names = {measure};
  return request;
}

/// The fixed model worlds. Training is an input, not part of set-up.
bench::SqlWorld BuildWorld(size_t records, int epochs) {
  return bench::BuildSqlWorld(/*level=*/3, records, /*ns=*/96, /*hidden=*/32,
                              /*layers=*/2, epochs, kWorldSeed);
}

// ---------------------------------------------------------------------------
// Workload interface.
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the environment the measured phase runs against (sessions,
  /// stores, servers, workers); timed as setup_s. Replaces any previous
  /// environment.
  virtual void Setup(bool traced) = 0;
  virtual void Teardown() = 0;
  /// The closed loop.
  virtual void Run(const RunControl& control, std::vector<Op>* ops) = 0;
  /// A fixed number of ops after the measured phase, for per-layer metrics
  /// only (traced runs and the selfcheck; no end-to-end metric counts them).
  virtual void RunReference(const RunControl&, std::vector<Op>*) {}
  /// Output checks after the measured phase; returns one line per failure.
  virtual std::vector<std::string> Check(const std::vector<Op>& ops) = 0;
  /// The session jobs are submitted to (the coordinator's, the server's).
  virtual InspectionSession& session() = 0;
  /// Workload-specific per-layer metrics from the layers' public outputs
  /// (RunWorkload fills in the ones every workload shares). Times are
  /// multiplied by `scale`, the run's host-speed factor.
  virtual void LayerMetrics(const std::vector<Op>& ops, double scale,
                            Metrics* out) = 0;
  /// Concurrent clients of the closed loop.
  virtual size_t clients() const { return 1; }
};

/// Every op with the same key must return the same table bytes.
std::vector<std::string> CheckEqualKeys(const std::vector<Op>& ops) {
  std::map<std::string, uint64_t> first;
  std::vector<std::string> failures;
  for (const Op& op : ops) {
    if (!op.ok || op.key.empty()) continue;
    auto [it, inserted] = first.emplace(op.key, op.digest);
    if (!inserted && it->second != op.digest) {
      failures.push_back("op " + std::to_string(op.id) + " (" + op.key +
                         ") returned different bytes than its first run");
    }
  }
  return failures;
}

/// Sums of RuntimeStats over ops that carry them.
RuntimeStats SumStats(const std::vector<Op>& ops) {
  RuntimeStats total;
  for (const Op& op : ops) {
    if (op.has_stats) total.Accumulate(op.stats);
  }
  return total;
}

double SumSeconds(const std::vector<Op>& ops) {
  double s = 0;
  for (const Op& op : ops) s += op.seconds();
  return s;
}

void PipelineMetrics(const std::vector<Op>& ops, Metrics* out) {
  const RuntimeStats t = SumStats(ops);
  const double wall = SumSeconds(ops);
  out->Set("pipeline.blocks_processed", t.blocks_processed, "count");
  out->Set("pipeline.blocks_planned", t.blocks_total_planned, "count");
  out->Set("pipeline.block_yield",
           Ratio(t.blocks_processed, t.blocks_total_planned), "ratio");
  out->Set("pipeline.unit_extraction_share", Ratio(t.unit_extraction_s, wall),
           "share");
  out->Set("pipeline.hyp_extraction_share", Ratio(t.hyp_extraction_s, wall),
           "share");
  out->Set("pipeline.inspection_share", Ratio(t.inspection_s, wall), "share");
  out->Set("pipeline.merge_share", Ratio(t.merge_s, wall), "share");
  out->Set("pipeline.lane_cpu_over_wall",
           Ratio(t.unit_extraction_s + t.hyp_extraction_s + t.inspection_s +
                     t.merge_s,
                 wall),
           "ratio");
  const size_t unit_reads =
      t.store_mem_hits + t.store_disk_hits + t.store_mmap_hits;
  const size_t hyp_reads = t.store_hyp_mem_hits + t.store_hyp_disk_hits;
  out->Set("store.unit.mem_hits", t.store_mem_hits, "count");
  out->Set("store.unit.disk_hits", t.store_disk_hits, "count");
  out->Set("store.unit.mmap_hits", t.store_mmap_hits, "count");
  out->Set("store.unit.misses", t.store_misses, "count");
  out->Set("store.hyp.mem_hits", t.store_hyp_mem_hits, "count");
  out->Set("store.hyp.disk_hits", t.store_hyp_disk_hits, "count");
  out->Set("store.hyp.misses", t.store_hyp_misses, "count");
  out->Set("store.hit_rate",
           Ratio(unit_reads + hyp_reads,
                 unit_reads + hyp_reads + t.store_misses + t.store_hyp_misses),
           "ratio");
  out->Set("store.bytes_written", t.store_bytes_written, "bytes");
  out->Set("store.evicted_bytes", t.store_evicted_bytes, "bytes");
  out->Set("hypcache.hits", t.cache_hits, "count");
  out->Set("hypcache.misses", t.cache_misses, "count");
}

/// Scheduler counters over the measured phase.
void SchedMetrics(const SchedulerStats& before, const SchedulerStats& after,
                  const std::vector<Op>& ops, Metrics* out) {
  const double wall = SumSeconds(ops);
  double queue_s = 0, dedup_wait_s = 0;
  for (const Op& op : ops) {
    queue_s += op.queue_s;
    if (op.stats.dedup_hits > 0) dedup_wait_s += op.seconds();
  }
  const double scan_hits =
      static_cast<double>(after.scan_shared_hits - before.scan_shared_hits);
  const double scan_ext =
      static_cast<double>(after.scan_extractions - before.scan_extractions);
  const double cache_hits =
      static_cast<double>(after.result_cache_hits - before.result_cache_hits);
  const double cache_misses = static_cast<double>(after.result_cache_misses -
                                                  before.result_cache_misses);
  out->Set("sched.queue_share", Ratio(queue_s, wall), "share");
  out->Set("sched.groups_formed", after.groups_formed - before.groups_formed,
           "count");
  out->Set("sched.jobs_coscheduled",
           after.jobs_coscheduled - before.jobs_coscheduled, "count");
  out->Set("sched.scan_shared_rate", Ratio(scan_hits, scan_hits + scan_ext),
           "ratio");
  out->Set("sched.dedup_followers",
           after.dedup_followers - before.dedup_followers, "count");
  out->Set("sched.dedup_wait_share", Ratio(dedup_wait_s, wall), "share");
  out->Set("sched.result_cache.hit_rate",
           Ratio(cache_hits, cache_hits + cache_misses), "ratio");
  out->Set("sched.result_cache.invalidations",
           after.result_cache_invalidations -
               before.result_cache_invalidations,
           "count");
  out->Set("sched.admission_rejections",
           after.admission_rejections - before.admission_rejections, "count");
}

/// Client-side view of remote ops: the Submit RPC, registrations, and the
/// latency the server's own breakdown does not explain.
void ClientMetrics(const std::vector<Op>& ops, Metrics* out) {
  const double wall = SumSeconds(ops);
  double submit_s = 0, register_s = 0, overhead_s = 0, wire_s = 0;
  for (const Op& op : ops) {
    if (!op.remote) continue;
    if (op.cls == "register") {
      register_s += op.seconds();
      continue;
    }
    submit_s += static_cast<double>(op.submit_ns) * 1e-9;
    wire_s += op.summary.wire_s;
    overhead_s += std::max(0.0, op.seconds() - op.summary.queue_s -
                                    op.summary.total_s - op.summary.wire_s);
  }
  out->Set("client.submit_rtt_share", Ratio(submit_s, wall), "share");
  out->Set("client.register_share", Ratio(register_s, wall), "share");
  out->Set("client.overhead_share", Ratio(overhead_s, wall), "share");
  out->Set("wire.share", Ratio(wire_s, wall), "share");
}

// ---------------------------------------------------------------------------
// ablation
// ---------------------------------------------------------------------------

struct AblationSize {
  size_t records = 256;
  size_t hyps = 32;  ///< per query
  size_t pool = 7;   ///< hypothesis subsets the loop cycles through
  size_t reference_repeats = 3;  ///< per rung and measure, first subset
};

class Ablation : public Workload {
 public:
  Ablation(uint64_t seed, AblationSize size)
      : seed_(seed),
        size_(size),
        world_(BuildWorld(size.records, /*epochs=*/1)) {
    // The subsets of the hypothesis library the queries score are fixed
    // inputs, like the world: a query's cost depends on its subset (when
    // pearson converges, how hard logreg fits), and subsets drawn from
    // the seed moved a run's median by 30 % from seed to seed. A run
    // cycles through all of them, in an order the seed picks.
    const std::vector<std::string> names =
        HypNames(bench::SqlHypotheses(&world_.grammar, SIZE_MAX));
    Rng rng(kWorldSeed);
    for (size_t i = 0; i < size.pool; ++i) {
      pool_.push_back(DrawSubset(names, size.hyps, &rng));
    }
    for (int u = 0; u < static_cast<int>(world_.model->num_units()); ++u) {
      units_.push_back(u);
    }
  }

  void Setup(bool traced) override {
    env_.reset();
    auto env = std::make_unique<Env>();
    SessionConfig config;
    config.num_threads = kThreads;
    config.enable_result_cache = false;
    config.enable_inflight_dedup = false;
    config.enable_shared_scan = false;
    config.hypothesis_cache_values = 0;
    env->session = std::make_unique<InspectionSession>(std::move(config));
    Catalog& catalog = env->session->catalog();
    env->extractor = env->extractors.Make("sql_lm", world_.model.get(), traced);
    // A fresh library (and parse cache) per set-up, so every set-up pays
    // the same first parse in its warm-up query.
    env->hyps = MaybeTimed(bench::SqlHypotheses(&world_.grammar, SIZE_MAX),
                           traced);
    catalog.RegisterModel("sql_lm", env->extractor);
    catalog.RegisterHypotheses("lib", env->hyps);
    catalog.RegisterDataset("queries", &world_.dataset);
    RegisterMeasures(&catalog, traced);
    DB_CHECK_OK(
        env->session->Inspect(Request("pearson", Rung::kDeepBase, 0)).status());
    env_ = std::move(env);
  }

  void Teardown() override { env_.reset(); }

  void Run(const RunControl& control, std::vector<Op>* ops) override {
    // The measured loop is the top rung, DeepBase as users run it, so the
    // end-to-end metrics are its own. The other rungs are baseline
    // configurations whose queries overlap DeepBase's in cost (a logreg
    // query costs about the same on every rung), so in one loop they
    // would blur every quantile. Each job is one query, four pearson per
    // logreg in shuffled rounds: pearson takes ~0.09 s and logreg ~0.6 s,
    // so the median lies inside the pearson jobs (at their 62nd
    // percentile) and the 90th percentile inside the logreg jobs (at
    // their median). Turning off early stopping or streaming triples the
    // pearson jobs; logreg's SGD shows in the 90th percentile.
    Rng rng(seed_ * 0x2545F4914F6CDD1Dull + 11);
    ShuffledRounds subsets(std::vector<size_t>(pool_.size(), 1));
    ShuffledRounds measures({4, 1});
    while (control.Continue(ops->size())) {
      const char* measure = measures.Next(&rng) == 0 ? "pearson" : "logreg_l1";
      RunQueryOp(control, ops, Rung::kDeepBase, measure, subsets.Next(&rng),
                 /*reference=*/false);
    }
  }

  /// The whole ladder on the first subset, for the per-layer ladder.
  void RunReference(const RunControl& control, std::vector<Op>* ops) override {
    for (Rung rung : {Rung::kMadlib, Rung::kPyBase, Rung::kMm, Rung::kMmEs,
                      Rung::kDeepBase}) {
      for (const char* measure : kMeasures) {
        for (size_t i = 0; i < size_.reference_repeats; ++i) {
          RunQueryOp(control, ops, rung, measure, 0, /*reference=*/true);
        }
      }
    }
  }

  std::vector<std::string> Check(const std::vector<Op>& ops) override {
    return CheckEqualKeys(ops);
  }

  InspectionSession& session() override { return *env_->session; }

  void LayerMetrics(const std::vector<Op>& ops, double scale,
                    Metrics* out) override {
    // Query times from the reference ladder's untraced ops (a traced run
    // alternates them): the decorators' cost stays out of the ladder.
    std::map<std::string, std::vector<double>> by_query;
    for (const Op& op : ops) {
      if (!op.traced && op.cls.rfind("ladder.", 0) == 0) {
        by_query[op.cls.substr(7)].push_back(op.seconds() * scale);
      }
    }
    if (by_query.empty()) return;  // traced runs only
    auto median = [&](const std::string& rung, const char* measure) {
      return Median(by_query[rung + "." + measure]);
    };
    auto pair_s = [&](const std::string& rung) {
      return median(rung, "pearson") + median(rung, "logreg_l1");
    };
    for (Rung rung : {Rung::kMadlib, Rung::kPyBase, Rung::kMm, Rung::kMmEs,
                      Rung::kDeepBase}) {
      const std::string name = RungName(rung);
      out->Set("ablation." + name + "_s", pair_s(name), "s");
      if (rung != Rung::kPyBase) {
        out->Set("ladder." + name + "_vs_pybase",
                 Ratio(pair_s("pybase"), pair_s(name)), "x");
      }
    }
    // The ladder per measure: early stopping and streaming act on pearson,
    // while logreg's SGD costs about the same on every rung.
    for (const char* measure : kMeasures) {
      out->Set(std::string("ladder.") + measure + ".deepbase_vs_pybase",
               Ratio(median("pybase", measure), median("deepbase", measure)),
               "x");
    }
  }

 private:
  enum class Rung { kMadlib, kPyBase, kMm, kMmEs, kDeepBase };
  static constexpr const char* kMeasures[] = {"pearson", "logreg_l1"};

  struct Env {
    Extractors extractors;
    const Extractor* extractor = nullptr;
    std::vector<HypothesisPtr> hyps;
    std::unique_ptr<InspectionSession> session;
  };

  static std::string RungName(Rung rung) {
    switch (rung) {
      case Rung::kMadlib: return "madlib";
      case Rung::kPyBase: return "pybase";
      case Rung::kMm: return "mm";
      case Rung::kMmEs: return "mmes";
      case Rung::kDeepBase: return "deepbase";
    }
    return "";
  }

  InspectRequest Request(const char* measure, Rung rung, size_t q) const {
    InspectOptions options = rung == Rung::kPyBase ? PyBaseOptions()
                             : rung == Rung::kMm   ? MergedOptions()
                             : rung == Rung::kMmEs ? MergedEarlyStopOptions()
                                                   : DeepBaseOptions();
    // One shard, as the paper's ladder runs: with 4 shards every shard
    // must converge on its own quarter of the blocks, early stopping never
    // fires at this size, and DeepBase ran at 0.95-1.1x PyBase (256-1024
    // records). ~12 blocks per pass give early stopping and streaming
    // convergence checkpoints to act on.
    options.num_shards = 1;
    options.block_size = std::max<size_t>(16, size_.records / 12);
    InspectRequest request =
        FilteredRequest("sql_lm", "lib", pool_[q], "queries", measure);
    request.options = options;
    return request;
  }

  void RunQueryOp(const RunControl& control, std::vector<Op>* ops, Rung rung,
                  const char* measure, size_t q, bool reference) {
    Op op;
    op.cls = reference ? "ladder." + RungName(rung) + "." + measure
                       : std::string(measure);
    op.key = RungName(rung) + "|" + measure + "|" + std::to_string(q);
    RunOp(control, ops, std::move(op),
          [&](Op* o) { RunQuery(rung, measure, q, o); });
  }

  void RunQuery(Rung rung, const std::string& measure, size_t q, Op* op) {
    if (rung == Rung::kMadlib) {
      // MADlib keeps no state between queries: each one materializes its
      // dense relations and scans them.
      std::vector<HypothesisPtr> hyps;
      for (const HypothesisPtr& h : env_->hyps) {
        if (std::binary_search(pool_[q].begin(), pool_[q].end(), h->name())) {
          hyps.push_back(h);
        }
      }
      ScopedLayer span(Layer::kMadlib);
      MadlibBase madlib(env_->extractor, &world_.dataset, units_, hyps);
      MadlibRunStats stats;
      const ResultTable table = measure == "pearson"
                                    ? madlib.RunCorrelation(&stats)
                                    : madlib.RunLogReg(/*epochs=*/3, &stats);
      op->ok = !table.empty();
      op->digest = Digest(table);
      return;
    }
    Result<ResultTable> table = SubmitAndWait(
        env_->session.get(), Request(measure.c_str(), rung, q), op);
    op->ok = table.ok() && !table->empty();
    if (op->ok) op->digest = Digest(*table);
  }

  uint64_t seed_;
  AblationSize size_;
  bench::SqlWorld world_;
  std::vector<std::vector<std::string>> pool_;  ///< sorted name subsets
  std::vector<int> units_;
  std::unique_ptr<Env> env_;
};

// ---------------------------------------------------------------------------
// reinspect
// ---------------------------------------------------------------------------

struct ReinspectSize {
  size_t records = 1024;
  size_t hyps = 120;
  size_t subset = 8;
  size_t reregister_every = 25;
  size_t store_budget_bytes = 16ull << 20;
  size_t block_size = 64;
};

class Reinspect : public Workload {
 public:
  Reinspect(uint64_t seed, std::string workdir, ReinspectSize size)
      : seed_(seed),
        workdir_(std::move(workdir)),
        size_(size),
        world_(BuildWorld(size.records, /*epochs=*/0)),
        names_(HypNames(Library())) {}

  ~Reinspect() override { Teardown(); }

  void Setup(bool traced) override {
    Teardown();
    auto env = std::make_unique<Env>();
    env->traced = traced;
    env->store_dir = MakeTempDir(workdir_, "reinspect");
    env->session = std::make_unique<InspectionSession>(Config(env->store_dir));
    Catalog& catalog = env->session->catalog();
    const Extractor* extractor =
        env->extractors.Make("sql_lm", world_.model.get(), traced);
    const std::vector<HypothesisPtr> hyps = MaybeTimed(Library(), traced);
    catalog.RegisterModel("sql_lm", extractor);
    catalog.RegisterHypotheses("lib", hyps);
    catalog.RegisterDataset("corpus", &world_.dataset);
    RegisterMeasures(&catalog, traced);
    // Both tiers materialized up front: units (larger than the memory
    // budget, so later reads are mmap handouts) and every hypothesis.
    BehaviorStore* store = env->session->store();
    DB_CHECK_OK(store->EnsureUnitBehaviors(*extractor, world_.dataset).status());
    for (const HypothesisPtr& h : hyps) {
      DB_CHECK_OK(store->EnsureHypothesisBehaviors(*h, world_.dataset).status());
    }
    env_ = std::move(env);
  }

  void Teardown() override {
    if (env_ == nullptr) return;
    const std::string dir = env_->store_dir;
    env_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  void Run(const RunControl& control, std::vector<Op>* ops) override {
    Rng rng(seed_ * 0x9E3779B97F4A7C15ull + 1);
    // Measure mix per 20 ops, cheapest first. It keeps the median inside
    // the jaccard jobs and the 90th percentile inside the mutual_info
    // jobs, so neither quantile sits on the step between two measures'
    // costs (where it would jump from run to run).
    static constexpr const char* kMeasures[] = {"pearson", "diff_means",
                                                "jaccard", "mutual_info"};
    ShuffledRounds mix({3, 3, 9, 5});
    std::string model = "sql_lm";
    int version = 0;
    while (control.Continue(ops->size())) {
      Op op;
      const std::string measure = kMeasures[mix.Next(&rng)];
      const std::vector<std::string> filter =
          DrawSubset(names_, size_.subset, &rng);
      const bool reregister = (ops->size() + 1) % size_.reregister_every == 0;
      op.cls = reregister ? "reregister" : measure;
      RunOp(control, ops, std::move(op), [&](Op* o) {
        if (reregister) {
          // Same weights under a fresh id: the store has nothing for it,
          // so this op pays extraction and a store write.
          model = "sql_lm@v" + std::to_string(++version);
          env_->session->catalog().RegisterModel(
              model, env_->extractors.Make(model, world_.model.get(),
                                           env_->traced));
        }
        InspectRequest request =
            FilteredRequest(model, "lib", filter, "corpus", measure);
        o->key = KeyOf(model, measure, filter);
        if (requests_.size() < 3) requests_.push_back(request);
        Result<ResultTable> table =
            SubmitAndWait(env_->session.get(), request, o);
        o->ok = table.ok() && !table->empty();
        if (o->ok) o->digest = Digest(*table);
      });
    }
  }

  std::vector<std::string> Check(const std::vector<Op>& ops) override {
    std::vector<std::string> failures;
    // The first queries again on a session with no store: stored
    // behaviors must score exactly like live extraction.
    SessionConfig config = Config("");
    InspectionSession reference(std::move(config));
    LstmLmExtractor extractor("sql_lm", world_.model.get());
    reference.catalog().RegisterModel("sql_lm", &extractor);
    reference.catalog().RegisterHypotheses("lib", Library());
    reference.catalog().RegisterDataset("corpus", &world_.dataset);
    for (size_t i = 0; i < requests_.size() && i < ops.size(); ++i) {
      if (!ops[i].ok) continue;
      Result<ResultTable> table = reference.Inspect(requests_[i]);
      if (!table.ok() || Digest(*table) != ops[i].digest) {
        failures.push_back("op " + std::to_string(ops[i].id) +
                           " differs from the store-less reference");
      }
    }
    return failures;
  }

  InspectionSession& session() override { return *env_->session; }

  void LayerMetrics(const std::vector<Op>& ops, double,
                    Metrics* out) override {
    uint64_t outside = 0;
    for (const Op& op : ops) {
      if (op.cls != "reregister") outside += op.unit_extract_calls;
    }
    out->Set("extract.unit.calls_outside_reregister", outside, "count");
  }

 private:
  struct Env {
    bool traced = false;
    std::string store_dir;
    Extractors extractors;
    std::unique_ptr<InspectionSession> session;
  };

  /// A fresh hypothesis library (with its own parse cache).
  std::vector<HypothesisPtr> Library() const {
    return bench::SqlHypotheses(&world_.grammar, size_.hyps);
  }

  SessionConfig Config(const std::string& store_dir) const {
    SessionConfig config;
    config.num_threads = kThreads;
    config.options.block_size = size_.block_size;
    config.store_dir = store_dir;
    config.store_memory_budget_bytes = size_.store_budget_bytes;
    return config;
  }

  uint64_t seed_;
  std::string workdir_;
  ReinspectSize size_;
  bench::SqlWorld world_;
  std::vector<std::string> names_;
  std::vector<InspectRequest> requests_;
  std::unique_ptr<Env> env_;
};

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

struct ServeSize {
  size_t records = 256;
  size_t clients = 4;
  size_t subset = 4;
  size_t block_size = 32;
};

class Serve : public Workload {
 public:
  Serve(uint64_t seed, ServeSize size)
      : seed_(seed),
        size_(size),
        world_(BuildWorld(size.records, /*epochs=*/0)),
        names_(HypNames(bench::SqlHypotheses(&world_.grammar, SIZE_MAX))) {
    // One hot query per measure, so the seed moves which sets are hot but
    // not how costly the hot share of the mix is.
    Rng rng(seed * 7919 + 5);
    for (const char* measure : kMeasures) {
      hot_.push_back({DrawSubset(names_, size_.subset, &rng), measure});
    }
  }

  ~Serve() override { Teardown(); }

  void Setup(bool traced) override {
    Teardown();
    auto env = std::make_unique<Env>();
    SessionConfig config;
    config.num_threads = kThreads;
    config.options.block_size = size_.block_size;
    config.options.early_stopping = false;  // fixed work per fresh query
    config.options.num_shards = 1;
    env->session = std::make_unique<InspectionSession>(std::move(config));
    Catalog& catalog = env->session->catalog();
    // Records of a block extract in parallel on the session pool (the
    // GPU stand-in), so engine work per job stays small.
    catalog.RegisterModel(
        "sql_lm", env->extractors.Make("sql_lm", world_.model.get(), traced,
                                       env->session->thread_pool()));
    catalog.RegisterHypotheses(
        "lib", MaybeTimed(bench::SqlHypotheses(&world_.grammar, SIZE_MAX),
                          traced));
    catalog.RegisterDataset("queries", &world_.dataset);
    RegisterMeasures(&catalog, traced);
    env->server = std::make_unique<InspectionServer>(env->session.get());
    DB_CHECK_OK(env->server->Start());
    for (size_t c = 0; c < size_.clients; ++c) {
      env->clients.push_back(std::make_unique<InspectionClient>(
          ClientConfig{.port = env->server->port()}));
      DB_CHECK_OK(env->clients.back()->Connect());
    }
    // One query through the wire fills the lazy state (parse cache,
    // connections' first frames) before the measured phase.
    const std::vector<std::string> warm(names_.begin(),
                                        names_.begin() + size_.subset);
    DB_CHECK_OK(env->clients[0]
                    ->Inspect(FilteredRequest("sql_lm", "lib", warm,
                                              "queries", "pearson"))
                    .status());
    env_ = std::move(env);
  }

  void Teardown() override {
    if (env_ == nullptr) return;
    for (auto& client : env_->clients) client->Close();
    env_->server->Shutdown();
    env_.reset();
  }

  void Run(const RunControl& control, std::vector<Op>* ops) override {
    server_before_ = env_->server->stats();
    Recorder::Get().set_job(0);  // server threads cannot know the job
    const int64_t phase_start = TraceNowNs();
    std::atomic<uint64_t> next_id{1};
    std::vector<std::vector<Op>> per_client(size_.clients);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < size_.clients; ++c) {
      threads.emplace_back([&, c] {
        ClientLoop(c, control, phase_start, &next_id, &per_client[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    Recorder::Get().set_on(false);
    for (auto& client_ops : per_client) {
      for (Op& op : client_ops) ops->push_back(std::move(op));
    }
    std::sort(ops->begin(), ops->end(),
              [](const Op& a, const Op& b) { return a.id < b.id; });
    AttachServerSide(ops);
    server_after_ = env_->server->stats();
  }

  std::vector<std::string> Check(const std::vector<Op>& ops) override {
    return CheckEqualKeys(ops);
  }

  InspectionSession& session() override { return *env_->session; }

  void LayerMetrics(const std::vector<Op>&, double, Metrics* out) override {
    out->Set("server.frames_sent",
             server_after_.frames_sent - server_before_.frames_sent, "count");
    out->Set("server.frames_received",
             server_after_.frames_received - server_before_.frames_received,
             "count");
    out->Set("server.protocol_errors",
             server_after_.protocol_errors - server_before_.protocol_errors,
             "count");
  }

  size_t clients() const override { return size_.clients; }

 private:
  static constexpr const char* kMeasures[] = {"pearson", "diff_means",
                                              "jaccard", "mutual_info"};
  static constexpr int64_t kTraceSliceNs = 1'000'000'000;

  struct Query {
    std::vector<std::string> filter;
    std::string measure;
  };

  struct Env {
    Extractors extractors;
    std::unique_ptr<InspectionSession> session;
    std::unique_ptr<InspectionServer> server;
    std::vector<std::unique_ptr<InspectionClient>> clients;
  };

  void ClientLoop(size_t c, const RunControl& control, int64_t phase_start,
                  std::atomic<uint64_t>* next_id, std::vector<Op>* out) {
    InspectionClient& client = *env_->clients[c];
    Rng rng(seed_ * 1000003 + c);
    // Per 20 ops: 12 fresh, 5 repeats, 2 hot, 1 registration.
    enum { kFresh, kRepeat, kHot, kRegister };
    ShuffledRounds mix({12, 5, 2, 1});
    ShuffledRounds fresh_measures({1, 1, 1, 1});
    std::vector<Query> history;
    size_t registers = 0;
    while (true) {
      control.BeforeOp();
      if (!control.Continue(out->size())) break;
      Op op;
      op.client = static_cast<int>(c);
      op.index = out->size();
      op.id = next_id->fetch_add(1);
      op.remote = true;
      // Traced runs trace alternate one-second slices of the run: the
      // recorder is process-wide, and the clients share it.
      op.start_ns = TraceNowNs();
      op.traced = control.trace &&
                  (!control.alternate ||
                   ((op.start_ns - phase_start) / kTraceSliceNs) % 2 == 0);
      Recorder::Get().set_on(op.traced);
      const size_t kind = mix.Next(&rng);
      if (kind == kRegister) {
        op.cls = "register";
        wire::HypothesisSpec spec;
        spec.kind = wire::HypothesisSpec::Kind::kKeyword;
        spec.a = "SELECT";
        const std::string set = "remote_" + std::to_string(c) + "_" +
                                std::to_string(registers++);
        op.ok = client.RegisterHypotheses(set, {spec}).ok();
        op.end_ns = TraceNowNs();
        if (op.traced) {
          Recorder::Get().AddSpan(
              Span{Layer::kClientRegister, op.start_ns, op.end_ns, op.id, 0});
        }
        out->push_back(std::move(op));
        control.AfterOp();
        continue;
      }
      Query query;
      if (kind == kHot) {
        op.cls = "hot";
        query = hot_[rng.UniformInt(hot_.size())];
      } else if (kind == kRepeat && !history.empty()) {
        // Analysts re-run what they just looked at: one of this client's
        // last few queries, which the cache holds unless a registration
        // invalidated it since.
        op.cls = "repeat";
        const size_t recent = std::min<size_t>(history.size(), 4);
        query = history[history.size() - 1 - rng.UniformInt(recent)];
      } else {
        op.cls = "fresh";
        query = {DrawSubset(names_, size_.subset, &rng),
                 kMeasures[fresh_measures.Next(&rng)]};
        history.push_back(query);
      }
      op.key = KeyOf("sql_lm", query.measure, query.filter);
      const InspectRequest request = FilteredRequest(
          "sql_lm", "lib", query.filter, "queries", query.measure);
      Result<RemoteJob> job = client.Submit(request);
      const int64_t submitted = TraceNowNs();
      op.submit_ns = submitted - op.start_ns;
      if (op.traced) {
        Recorder::Get().AddSpan(
            Span{Layer::kClientSubmit, op.start_ns, submitted, op.id, 0});
      }
      if (job.ok()) {
        const Result<ResultTable>& table = job->Wait();
        op.ok = table.ok() && !table->empty();
        if (op.ok) op.digest = Digest(*table);
        op.summary = job->Summary();
      } else {
        op.ok = false;
      }
      op.end_ns = TraceNowNs();
      if (op.traced) {
        Recorder::Get().AddSpan(
            Span{Layer::kJob, op.start_ns, op.end_ns, op.id, 0});
      }
      out->push_back(std::move(op));
      control.AfterOp();
    }
    control.Leave();
  }

  /// Joins each remote op with its server-side job (same trace id): the
  /// engine stats, and the program's own spans for the queue and engine
  /// intervals (the server's threads cannot attribute bench spans).
  void AttachServerSide(std::vector<Op>* ops) {
    std::map<uint64_t, JobHandle> by_trace;
    for (const JobHandle& handle : env_->session->Jobs()) {
      by_trace[handle.Summary().trace_id] = handle;
    }
    for (Op& op : *ops) {
      if (!op.remote || op.cls == "register") continue;
      auto it = by_trace.find(op.summary.trace_id);
      if (it == by_trace.end()) continue;
      op.has_stats = true;
      op.stats = it->second.Stats();
      op.queue_s = op.summary.queue_s;
      if (!op.traced) continue;
      const std::vector<TraceSpan> spans = it->second.TraceSpans();
      ImportProgramSpans(spans, op.summary.result_cache_hits > 0,
                         op.summary.dedup_hits > 0, op.id);
      // The result's trip back: from the server-side job's end (its
      // sched.job root) to the client holding the table.
      for (const TraceSpan& span : spans) {
        if (span.name != "sched.job") continue;
        Recorder::Get().AddSpan(Span{Layer::kWireResult,
                                     span.start_ns + span.duration_ns,
                                     op.end_ns, op.id, 0});
      }
    }
  }

  uint64_t seed_;
  ServeSize size_;
  bench::SqlWorld world_;
  std::vector<std::string> names_;
  std::vector<Query> hot_;
  ServerStats server_before_, server_after_;
  std::unique_ptr<Env> env_;
};

// ---------------------------------------------------------------------------
// cluster
// ---------------------------------------------------------------------------

struct ClusterSize {
  size_t records = 256;
  size_t subset = 8;
  size_t pool = 12;
  size_t workers = 2;
  size_t block_size = 32;
};

class Cluster : public Workload {
 public:
  Cluster(uint64_t seed, ClusterSize size)
      : seed_(seed),
        size_(size),
        world_(BuildWorld(size.records, /*epochs=*/1)) {
    const std::vector<std::string> names =
        HypNames(bench::SqlHypotheses(&world_.grammar, SIZE_MAX));
    Rng rng(seed * 104729 + 3);
    for (size_t i = 0; i < size_.pool; ++i) {
      pool_.push_back({DrawSubset(names, size_.subset, &rng),
                       i % 2 == 0 ? "pearson" : "jaccard"});
    }
  }

  ~Cluster() override { Teardown(); }

  void Setup(bool traced) override {
    Teardown();
    auto env = std::make_unique<Env>();
    env->session = NewSession(kThreads, traced, &env->extractors);
    cluster::CoordinatorConfig config;
    config.total_shards = 4;
    env->coordinator = std::make_unique<cluster::ClusterCoordinator>(
        env->session.get(), config);
    DB_CHECK_OK(env->coordinator->Start());
    for (size_t w = 0; w < size_.workers; ++w) {
      env->worker_sessions.push_back(
          NewSession(/*threads=*/1, traced, &env->extractors));
      env->workers.push_back(std::make_unique<cluster::InspectionWorker>(
          env->worker_sessions.back().get(),
          cluster::WorkerConfig{.worker_id = "w" + std::to_string(w),
                                .coordinator_port = env->coordinator->port()}));
      DB_CHECK_OK(env->workers.back()->Connect());
    }
    while (env->coordinator->num_workers() < size_.workers) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // One distributed query fills every member's lazy state.
    DB_CHECK_OK(env->session->Inspect(Request(pool_[0])).status());
    env_ = std::move(env);
  }

  void Teardown() override {
    if (env_ == nullptr) return;
    for (auto& worker : env_->workers) worker->Shutdown();
    env_->coordinator->Shutdown();
    env_.reset();
  }

  void Run(const RunControl& control, std::vector<Op>* ops) override {
    coord_before_ = env_->coordinator->stats();
    Rng rng(seed_ * 0xD1B54A32D192ED03ull + 7);
    ShuffledRounds order(std::vector<size_t>(pool_.size(), 1));
    while (control.Continue(ops->size())) {
      const size_t q = order.Next(&rng);
      Op op;
      op.cls = pool_[q].measure;
      op.key = std::to_string(q);
      RunOp(control, ops, std::move(op), [&](Op* o) {
        Result<ResultTable> table =
            SubmitAndWait(env_->session.get(), Request(pool_[q]), o);
        o->ok = table.ok() && !table->empty();
        if (o->ok) o->digest = Digest(*table);
      });
    }
    coord_after_ = env_->coordinator->stats();
  }

  std::vector<std::string> Check(const std::vector<Op>& ops) override {
    std::vector<std::string> failures;
    // Every distributed table against a local run of the same request.
    Extractors extractors;
    std::unique_ptr<InspectionSession> local =
        NewSession(kThreads, /*traced=*/false, &extractors);
    std::map<std::string, uint64_t> reference;
    for (const Op& op : ops) {
      if (!op.ok) continue;
      auto it = reference.find(op.key);
      if (it == reference.end()) {
        Result<ResultTable> table =
            local->Inspect(Request(pool_[std::stoul(op.key)]));
        it = reference.emplace(op.key, table.ok() ? Digest(*table) : 0).first;
      }
      if (it->second != op.digest) {
        failures.push_back("op " + std::to_string(op.id) +
                           " differs from the local run");
      }
    }
    return failures;
  }

  InspectionSession& session() override { return *env_->session; }

  void LayerMetrics(const std::vector<Op>& ops, double,
                    Metrics* out) override {
    const RuntimeStats t = SumStats(ops);
    const double wall = SumSeconds(ops);
    const cluster::CoordinatorStats& a = coord_after_;
    const cluster::CoordinatorStats& b = coord_before_;
    out->Set("cluster.worker_hop_share", Ratio(t.worker_hop_s, wall), "share");
    out->Set("cluster.merge_share", Ratio(t.merge_s, wall), "share");
    out->Set("cluster.assignments_sent", a.assignments_sent - b.assignments_sent,
             "count");
    out->Set("cluster.reassignments", a.reassignments - b.reassignments,
             "count");
    out->Set("cluster.jobs_sliced", a.jobs_sliced - b.jobs_sliced, "count");
    out->Set("cluster.jobs_degraded_local",
             a.jobs_degraded_local - b.jobs_degraded_local, "count");
    out->Set("cluster.duplicate_results",
             a.duplicate_results - b.duplicate_results, "count");
  }

 private:
  struct Query {
    std::vector<std::string> filter;
    std::string measure;
  };

  struct Env {
    Extractors extractors;
    std::unique_ptr<InspectionSession> session;
    std::unique_ptr<cluster::ClusterCoordinator> coordinator;
    std::vector<std::unique_ptr<InspectionSession>> worker_sessions;
    std::vector<std::unique_ptr<cluster::InspectionWorker>> workers;
  };

  /// A session with this workload's catalog (coordinator, worker, or
  /// the local reference — identical names, identical objects).
  std::unique_ptr<InspectionSession> NewSession(size_t threads, bool traced,
                                                Extractors* extractors) {
    SessionConfig config;
    config.num_threads = threads;
    config.enable_result_cache = false;
    config.enable_inflight_dedup = false;
    auto session = std::make_unique<InspectionSession>(std::move(config));
    Catalog& catalog = session->catalog();
    catalog.RegisterModel("sql_lm",
                          extractors->Make("sql_lm", world_.model.get(), traced));
    // Each member gets its own library (and parse cache), as separate
    // processes would.
    catalog.RegisterHypotheses(
        "lib", MaybeTimed(bench::SqlHypotheses(&world_.grammar, SIZE_MAX),
                          traced));
    catalog.RegisterDataset("queries", &world_.dataset);
    RegisterMeasures(&catalog, traced);
    return session;
  }

  InspectRequest Request(const Query& query) const {
    InspectRequest request = FilteredRequest("sql_lm", "lib", query.filter,
                                             "queries", query.measure);
    InspectOptions options;
    options.streaming = false;  // sliceable: a full, materialized sweep
    options.early_stopping = false;
    options.num_shards = 4;
    options.block_size = size_.block_size;
    request.options = options;
    return request;
  }

  uint64_t seed_;
  ClusterSize size_;
  bench::SqlWorld world_;
  std::vector<Query> pool_;
  cluster::CoordinatorStats coord_before_, coord_after_;
  std::unique_ptr<Env> env_;
};

// ---------------------------------------------------------------------------
// The workload table.
// ---------------------------------------------------------------------------

struct WorkloadEntry {
  const char* name;
  std::function<std::unique_ptr<Workload>(uint64_t seed,
                                          const std::string& workdir,
                                          bool smoke)>
      make;
  size_t smoke_ops;  ///< selfcheck op count
  int setup_repeats;  ///< set-ups per run (setup_s is their median): about
                      ///< 1.5 s of set-up, at least 3 (reinspect's each
                      ///< take 1.3 s, and every run must fit its budget)
  size_t memory_at_op;  ///< heap_mb is read after this many ops (every
                        ///< run on the defining host got further)
  double slo_limit_s;  ///< about twice the job_p90_s of the runs that
                       ///< defined the benchmark; fixed since
  double probe_every_s;  ///< host-speed probe interval (ProbeGate); serve
                         ///< probes less often, as each stop drains its
                         ///< four clients (1.7 % of their time at 0.5 s)
};

const std::vector<WorkloadEntry>& Workloads() {
  static const std::vector<WorkloadEntry> kWorkloads = {
      {"ablation",
       [](uint64_t seed, const std::string&, bool smoke) {
         AblationSize size;
         if (smoke) {
           size = {.records = 96, .hyps = 6, .pool = 3,
                   .reference_repeats = 1};
         }
         return std::unique_ptr<Workload>(new Ablation(seed, size));
       },
       5, 15, 60, 1.2, 0.5},
      {"reinspect",
       [](uint64_t seed, const std::string& workdir, bool smoke) {
         ReinspectSize size;
         if (smoke) {
           size = {.records = 128, .hyps = 12, .subset = 4,
                   .reregister_every = 5, .store_budget_bytes = 1u << 20,
                   .block_size = 32};
         }
         return std::unique_ptr<Workload>(new Reinspect(seed, workdir, size));
       },
       7, 3, 150, 0.4, 0.5},
      {"serve",
       [](uint64_t seed, const std::string&, bool smoke) {
         ServeSize size;
         if (smoke) size = {.records = 64, .clients = 4, .subset = 2,
                            .block_size = 16};
         return std::unique_ptr<Workload>(new Serve(seed, size));
       },
       12, 15, 400, 0.45, 2.0},
      {"cluster",
       [](uint64_t seed, const std::string&, bool smoke) {
         ClusterSize size;
         if (smoke) size = {.records = 64, .subset = 3, .pool = 4,
                            .workers = 2, .block_size = 8};
         return std::unique_ptr<Workload>(new Cluster(seed, size));
       },
       6, 9, 100, 0.4, 0.5},
  };
  return kWorkloads;
}

const WorkloadEntry* FindWorkload(const std::string& name) {
  for (const WorkloadEntry& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Trace-derived metrics.
// ---------------------------------------------------------------------------

using Intervals = std::vector<std::pair<int64_t, int64_t>>;

/// Sorted, disjoint union of `iv`.
Intervals Merge(Intervals iv) {
  std::sort(iv.begin(), iv.end());
  Intervals out;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!out.empty() && s <= out.back().second) {
      out.back().second = std::max(out.back().second, e);
    } else {
      out.push_back({s, e});
    }
  }
  return out;
}

int64_t Length(const Intervals& merged) {
  int64_t total = 0;
  for (const auto& [s, e] : merged) total += e - s;
  return total;
}

/// Intersection of two merged interval lists (merged).
Intervals Intersect(const Intervals& a, const Intervals& b) {
  Intervals out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const int64_t s = std::max(a[i].first, b[j].first);
    const int64_t e = std::min(a[i].second, b[j].second);
    if (e > s) out.push_back({s, e});
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

int64_t Overlap(const Intervals& a, const Intervals& b) {
  return Length(Intersect(a, b));
}

void TraceMetrics(const std::vector<Op>& ops, const std::vector<Span>& spans,
                  Metrics* out) {
  Intervals windows;
  std::map<uint64_t, const Op*> traced;
  for (const Op& op : ops) {
    if (!op.traced) continue;
    windows.push_back({op.start_ns, op.end_ns});
    traced[op.id] = &op;
  }
  const Intervals traced_wall = Merge(windows);
  const double wall_ns = static_cast<double>(Length(traced_wall));

  // Per layer: lane-summed busy time and the wall time it was active.
  std::vector<Intervals> by_layer(static_cast<size_t>(Layer::kCount));
  std::map<uint64_t, Intervals> by_job;
  for (const Span& span : spans) {
    if (span.layer == Layer::kJob) continue;
    by_layer[static_cast<size_t>(span.layer)].push_back(
        {span.start_ns, span.end_ns});
    if (traced.count(span.job) > 0) {
      by_job[span.job].push_back({span.start_ns, span.end_ns});
    }
  }
  Recorder& rec = Recorder::Get();
  auto layer_metrics = [&](Layer layer, const std::string& prefix) {
    const LayerTotals& t = rec.totals(layer);
    out->Set(prefix + ".calls", t.calls.load(), "count");
    out->Set(prefix + ".busy_share",
             Ratio(static_cast<double>(t.busy_ns.load()), wall_ns), "share");
    out->Set(prefix + ".wall_share",
             Ratio(static_cast<double>(Overlap(
                       Merge(by_layer[static_cast<size_t>(layer)]),
                       traced_wall)),
                   wall_ns),
             "share");
  };
  layer_metrics(Layer::kExtractUnit, "extract.unit");
  out->Set("extract.unit.rows", rec.totals(Layer::kExtractUnit).items.load(),
           "count");
  layer_metrics(Layer::kExtractHyp, "extract.hyp");
  out->Set("extract.hyp.records", rec.totals(Layer::kExtractHyp).items.load(),
           "count");
  layer_metrics(Layer::kProcessBlock, "measure.process_block");
  layer_metrics(Layer::kMergedProcessBlock, "measure.merged.process_block");
  layer_metrics(Layer::kScores, "measure.scores");
  layer_metrics(Layer::kMerge, "measure.merge");
  layer_metrics(Layer::kSerialize, "measure.serialize");
  out->Set("measure.serialize.bytes", rec.totals(Layer::kSerialize).bytes.load(),
           "bytes");
  layer_metrics(Layer::kMadlib, "baseline.madlib");
  auto union_of = [&](std::initializer_list<Layer> layers) {
    Intervals iv;
    for (Layer l : layers) {
      const Intervals& part = by_layer[static_cast<size_t>(l)];
      iv.insert(iv.end(), part.begin(), part.end());
    }
    return Merge(std::move(iv));
  };
  const Intervals store = union_of({Layer::kStorePrelude});
  out->Set("engine.store_prelude.wall_share",
           Ratio(static_cast<double>(Overlap(store, traced_wall)), wall_ns),
           "share");
  const Intervals dispatch = union_of({Layer::kCoordDispatch});
  out->Set("coord.dispatch.wall_share",
           Ratio(static_cast<double>(Overlap(dispatch, traced_wall)), wall_ns),
           "share");
  // Engine self time: engine (or coordinator run) wall time no leaf
  // layer below it accounts for — planning, store-served block reads,
  // hypothesis-tier reads, result assembly, the cluster's wire legs.
  const Intervals engine = Intersect(
      union_of({Layer::kEngine, Layer::kCoordRun}), traced_wall);
  const Intervals leaves = union_of(
      {Layer::kExtractUnit, Layer::kExtractHyp, Layer::kProcessBlock,
       Layer::kMergedProcessBlock, Layer::kScores, Layer::kMerge,
       Layer::kSerialize, Layer::kStorePrelude, Layer::kPipelineMerge,
       Layer::kCoordMerge});
  out->Set("engine.self_share",
           Ratio(static_cast<double>(Length(engine) - Overlap(engine, leaves)),
                 wall_ns),
           "share");

  // Coverage: per job, the share of its wall time some layer span (or
  // the queue, or a cache-hit / dedup-wait attribution) explains.
  std::vector<double> coverage;
  double covered_ns = 0, total_ns = 0;
  for (const auto& [id, op] : traced) {
    const Intervals window = {{op->start_ns, op->end_ns}};
    const int64_t len = op->end_ns - op->start_ns;
    if (len <= 0) continue;
    const int64_t cov = Overlap(Merge(by_job[id]), window);
    coverage.push_back(static_cast<double>(cov) / static_cast<double>(len));
    covered_ns += static_cast<double>(cov);
    total_ns += static_cast<double>(len);
  }
  out->Set("trace.coverage", Ratio(covered_ns, total_ns), "ratio");
  out->Set("trace.coverage_p10", Quantile(coverage, 0.10), "ratio");
  out->Set("trace.jobs", static_cast<double>(traced.size()), "count");
  out->Set("trace.spans_dropped", static_cast<double>(rec.dropped()), "count");

  // Overhead: traced vs untraced ops of the same class, interleaved.
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_class;
  for (const Op& op : ops) {
    auto& [on, off] = by_class[op.cls];
    (op.traced ? on : off).push_back(op.seconds());
  }
  double weighted = 0, weight = 0;
  for (const auto& [cls, lat] : by_class) {
    if (lat.first.empty() || lat.second.empty()) continue;
    double on_sum = 0, off_sum = 0;
    for (double x : lat.first) on_sum += x;
    for (double x : lat.second) off_sum += x;
    const double on_mean = on_sum / static_cast<double>(lat.first.size());
    const double off_mean = off_sum / static_cast<double>(lat.second.size());
    const double n = static_cast<double>(lat.first.size() + lat.second.size());
    weighted += n * (Ratio(on_mean, off_mean) - 1.0);
    weight += n;
  }
  out->Set("trace.overhead", Ratio(weighted, weight), "ratio");
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  for (const Span& s : spans) {
    f << "{\"name\":\"" << LayerName(s.layer) << "\",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << ",\"parent\":"
      << (s.layer == Layer::kJob ? 0 : s.job) << ",\"job\":" << s.job
      << ",\"thread\":" << s.thread << "}\n";
  }
}

// ---------------------------------------------------------------------------
// Running a workload.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool selfcheck = false;
  std::string out;
  std::string trace_out;
  std::string workdir = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      args->workload = value();
    } else if (a == "--seed") {
      args->seed = std::stoull(value());
    } else if (a == "--seconds") {
      args->seconds = std::stod(value());
    } else if (a == "--trace") {
      args->trace = true;
    } else if (a == "--selfcheck") {
      args->selfcheck = true;
    } else if (a == "--out") {
      args->out = value();
    } else if (a == "--trace-out") {
      args->trace_out = value();
    } else if (a == "--workdir") {
      args->workdir = value();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return false;
    }
  }
  return args->selfcheck || FindWorkload(args->workload) != nullptr;
}

std::string HostLine() {
  const HostInfo host;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "host nproc=%u simd_lanes=%zu kernel=%s build_type=%s",
                host.nproc, host.simd_lanes, host.kernel, host.build_type);
  return buf;
}

void WriteJson(const Args& args, const Metrics& metrics, bool correct,
               size_t attempted, size_t failed,
               const std::vector<std::string>& failures) {
  std::ofstream f(args.out);
  const HostInfo host;
  f << "{\n  \"bench\": \"paper\",\n  \"workload\": \"" << args.workload
    << "\",\n  \"seed\": " << args.seed << ",\n  \"seconds\": " << args.seconds
    << ",\n  \"trace\": " << (args.trace ? "true" : "false")
    << ",\n  \"host\": {\"nproc\": " << host.nproc
    << ", \"simd_lanes\": " << host.simd_lanes << ", \"kernel\": \""
    << host.kernel << "\", \"build_type\": \"" << host.build_type
    << "\"},\n  \"correct\": " << (correct ? "true" : "false")
    << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
    << ",\n  \"failures\": " << failures.size() << ",\n  \"metrics\": {";
  const auto& all = metrics.all();
  for (size_t i = 0; i < all.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", all[i].value);
    f << (i ? ",\n" : "\n") << "    \"" << all[i].name << "\": {\"value\": "
      << value << ", \"unit\": \"" << all[i].unit << "\"}";
  }
  f << "\n  }\n}\n";
}

int RunWorkload(const Args& args) {
  const WorkloadEntry& entry = *FindWorkload(args.workload);
  std::printf("%s\n", HostLine().c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n", entry.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);
  const int64_t world0 = TraceNowNs();
  std::unique_ptr<Workload> workload =
      entry.make(args.seed, args.workdir, /*smoke=*/false);
  const double world_s = static_cast<double>(TraceNowNs() - world0) * 1e-9;

  // Set-up, timed setup_repeats times; each time is scaled by the host
  // speed probed right before and after it.
  SpeedProbe probe(kThreads);
  std::vector<double> setup_s, raw_setup_s;
  for (int i = 0; i < entry.setup_repeats; ++i) {
    const double before = probe.Measure(ProbeGate::kProbesPerStop);
    const int64_t t0 = TraceNowNs();
    workload->Setup(args.trace);
    raw_setup_s.push_back(static_cast<double>(TraceNowNs() - t0) * 1e-9);
    const double after = probe.Measure(ProbeGate::kProbesPerStop);
    setup_s.push_back(raw_setup_s.back() * SpeedScale((before + after) / 2));
    if (i + 1 < entry.setup_repeats) workload->Teardown();
  }

  probe.Reset();
  ProbeGate gate(&probe, workload->clients(),
                 static_cast<int64_t>(entry.probe_every_s * 1e9));
  MemoryMark memory(entry.memory_at_op, &gate);
  RunControl control;
  control.trace = args.trace;
  control.alternate = args.trace;
  control.gate = &gate;
  control.memory = &memory;
  const SchedulerStats sched_before = workload->session().scheduler().stats();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = TraceNowNs();
  control.deadline_ns = t0 + static_cast<int64_t>(args.seconds * 1e9);
  std::vector<Op> ops;
  workload->Run(control, &ops);
  const double wall_s = static_cast<double>(TraceNowNs() - t0) * 1e-9;
  const double cpu_s = ProcessCpuSeconds() - cpu0 - probe.cpu_s();
  Recorder::Get().set_on(false);
  const SchedulerStats sched_after = workload->session().scheduler().stats();
  if (probe.samples().empty()) probe.Measure(ProbeGate::kProbesPerStop);
  // Reported times are seconds at the reference host speed.
  const double slowdown = Median(probe.samples()) / kReferenceProbeS;
  const double scale = SpeedScale(Median(probe.samples()));
  if (probe.interference() > kMaxProbeInterference) {
    std::fprintf(stderr,
                 "WARN the process used %.0f%% of the probes' CPU on other "
                 "threads while they ran: the host-speed scaling is suspect "
                 "(compare raw.*)\n",
                 probe.interference() * 100);
  }

  // End-to-end metrics cover the measured phase; reference ops come after.
  const size_t measured = ops.size();
  double busy_s = 0;
  std::vector<double> latency;
  size_t within_slo = 0, within_slo_raw = 0;
  for (const Op& op : ops) {
    busy_s += op.seconds();
    latency.push_back(op.seconds() * scale);
    if (op.ok && latency.back() <= entry.slo_limit_s) ++within_slo;
    if (op.ok && op.seconds() <= entry.slo_limit_s) ++within_slo_raw;
  }
  if (args.trace) {
    RunControl reference = control;
    reference.gate = nullptr;
    reference.memory = nullptr;
    workload->RunReference(reference, &ops);
    Recorder::Get().set_on(false);
  }

  // A failed op and an op whose output differs both count as failed.
  const std::vector<std::string> failures = workload->Check(ops);
  size_t failed = failures.size();
  for (const Op& op : ops) failed += op.ok ? 0 : 1;
  const double n = static_cast<double>(measured);

  Metrics metrics;
  metrics.Set("setup_s", Median(setup_s), "s");
  metrics.Set("heap_mb", memory.heap_mb(), "MB");
  metrics.Set("cpu_per_job_s", Ratio(cpu_s * scale, n), "s");
  metrics.Set("job_p50_s", Quantile(latency, 0.5), "s");
  metrics.Set("job_p90_s", Quantile(latency, 0.9), "s");
  metrics.Set("jobs_per_s", Ratio(n, wall_s * scale), "1/s");
  metrics.Set("slo_attainment", Ratio(within_slo, n), "ratio");
  PipelineMetrics(ops, &metrics);
  SchedMetrics(sched_before, sched_after, ops, &metrics);
  ClientMetrics(ops, &metrics);
  workload->LayerMetrics(ops, scale, &metrics);
  std::map<std::string, std::vector<double>> by_class;
  for (const Op& op : ops) by_class[op.cls].push_back(op.seconds() * scale);
  for (const auto& [cls, lat] : by_class) {
    metrics.Set("ops." + cls + ".count", static_cast<double>(lat.size()),
                "count");
    metrics.Set("ops." + cls + ".p50_s", Median(lat), "s");
  }
  metrics.Set("proc.cpu_util",
              Ratio(cpu_s, wall_s * static_cast<double>(HostInfo().nproc)),
              "ratio");
  metrics.Set("proc.jobs", n, "count");
  metrics.Set("proc.world_build_s", world_s, "s");
  metrics.Set("proc.rss_mb", memory.rss_mb(), "MB");
  // Ops in flight on average (Little's law): the clients' concurrency
  // less what the probe stops took from it.
  metrics.Set("load.inflight", Ratio(busy_s, wall_s), "count");
  // The host's speed, what the probes cost the load, and the unscaled
  // times, for the record.
  metrics.Set("host.slowdown", slowdown, "x");
  metrics.Set("host.probes", static_cast<double>(probe.samples().size()),
              "count");
  metrics.Set("host.probe_interference", probe.interference(), "ratio");
  metrics.Set("host.gate_wait_share",
              Ratio(gate.blocked_s(),
                    wall_s * static_cast<double>(workload->clients())),
              "share");
  metrics.Set("raw.setup_s", Median(raw_setup_s), "s");
  metrics.Set("raw.cpu_per_job_s", Ratio(cpu_s, n), "s");
  metrics.Set("raw.job_p50_s", Quantile(latency, 0.5) / scale, "s");
  metrics.Set("raw.job_p90_s", Quantile(latency, 0.9) / scale, "s");
  metrics.Set("raw.jobs_per_s", Ratio(n, wall_s), "1/s");
  metrics.Set("raw.slo_attainment", Ratio(within_slo_raw, n), "ratio");
  if (args.trace) {
    const std::vector<Span> spans = Recorder::Get().Collect();
    TraceMetrics(ops, spans, &metrics);
    if (!args.trace_out.empty()) WriteSpans(args.trace_out, spans);
  }
  workload->Teardown();

  for (const std::string& f : failures) std::printf("FAIL %s\n", f.c_str());
  for (const Metric& m : metrics.all()) {
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = failed == 0;
  std::printf("attempted %zu\nfailed %zu\ncorrect %d\n", ops.size(), failed,
              correct ? 1 : 0);
  if (!args.out.empty()) {
    WriteJson(args, metrics, correct, ops.size(), failed, failures);
  }
  return correct ? 0 : 1;
}

/// Every workload at smoke size, untraced and then traced on every op:
/// the decorators must not change a single result byte.
int SelfCheck(const Args& args) {
  std::printf("%s\n", HostLine().c_str());
  bool all_ok = true;
  for (const WorkloadEntry& entry : Workloads()) {
    std::vector<std::vector<Op>> runs;
    for (bool traced : {false, true}) {
      std::unique_ptr<Workload> workload =
          entry.make(/*seed=*/1, args.workdir, /*smoke=*/true);
      workload->Setup(traced);
      RunControl control;
      control.max_ops = entry.smoke_ops;
      control.trace = traced;
      std::vector<Op> ops;
      workload->Run(control, &ops);
      workload->RunReference(control, &ops);
      Recorder::Get().set_on(false);
      const std::vector<std::string> failures = workload->Check(ops);
      workload->Teardown();
      for (const std::string& f : failures) {
        std::printf("FAIL %s: %s\n", entry.name, f.c_str());
        all_ok = false;
      }
      std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
        return std::make_pair(a.client, a.index) <
               std::make_pair(b.client, b.index);
      });
      runs.push_back(std::move(ops));
    }
    bool same = runs[0].size() == runs[1].size();
    for (size_t i = 0; same && i < runs[0].size(); ++i) {
      same = runs[0][i].ok && runs[1][i].ok &&
             runs[0][i].digest == runs[1][i].digest;
    }
    std::printf("selfcheck %s %zu ops %s\n", entry.name, runs[0].size(),
                same ? "identical" : "MISMATCH");
    all_ok = all_ok && same;
  }
  std::printf("selfcheck %s\n", all_ok ? "ok" : "FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace paperbench
}  // namespace deepbase

int main(int argc, char** argv) {
  using namespace deepbase::paperbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_paper --workload "
                 "ablation|reinspect|serve|cluster --seed S [--seconds N] "
                 "[--trace] [--out FILE] [--trace-out FILE] [--workdir DIR]\n"
                 "       bench_paper --selfcheck [--workdir DIR]\n");
    return 2;
  }
  return args.selfcheck ? SelfCheck(args) : RunWorkload(args);
}
