// Tests for the observability stack: span tracer primitives (ring,
// parent rebinding, cross-process import), histogram bucket boundary
// math, the metrics registry + renderers, wire round-trips of the new
// trace/metrics payloads, the kMetrics RPC end-to-end, slow-job logging
// (fires exactly once per offending job), metrics-snapshot consistency
// under concurrent jobs, and the acceptance scenario — a 2-worker
// distributed job whose trace stitches coordinator dispatch spans and
// both workers' pipeline spans under one trace id.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/worker.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "service/inspection_session.h"
#include "util/codec.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"

namespace deepbase {
namespace {

// ---------------------------------------------------------------------------
// Tracer primitives.
// ---------------------------------------------------------------------------

TEST(TracerTest, SpanScopeRebindsParentAndRecordsTree) {
  Tracer tracer(/*trace_id=*/42);
  TraceContext ctx{&tracer, /*parent_span=*/7};
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    DB_SPAN_NAMED(outer, ctx, "outer");
    outer.Tag("k", std::string("v"));
    outer_id = outer.id();
    EXPECT_EQ(ctx.parent_span, outer_id);  // rebound for the scope
    {
      DB_SPAN_NAMED(inner, ctx, "inner");
      inner_id = inner.id();
      EXPECT_EQ(ctx.parent_span, inner_id);
    }
    EXPECT_EQ(ctx.parent_span, outer_id);  // restored after inner
  }
  EXPECT_EQ(ctx.parent_span, 7u);  // restored after outer
  const std::vector<TraceSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  // Ordered by start time: outer opened first.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent_id, 7u);
  EXPECT_EQ(spans[0].tags, "k=v");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent_id, outer_id);
  EXPECT_GE(spans[0].duration_ns, spans[1].duration_ns);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, NullTracerRecordsNothing) {
  TraceContext ctx{nullptr, 0};
  DB_SPAN(ctx, "noop");
  ctx.parent_span = 5;
  DB_SPAN(ctx, "noop2");
  EXPECT_EQ(ctx.parent_span, 5u);  // disabled scope never rebinds
}

TEST(TracerTest, RingDropsOldestBeyondCapacity) {
  Tracer tracer(/*trace_id=*/1, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceSpan span;
    span.span_id = static_cast<uint64_t>(i + 1);
    span.name = "s" + std::to_string(i);
    span.start_ns = i;
    tracer.Record(std::move(span));
  }
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::vector<TraceSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 4u);
  // The survivors are the newest four, still ordered by start time.
  EXPECT_EQ(spans.front().name, "s6");
  EXPECT_EQ(spans.back().name, "s9");
}

TEST(TracerTest, ImportReanchorsRemoteTimestamps) {
  Tracer local(/*trace_id=*/9);
  TraceSpan remote;
  remote.span_id = 100;
  remote.parent_id = 50;
  remote.name = "worker.assign";
  remote.start_ns = 1'000'000;  // remote clock domain
  remote.duration_ns = 500;
  local.Import({remote}, /*offset_ns=*/-900'000);
  const std::vector<TraceSpan> spans = local.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].start_ns, 100'000);
  EXPECT_EQ(spans[0].duration_ns, 500);  // durations never shift
  EXPECT_EQ(spans[0].span_id, 100u);
  EXPECT_EQ(spans[0].parent_id, 50u);
}

TEST(TracerTest, IdsAreFreshAndNonzero) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    const uint64_t span = NewSpanId();
    const uint64_t trace = NewTraceId();
    EXPECT_NE(span, 0u);
    EXPECT_NE(trace, 0u);
    ids.insert(span);
    ids.insert(trace);
  }
  EXPECT_EQ(ids.size(), 128u);
}

// ---------------------------------------------------------------------------
// Histogram bucket boundary math ('le' semantics).
// ---------------------------------------------------------------------------

TEST(HistogramTest, BoundaryValuesLandInTheLowerBucket) {
  Histogram hist({0.001, 0.01, 0.1});
  hist.Observe(0.0005);  // below all bounds -> bucket 0
  hist.Observe(0.001);   // exactly a bound  -> still bucket 0 (le)
  hist.Observe(0.0011);  // just above       -> bucket 1
  hist.Observe(0.01);    // bound again      -> bucket 1
  hist.Observe(0.05);    // -> bucket 2
  hist.Observe(7.0);     // past the last bound -> +Inf bucket
  const Histogram::Snapshot snap = hist.Snap();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);  // bounds + implicit +Inf
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_NEAR(snap.sum, 0.0005 + 0.001 + 0.0011 + 0.01 + 0.05 + 7.0, 1e-12);
}

TEST(HistogramTest, DefaultLatencyBoundsAreStrictlyAscending) {
  const std::vector<double> bounds = DefaultLatencyBounds();
  ASSERT_GE(bounds.size(), 8u);
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    EXPECT_LT(bounds[i], bounds[i + 1]);
  }
  // Wide enough for cached sub-ms answers and multi-second runs.
  EXPECT_LE(bounds.front(), 0.001);
  EXPECT_GE(bounds.back(), 10.0);
}

// ---------------------------------------------------------------------------
// Registry + renderers.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, HandlesAreStableAndSharedByName) {
  MetricsRegistry registry;  // isolated instance; Global() untouched
  Counter* c1 = registry.GetCounter("test_total");
  Counter* c2 = registry.GetCounter("test_total");
  EXPECT_EQ(c1, c2);
  c1->Inc(3);
  Gauge* g = registry.GetGauge("test_depth");
  g->Set(-2);
  Histogram* h1 = registry.GetHistogram("test_seconds", {0.5, 1.0});
  // Re-request ignores the new bounds: first registration wins.
  Histogram* h2 = registry.GetHistogram("test_seconds", {9.0});
  EXPECT_EQ(h1, h2);
  ASSERT_EQ(h1->bounds().size(), 2u);
  h1->Observe(0.7);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "test_total");
  EXPECT_EQ(snap.counters[0].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -2);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

TEST(MetricsRenderTest, PrometheusTextHasFamiliesAndCumulativeBuckets) {
  MetricsRegistry registry;
  registry.GetCounter("demo_jobs_total{status=\"ok\"}")->Inc(2);
  registry.GetCounter("demo_jobs_total{status=\"error\"}")->Inc(1);
  registry.GetGauge("demo_depth")->Set(4);
  Histogram* h = registry.GetHistogram("demo_seconds", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(5.0);
  const std::string text = RenderPrometheus(registry.Snapshot());
  // One TYPE header per family, not per labeled series.
  EXPECT_EQ(text.find("# TYPE demo_jobs_total counter"),
            text.rfind("# TYPE demo_jobs_total counter"));
  EXPECT_NE(text.find("demo_jobs_total{status=\"ok\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("demo_jobs_total{status=\"error\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("demo_depth 4"), std::string::npos);
  // Buckets are cumulative with an +Inf catch-all equal to _count.
  EXPECT_NE(text.find("demo_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("demo_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("demo_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("demo_seconds_count 3"), std::string::npos);

  const std::string json = RenderJson(registry.Snapshot());
  EXPECT_NE(json.find("\"demo_jobs_total{status=\\\"ok\\\"}\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("\"buckets\": [1, 1, 1]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Wire round-trips of the observability payload additions.
// ---------------------------------------------------------------------------

TEST(ObservabilityWireTest, TraceSpansRoundTrip) {
  std::vector<TraceSpan> spans(2);
  spans[0].span_id = 11;
  spans[0].parent_id = 0;
  spans[0].name = "worker.assign";
  spans[0].start_ns = -5;  // negative survives the u64 cast round-trip
  spans[0].duration_ns = 123456789;
  spans[0].tags = "worker=w0,assignment=3";
  spans[1].span_id = 12;
  spans[1].parent_id = 11;
  spans[1].name = "pipeline.extract";
  codec::Writer w;
  wire::EncodeTraceSpans(spans, &w);
  const std::string bytes = w.Take();
  codec::Reader r(bytes);
  std::vector<TraceSpan> decoded;
  ASSERT_TRUE(wire::DecodeTraceSpans(&r, &decoded));
  ASSERT_TRUE(r.exhausted());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].span_id, 11u);
  EXPECT_EQ(decoded[0].start_ns, -5);
  EXPECT_EQ(decoded[0].duration_ns, 123456789);
  EXPECT_EQ(decoded[0].tags, "worker=w0,assignment=3");
  EXPECT_EQ(decoded[1].parent_id, 11u);
  EXPECT_EQ(decoded[1].name, "pipeline.extract");
}

TEST(ObservabilityWireTest, ResultSummaryCarriesTraceIdAndPhases) {
  wire::ResultSummaryWire summary;
  summary.trace_id = 0xfeedbeef;
  summary.queue_s = 0.25;
  summary.extract_s = 1.5;
  summary.score_s = 2.5;
  summary.merge_s = 0.125;
  summary.wire_s = 0.0625;
  summary.worker_hop_s = 0.5;
  summary.total_s = 4.0;
  codec::Writer w;
  wire::EncodeResultSummary(summary, &w);
  const std::string bytes = w.Take();
  codec::Reader r(bytes);
  wire::ResultSummaryWire decoded;
  ASSERT_TRUE(wire::DecodeResultSummary(&r, &decoded));
  EXPECT_EQ(decoded.trace_id, 0xfeedbeefu);
  EXPECT_EQ(decoded.queue_s, 0.25);
  EXPECT_EQ(decoded.extract_s, 1.5);
  EXPECT_EQ(decoded.score_s, 2.5);
  EXPECT_EQ(decoded.merge_s, 0.125);
  EXPECT_EQ(decoded.wire_s, 0.0625);
  EXPECT_EQ(decoded.worker_hop_s, 0.5);
  EXPECT_EQ(decoded.total_s, 4.0);
}

TEST(ObservabilityWireTest, AssignmentCarriesTraceIdentity) {
  wire::AssignmentWire assignment;
  assignment.assignment_id = 77;
  assignment.mode = wire::AssignmentWire::Mode::kSliced;
  assignment.total_shards = 4;
  assignment.shard_lo = 0;
  assignment.shard_hi = 2;
  assignment.trace_id = 0xabcd;
  assignment.parent_span = 0x1234;
  assignment.request.models.push_back({.name = "planted"});
  assignment.request.hypothesis_sets = {"keywords"};
  assignment.request.dataset_name = "ab";
  codec::Writer w;
  ASSERT_TRUE(wire::EncodeAssignment(assignment, &w).ok());
  const std::string bytes = w.Take();
  codec::Reader r(bytes);
  wire::AssignmentWire decoded;
  ASSERT_TRUE(wire::DecodeAssignment(&r, &decoded));
  EXPECT_EQ(decoded.trace_id, 0xabcdu);
  EXPECT_EQ(decoded.parent_span, 0x1234u);

  wire::AssignResultWire result;
  result.assignment_id = 77;
  result.run_ns = 123456;
  TraceSpan span;
  span.span_id = 9;
  span.name = "worker.assign";
  result.spans.push_back(span);
  codec::Writer rw;
  wire::EncodeAssignResult(result, &rw);
  const std::string rbytes = rw.Take();
  codec::Reader rr(rbytes);
  wire::AssignResultWire rdecoded;
  ASSERT_TRUE(wire::DecodeAssignResult(&rr, &rdecoded));
  EXPECT_EQ(rdecoded.run_ns, 123456);
  ASSERT_EQ(rdecoded.spans.size(), 1u);
  EXPECT_EQ(rdecoded.spans[0].name, "worker.assign");
}

// ---------------------------------------------------------------------------
// Shared planted world (the server/cluster tests' deterministic toy).
// ---------------------------------------------------------------------------

class PlantedExtractor : public Extractor {
 public:
  explicit PlantedExtractor(size_t units = 4, int delay_us = 0)
      : Extractor("planted"), units_(units), delay_us_(delay_us) {}
  size_t num_units() const override { return units_; }

  Matrix ExtractBlock(const Dataset& dataset,
                      const std::vector<size_t>& record_idx,
                      const std::vector<int>& unit_ids) const override {
    if (delay_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
    }
    return Extractor::ExtractBlock(dataset, record_idx, unit_ids);
  }

  Matrix ExtractRecord(const Record& rec,
                       const std::vector<int>& unit_ids) const override {
    Matrix out(rec.size(), unit_ids.size());
    for (size_t t = 0; t < rec.size(); ++t) {
      const bool is_a = rec.tokens[t] == "a";
      for (size_t c = 0; c < unit_ids.size(); ++c) {
        const int uid = unit_ids[c];
        if (uid == 0) {
          out(t, c) = (is_a ? 1.0f : 0.0f) +
                      0.01f * static_cast<float>((rec.ids[t] + t) % 7);
        } else {
          out(t, c) =
              static_cast<float>(
                  (rec.ids[t] * 2654435761u + t * 40503u + uid * 97u) %
                  997) /
                  498.5f -
              1.0f;
        }
      }
    }
    return out;
  }

 private:
  size_t units_;
  int delay_us_;
};

HypothesisPtr IsAHypothesis() {
  return std::make_shared<FunctionHypothesis>("is_a", [](const Record& rec) {
    std::vector<float> out(rec.size(), 0.0f);
    for (size_t i = 0; i < rec.size(); ++i) {
      if (rec.tokens[i] == "a") out[i] = 1.0f;
    }
    return out;
  });
}

Dataset MakeAbDataset(size_t records = 192, size_t ns = 8) {
  Dataset dataset(Vocab::FromChars("ab"), ns);
  Rng rng(3);
  for (size_t i = 0; i < records; ++i) {
    std::string text;
    for (size_t t = 0; t < ns; ++t) text += rng.Bernoulli(0.4) ? 'a' : 'b';
    dataset.AddText(text);
  }
  return dataset;
}

struct World {
  PlantedExtractor extractor;
  Dataset dataset;
  InspectionSession session;

  explicit World(SessionConfig config = SessionConfig{.num_threads = 2})
      : dataset(MakeAbDataset()), session(std::move(config)) {
    session.catalog().RegisterModel("planted", &extractor);
    session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
    session.catalog().RegisterDataset("ab", &dataset);
  }
};

InspectRequest PlantedRequest(size_t num_shards = 1,
                              const char* measure = "pearson") {
  InspectRequest request;
  request.models.push_back({.name = "planted"});
  request.hypothesis_sets = {"keywords"};
  request.dataset_name = "ab";
  request.measure_names = {measure};
  InspectOptions options;
  options.block_size = 16;
  options.num_shards = num_shards;
  options.streaming = false;
  options.early_stopping = false;
  request.options = options;
  return request;
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->Value();
}

/// Jobs resolve their waiters before FinalizeJob records the terminal
/// metrics, so a counter read right after Wait() races the finalizer.
/// Poll the counter up to a deadline; return its final value.
uint64_t SettleCounter(const char* name, uint64_t at_least) {
  for (int i = 0; i < 2000 && CounterValue(name) < at_least; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return CounterValue(name);
}

/// TraceSpans() read right after Wait() can miss the "sched.job" root
/// (recorded by the finalizer, which runs after waiters resolve). Poll
/// until the root shows up.
std::vector<TraceSpan> SettledSpans(const JobHandle& job) {
  for (int i = 0; i < 2000; ++i) {
    std::vector<TraceSpan> spans = job.TraceSpans();
    for (const TraceSpan& span : spans) {
      if (span.name == "sched.job") return spans;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return job.TraceSpans();
}

/// Verify every span's parent is the root id or another recorded span —
/// the tree-integrity invariant of a stitched trace.
void CheckTreeIntegrity(const std::vector<TraceSpan>& spans) {
  std::set<uint64_t> ids;
  for (const TraceSpan& span : spans) {
    EXPECT_NE(span.span_id, 0u) << span.name;
    EXPECT_TRUE(ids.insert(span.span_id).second)
        << "duplicate span id for " << span.name;
  }
  for (const TraceSpan& span : spans) {
    if (span.parent_id == 0) {
      EXPECT_EQ(span.name, "sched.job");
      continue;
    }
    EXPECT_TRUE(ids.count(span.parent_id) != 0)
        << span.name << " has an orphaned parent id";
  }
}

size_t CountByName(const std::vector<TraceSpan>& spans, const char* name) {
  return static_cast<size_t>(
      std::count_if(spans.begin(), spans.end(),
                    [&](const TraceSpan& s) { return s.name == name; }));
}

// ---------------------------------------------------------------------------
// Local job: span tree + phase summary.
// ---------------------------------------------------------------------------

TEST(ObservabilityTest, LocalJobRecordsSpanTreeAndPhaseSummary) {
  World world;
  JobHandle job = world.session.Submit(PlantedRequest(/*num_shards=*/2),
                                       /*trace_id=*/0xc0ffee);
  ASSERT_TRUE(job.Wait().ok());
  const JobSummary summary = job.Summary();
  EXPECT_EQ(summary.trace_id, 0xc0ffeeu);  // external id adopted
  EXPECT_GT(summary.total_s, 0.0);
  EXPECT_GE(summary.queue_s, 0.0);
  EXPECT_GT(summary.extract_s, 0.0);
  EXPECT_GT(summary.score_s, 0.0);
  EXPECT_EQ(summary.wire_s, 0.0);        // local job: no serving layer
  EXPECT_EQ(summary.worker_hop_s, 0.0);  // local job: no cluster

  const std::vector<TraceSpan> spans = SettledSpans(job);
  ASSERT_FALSE(spans.empty());
  CheckTreeIntegrity(spans);
  EXPECT_EQ(CountByName(spans, "sched.job"), 1u);
  EXPECT_EQ(CountByName(spans, "sched.admit"), 1u);
  EXPECT_EQ(CountByName(spans, "sched.queue"), 1u);
  EXPECT_EQ(CountByName(spans, "engine.inspect"), 1u);
  EXPECT_EQ(CountByName(spans, "pipeline.extract"), 1u);
  EXPECT_EQ(CountByName(spans, "pipeline.lane"), 2u);  // one per shard
  EXPECT_EQ(CountByName(spans, "pipeline.merge"), 1u);
  // The root closes last and spans the whole job.
  const auto root = std::find_if(
      spans.begin(), spans.end(),
      [](const TraceSpan& s) { return s.name == "sched.job"; });
  for (const TraceSpan& span : spans) {
    EXPECT_GE(span.start_ns, root->start_ns) << span.name;
    EXPECT_LE(span.start_ns + span.duration_ns,
              root->start_ns + root->duration_ns)
        << span.name;
  }
}

TEST(ObservabilityTest, TracingOffYieldsNoSpansAndNoTraceId) {
  SessionConfig config;
  config.num_threads = 2;
  config.enable_tracing = false;
  World world(std::move(config));
  JobHandle job = world.session.Submit(PlantedRequest());
  ASSERT_TRUE(job.Wait().ok());
  EXPECT_TRUE(job.TraceSpans().empty());
  EXPECT_EQ(job.Summary().trace_id, 0u);
  EXPECT_GT(job.Summary().total_s, 0.0);  // phases still measured
}

// ---------------------------------------------------------------------------
// Admission rejections count as one terminal error each, sync or async.
// ---------------------------------------------------------------------------

TEST(ObservabilityTest, AdmissionRejectionCountsOneErrorOnEveryPath) {
  World world;
  const char* kErrors = "deepbase_jobs_total{status=\"error\"}";
  InspectRequest expired = PlantedRequest();
  expired.options->deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);

  uint64_t before = CounterValue(kErrors);
  EXPECT_EQ(world.session.Inspect(expired).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CounterValue(kErrors), before + 1);

  before = CounterValue(kErrors);
  JobHandle job = world.session.Submit(expired);
  EXPECT_EQ(job.Wait().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(SettleCounter(kErrors, before + 1), before + 1);

  failpoint::Arm("scheduler.admit",
                 failpoint::Action{.code = StatusCode::kUnavailable});
  before = CounterValue(kErrors);
  const Status sync_status = world.session.Inspect(PlantedRequest()).status();
  const uint64_t after_sync = CounterValue(kErrors);
  JobHandle armed = world.session.Submit(PlantedRequest());
  const Status async_status = armed.Wait().status();
  failpoint::DisarmAll();
  EXPECT_EQ(sync_status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(after_sync, before + 1);
  EXPECT_EQ(async_status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(SettleCounter(kErrors, before + 2), before + 2);
}

// ---------------------------------------------------------------------------
// Slow-job log: fires exactly once per offending job.
// ---------------------------------------------------------------------------

TEST(ObservabilityTest, SlowJobCountsExactlyOncePerOffendingJob) {
  SessionConfig config;
  config.num_threads = 2;
  config.slow_job_threshold_s = 1e-9;  // every real job is "slow"
  World world(std::move(config));
  const uint64_t before = CounterValue("deepbase_slow_jobs_total");
  JobHandle a = world.session.Submit(PlantedRequest());
  ASSERT_TRUE(a.Wait().ok());
  JobHandle b = world.session.Submit(PlantedRequest(2, "jaccard"));
  ASSERT_TRUE(b.Wait().ok());
  EXPECT_EQ(SettleCounter("deepbase_slow_jobs_total", before + 2),
            before + 2);
  // Re-reading the terminal state never re-fires the log.
  ASSERT_TRUE(a.Wait().ok());
  (void)a.Summary();
  (void)a.TraceSpans();
  ASSERT_TRUE(b.Wait().ok());
  EXPECT_EQ(CounterValue("deepbase_slow_jobs_total"), before + 2);
}

TEST(ObservabilityTest, FastJobsNeverCountAsSlow) {
  SessionConfig config;
  config.num_threads = 2;
  config.slow_job_threshold_s = 3600.0;
  World world(std::move(config));
  const uint64_t before = CounterValue("deepbase_slow_jobs_total");
  JobHandle job = world.session.Submit(PlantedRequest());
  ASSERT_TRUE(job.Wait().ok());
  EXPECT_EQ(CounterValue("deepbase_slow_jobs_total"), before);
}

// ---------------------------------------------------------------------------
// Metrics snapshot consistency under concurrent jobs (TSan-relevant).
// ---------------------------------------------------------------------------

TEST(ObservabilityTest, MetricsSnapshotsStayConsistentUnderConcurrentJobs) {
  constexpr size_t kJobs = 8;
  World world(SessionConfig{.num_threads = 4});
  const uint64_t submitted_before =
      CounterValue("deepbase_jobs_submitted_total");
  const uint64_t ok_before =
      CounterValue("deepbase_jobs_total{status=\"ok\"}");
  const Histogram::Snapshot latency_before =
      MetricsRegistry::Global()
          .GetHistogram("deepbase_job_latency_seconds",
                        DefaultLatencyBounds())
          ->Snap();
  const int64_t depth_before =
      MetricsRegistry::Global().GetGauge("deepbase_queue_depth")->Value();

  // Distinct shard counts -> distinct fingerprints: no dedup/cache, all
  // eight jobs really run while the main thread scrapes concurrently.
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
      EXPECT_FALSE(snap.counters.empty());
      for (const auto& [name, hist] : snap.histograms) {
        EXPECT_EQ(hist.counts.size(), hist.bounds.size() + 1) << name;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> submitters;
  std::vector<JobHandle> jobs(kJobs);
  for (size_t j = 0; j < kJobs; ++j) {
    submitters.emplace_back([&world, &jobs, j] {
      InspectRequest request = PlantedRequest(1 + j % 4);
      request.options->shuffle_seed = 100 + j;  // distinct fingerprints
      jobs[j] = world.session.Submit(std::move(request));
    });
  }
  for (std::thread& t : submitters) t.join();
  for (JobHandle& job : jobs) ASSERT_TRUE(job.Wait().ok());
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  // Quiescent: every counter/histogram accounts for exactly these jobs.
  // (Waiters resolve before FinalizeJob runs, and each job's pool task
  // lowers the queue-depth gauge after that — settle the gauge and the
  // terminal counter before asserting exact values.)
  Gauge* depth = MetricsRegistry::Global().GetGauge("deepbase_queue_depth");
  for (int i = 0; i < 2000 && depth->Value() != depth_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(CounterValue("deepbase_jobs_submitted_total"),
            submitted_before + kJobs);
  EXPECT_EQ(SettleCounter("deepbase_jobs_total{status=\"ok\"}",
                          ok_before + kJobs),
            ok_before + kJobs);
  const Histogram::Snapshot latency_after =
      MetricsRegistry::Global()
          .GetHistogram("deepbase_job_latency_seconds",
                        DefaultLatencyBounds())
          ->Snap();
  EXPECT_EQ(latency_after.count, latency_before.count + kJobs);
  uint64_t bucket_total = 0;
  for (uint64_t c : latency_after.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, latency_after.count);
  EXPECT_GT(latency_after.sum, latency_before.sum);
  EXPECT_EQ(depth->Value(), depth_before);
}

// ---------------------------------------------------------------------------
// kMetrics RPC end-to-end: Prometheus text over the wire, monotonic
// counters across scrapes, JSON variant.
// ---------------------------------------------------------------------------

uint64_t ParseMetric(const std::string& text, const std::string& name) {
  const size_t pos = text.find("\n" + name + " ");
  EXPECT_NE(pos, std::string::npos) << name << " missing from exposition";
  if (pos == std::string::npos) return 0;
  return std::stoull(text.substr(pos + name.size() + 2));
}

TEST(ObservabilityTest, MetricsRpcServesPrometheusAndJson) {
  World world(SessionConfig{.num_threads = 2});
  InspectionServer server(&world.session, {});
  ASSERT_TRUE(server.Start().ok());
  InspectionClient client({.port = server.port()});
  ASSERT_TRUE(client.Connect().ok());

  Result<ResultTable> table = client.Inspect(PlantedRequest());
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  Result<std::string> scrape1 = client.Metrics();
  ASSERT_TRUE(scrape1.ok()) << scrape1.status().ToString();
  for (const char* required :
       {"deepbase_jobs_submitted_total",
        "deepbase_jobs_total{status=\"ok\"}", "deepbase_queue_depth",
        "deepbase_job_latency_seconds_bucket",
        "deepbase_job_latency_seconds_count",
        "deepbase_server_connections_total",
        "deepbase_server_frames_received_total",
        "deepbase_server_frames_sent_total"}) {
    EXPECT_NE(scrape1->find(required), std::string::npos) << required;
  }
  EXPECT_NE(scrape1->find("# TYPE deepbase_job_latency_seconds histogram"),
            std::string::npos);

  // More work between scrapes -> counters are monotonic.
  InspectRequest second = PlantedRequest(2);
  Result<ResultTable> table2 = client.Inspect(second);
  ASSERT_TRUE(table2.ok());
  Result<std::string> scrape2 = client.Metrics();
  ASSERT_TRUE(scrape2.ok());
  EXPECT_GT(ParseMetric(*scrape2, "deepbase_jobs_submitted_total"),
            ParseMetric(*scrape1, "deepbase_jobs_submitted_total"));
  EXPECT_GE(ParseMetric(*scrape2, "deepbase_server_frames_received_total"),
            ParseMetric(*scrape1, "deepbase_server_frames_received_total"));

  Result<std::string> json = client.Metrics(/*json=*/true);
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"counters\""), std::string::npos);
  EXPECT_NE(json->find("deepbase_jobs_submitted_total"), std::string::npos);

  server.Shutdown();
}

TEST(ObservabilityTest, RemoteJobSummaryCarriesPhaseBreakdown) {
  World world(SessionConfig{.num_threads = 2});
  InspectionServer server(&world.session, {});
  ASSERT_TRUE(server.Start().ok());
  InspectionClient client({.port = server.port()});
  ASSERT_TRUE(client.Connect().ok());
  Result<RemoteJob> job = client.Submit(PlantedRequest());
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE(job->Wait().ok());
  const wire::ResultSummaryWire summary = job->Summary();
  EXPECT_NE(summary.trace_id, 0u);  // client-minted, adopted by the server
  EXPECT_GT(summary.total_s, 0.0);
  EXPECT_GT(summary.extract_s, 0.0);
  EXPECT_GT(summary.score_s, 0.0);
  EXPECT_GT(summary.wire_s, 0.0);  // serialization is on the critical path
  EXPECT_GE(summary.queue_s, 0.0);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// The acceptance scenario: a 2-worker distributed job stitches into one
// trace — coordinator dispatch spans with both workers' pipeline spans
// as (re-anchored) children.
// ---------------------------------------------------------------------------

TEST(ObservabilityTest, TwoWorkerClusterJobStitchesOneTrace) {
  World coord_world;
  cluster::CoordinatorConfig config;
  config.total_shards = 2;  // one shard range per worker
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());

  World w1, w2;
  cluster::InspectionWorker worker1(
      &w1.session,
      {.worker_id = "ow-1", .coordinator_port = coordinator.port()});
  cluster::InspectionWorker worker2(
      &w2.session,
      {.worker_id = "ow-2", .coordinator_port = coordinator.port()});
  ASSERT_TRUE(worker1.Connect().ok());
  ASSERT_TRUE(worker2.Connect().ok());
  for (int i = 0; i < 5000 && coordinator.num_workers() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(coordinator.num_workers(), 2u);

  // Through the session front door: the coordinator installed itself as
  // the scheduler's engine, so this job executes on the cluster.
  const uint64_t assignments_before =
      CounterValue("deepbase_cluster_assignments_total");
  JobHandle job = coord_world.session.Submit(
      PlantedRequest(/*num_shards=*/2, "jaccard"), /*trace_id=*/0xdead01);
  ASSERT_TRUE(job.Wait().ok()) << job.Wait().status().ToString();
  EXPECT_EQ(job.Summary().trace_id, 0xdead01u);
  EXPECT_GE(CounterValue("deepbase_cluster_assignments_total"),
            assignments_before + 2);

  const std::vector<TraceSpan> spans = SettledSpans(job);
  CheckTreeIntegrity(spans);
  EXPECT_EQ(CountByName(spans, "coord.run"), 1u);
  EXPECT_EQ(CountByName(spans, "coord.dispatch"), 2u);
  EXPECT_EQ(CountByName(spans, "coord.merge"), 1u);
  ASSERT_EQ(CountByName(spans, "worker.assign"), 2u);

  std::map<uint64_t, const TraceSpan*> by_id;
  for (const TraceSpan& span : spans) by_id[span.span_id] = &span;
  // Both workers' roots hang off distinct coordinator dispatch spans and
  // carry their worker identity.
  std::set<uint64_t> dispatch_parents;
  std::set<std::string> worker_tags;
  for (const TraceSpan& span : spans) {
    if (span.name != "worker.assign") continue;
    ASSERT_NE(by_id.count(span.parent_id), 0u);
    EXPECT_EQ(by_id[span.parent_id]->name, "coord.dispatch");
    dispatch_parents.insert(span.parent_id);
    worker_tags.insert(span.tags.substr(0, span.tags.find(',')));
    // Re-anchored into the coordinator's clock: nested within dispatch.
    EXPECT_GE(span.start_ns, by_id[span.parent_id]->start_ns);
  }
  EXPECT_EQ(dispatch_parents.size(), 2u);
  EXPECT_EQ(worker_tags,
            (std::set<std::string>{"worker=ow-1", "worker=ow-2"}));
  // Each worker shipped its pipeline spans: extract + its owned lane,
  // parented (transitively) under its worker.assign root.
  EXPECT_EQ(CountByName(spans, "pipeline.extract"), 2u);
  EXPECT_GE(CountByName(spans, "pipeline.lane"), 2u);
  for (const TraceSpan& span : spans) {
    if (span.name != "pipeline.extract" && span.name != "pipeline.lane") {
      continue;
    }
    // Walk up to the root; the path must pass through worker.assign.
    bool through_worker = false;
    const TraceSpan* cursor = &span;
    for (int hops = 0; hops < 16 && cursor->parent_id != 0; ++hops) {
      ASSERT_NE(by_id.count(cursor->parent_id), 0u) << span.name;
      cursor = by_id[cursor->parent_id];
      if (cursor->name == "worker.assign") through_worker = true;
    }
    EXPECT_TRUE(through_worker) << span.name;
  }

  // The distributed phases surface in the job summary.
  const JobSummary summary = job.Summary();
  EXPECT_GT(summary.merge_s, 0.0);
  EXPECT_GE(summary.worker_hop_s, 0.0);

  worker1.Shutdown();
  worker2.Shutdown();
  coordinator.Shutdown();
}

}  // namespace
}  // namespace deepbase
