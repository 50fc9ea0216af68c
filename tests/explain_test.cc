// EXPLAIN / EXPLAIN ANALYZE + statusz introspection (service/explain.h).
//
// The contract under test, in order:
//   1. Explain() is deterministic: same request + same session state →
//      byte-identical plan text (the rendering promise the rest of this
//      file leans on).
//   2. Explain() is a pure dry run: zero blocks extracted, no job
//      created, no scheduler/store/result-cache counter moves.
//   3. ExplainAnalyze() reconciles plan vs run: a repeat of an identical
//      request is *predicted* as a cache hit and the actuals confirm it
//      (zero extraction, no divergences).
//   4. A failpoint-degraded cluster dispatch is flagged as a divergence
//      ("predicted cluster dispatch ran on the local engine").
//   5. The acceptance scenario: EXPLAIN ANALYZE over a live 2-worker
//      cluster renders the sliceability verdict, per-measure merge
//      exactness, and both workers' shard ranges with actual seconds.
//   6. The textual front-end (EXPLAIN [ANALYZE] INSPECT ... through
//      SqlSession) and RenderStatusz.
//   7. The rendered admission verdict is what Submit() then does, over
//      every combination of cache, quota slot, deadline and in-flight
//      leader.
//   8. A request that does not compile fails Explain() with the status
//      Inspect() returns for it, and the dry run still moves nothing.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "cluster/worker.h"
#include "core/behavior_store.h"
#include "service/explain.h"
#include "service/inspection_session.h"
#include "service/scheduler.h"
#include "sql/sql_session.h"
#include "util/failpoint.h"
#include "util/metrics.h"

namespace deepbase {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// A store directory wiped at the start of the test, so persistent tiers
// from a previous run of this binary can't turn a predicted cache miss
// into a hit and break idempotency.
std::string FreshStoreDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// Deterministic planted extractor (the cluster_test fixture recipe):
// unit 0 tracks 'a' tokens, the rest are hash noise — identical in every
// session so coordinator and workers share a catalog by construction.
// Counts ExtractBlock calls so tests can prove a dry run ran nothing.
class CountingExtractor : public Extractor {
 public:
  explicit CountingExtractor(size_t units = 4)
      : Extractor("planted"), units_(units) {}
  size_t num_units() const override { return units_; }
  size_t blocks_extracted() const {
    return blocks_.load(std::memory_order_relaxed);
  }

  Matrix ExtractBlock(const Dataset& dataset,
                      const std::vector<size_t>& record_idx,
                      const std::vector<int>& unit_ids) const override {
    blocks_.fetch_add(1, std::memory_order_relaxed);
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
  mutable std::atomic<size_t> blocks_{0};
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

Dataset MakeAbDataset(size_t records = 96, size_t ns = 8) {
  Dataset dataset(Vocab::FromChars("ab"), ns);
  Rng rng(3);
  for (size_t i = 0; i < records; ++i) {
    std::string text;
    for (size_t t = 0; t < ns; ++t) text += rng.Bernoulli(0.4) ? 'a' : 'b';
    dataset.AddText(text);
  }
  return dataset;
}

// One process-equivalent: a session with its own identically-built
// catalog, as each worker process would have.
struct World {
  CountingExtractor extractor;
  Dataset dataset;
  InspectionSession session;

  explicit World(SessionConfig config = {.num_threads = 2})
      : dataset(MakeAbDataset()), session(std::move(config)) {
    session.catalog().RegisterModel("planted", &extractor);
    session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
    session.catalog().RegisterDataset("ab", &dataset);
  }
};

InspectOptions PinnedOptions(size_t num_shards = 4) {
  InspectOptions options;
  options.block_size = 16;
  options.num_shards = num_shards;
  options.streaming = false;       // sliceable lane
  options.early_stopping = false;  // full pass → stable fingerprints
  return options;
}

InspectRequest PearsonRequest(size_t num_shards = 4) {
  InspectRequest request;
  request.models.push_back({.name = "planted"});
  request.hypothesis_sets = {"keywords"};
  request.dataset_name = "ab";
  request.measure_names = {"pearson"};  // kBitExact pairwise-tree merge
  request.options = PinnedOptions(num_shards);
  return request;
}

bool WaitForWorkers(const cluster::ClusterCoordinator& coordinator, size_t n,
                    int timeout_ms = 5000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (coordinator.num_workers() >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return coordinator.num_workers() >= n;
}

// ---------------------------------------------------------------------------
// EXPLAIN prefix parsing (the front-end entry shared by SQL + serving).
// ---------------------------------------------------------------------------

TEST(ExplainPrefixTest, StripsExplainAndOptionalAnalyze) {
  std::string s = "  ExPlAiN   INSPECT units OF m AND h OVER d";
  bool analyze = true;
  EXPECT_TRUE(StripExplainInspectPrefix(&s, &analyze));
  EXPECT_FALSE(analyze);
  EXPECT_EQ(s, "INSPECT units OF m AND h OVER d");

  s = "explain analyze inspect units OF m AND h OVER d";
  EXPECT_TRUE(StripExplainInspectPrefix(&s, &analyze));
  EXPECT_TRUE(analyze);
  EXPECT_EQ(s, "inspect units OF m AND h OVER d");

  s = "SELECT 1";
  EXPECT_FALSE(StripExplainInspectPrefix(&s, &analyze));
  EXPECT_EQ(s, "SELECT 1");
}

// ---------------------------------------------------------------------------
// Dry-run Explain: determinism + purity.
// ---------------------------------------------------------------------------

TEST(ExplainTest, PlanTextIsByteIdenticalAcrossCalls) {
  World world(SessionConfig{
      .num_threads = 2,
      .store_dir = FreshStoreDir("explain_determinism_store")});
  const InspectRequest request = PearsonRequest(2);

  Result<InspectionPlan> plan1 = world.session.Explain(request);
  Result<InspectionPlan> plan2 = world.session.Explain(request);
  ASSERT_TRUE(plan1.ok()) << plan1.status().ToString();
  ASSERT_TRUE(plan2.ok()) << plan2.status().ToString();
  EXPECT_FALSE(plan1->analyzed);
  EXPECT_EQ(plan1->ToText(), plan2->ToText());
  EXPECT_EQ(plan1->ToJson(), plan2->ToJson());

  // The plan names every decision stage.
  const std::string text = plan1->ToText();
  EXPECT_TRUE(Contains(text, "inspect:")) << text;
  EXPECT_TRUE(Contains(text, "admission: admit")) << text;
  EXPECT_TRUE(Contains(text, "cache: miss (will compute and admit)")) << text;
  EXPECT_TRUE(Contains(text, "dedup: leader (no identical job in flight)"))
      << text;
  EXPECT_TRUE(Contains(text, "shared-scan:")) << text;
  EXPECT_TRUE(Contains(text, "unit-behaviors:")) << text;
  EXPECT_TRUE(Contains(text, "tier=miss (will extract)")) << text;
  EXPECT_TRUE(Contains(text, "partition: shards=2")) << text;
  EXPECT_TRUE(Contains(text, "merge=bit-exact")) << text;
  EXPECT_TRUE(Contains(text, "cluster: none (local engine)")) << text;
  EXPECT_TRUE(Contains(text, "kernel:")) << text;
  EXPECT_TRUE(Contains(text, "cost:")) << text;
  // No divergence markers and no actuals on a dry run.
  EXPECT_FALSE(Contains(text, "!!")) << text;
  EXPECT_FALSE(Contains(text, "| actual:")) << text;
}

TEST(ExplainTest, DryRunExecutesNothingAndMutatesNothing) {
  World world(SessionConfig{
      .num_threads = 2,
      .store_dir = FreshStoreDir("explain_purity_store")});
  const InspectRequest request = PearsonRequest(2);

  const SchedulerStats before = world.session.scheduler().stats();
  const BehaviorStore* store = world.session.store();
  ASSERT_NE(store, nullptr);
  const size_t store_hits_before =
      store->mem_hits() + store->disk_hits() + store->mmap_hits();
  const size_t store_misses_before = store->misses();

  ASSERT_TRUE(world.session.Explain(request).ok());

  EXPECT_EQ(world.extractor.blocks_extracted(), 0u);
  EXPECT_TRUE(world.session.Jobs().empty());

  const SchedulerStats after = world.session.scheduler().stats();
  EXPECT_EQ(after.jobs_scheduled, before.jobs_scheduled);
  EXPECT_EQ(after.result_cache_hits, before.result_cache_hits);
  EXPECT_EQ(after.result_cache_misses, before.result_cache_misses);
  EXPECT_EQ(after.dedup_followers, before.dedup_followers);
  EXPECT_EQ(after.groups_formed, before.groups_formed);
  EXPECT_EQ(after.snapshot.result_cache_entries,
            before.snapshot.result_cache_entries);
  EXPECT_EQ(after.snapshot.result_cache_bytes,
            before.snapshot.result_cache_bytes);
  EXPECT_EQ(after.snapshot.active_jobs, before.snapshot.active_jobs);
  EXPECT_EQ(after.snapshot.inflight_jobs, before.snapshot.inflight_jobs);
  EXPECT_EQ(store->mem_hits() + store->disk_hits() + store->mmap_hits(),
            store_hits_before);
  EXPECT_EQ(store->misses(), store_misses_before);
}

TEST(ExplainTest, StorelessPlanRendersTheMemoryOnlyHypothesisTier) {
  World world;  // no store_dir: hypotheses cache in a memory-only store
  const InspectRequest request = PearsonRequest(2);
  BehaviorStore* hyp_store = world.session.hypothesis_store();
  ASSERT_NE(hyp_store, nullptr);
  ASSERT_EQ(world.session.store(), nullptr);

  Result<InspectionPlan> before = world.session.Explain(request);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  std::string text = before->ToText();
  EXPECT_TRUE(Contains(text, "units=live (no store)")) << text;
  EXPECT_FALSE(Contains(text, "unit-behaviors:")) << text;
  EXPECT_TRUE(Contains(text, "hyp-behaviors: hypothesis=is_a")) << text;
  EXPECT_TRUE(Contains(text, "tier=miss (will extract)")) << text;
  EXPECT_EQ(hyp_store->mem_hits(), 0u);
  EXPECT_EQ(hyp_store->misses(), 0u);

  ASSERT_TRUE(world.session.Inspect(request).ok());
  const size_t hits = hyp_store->mem_hits();
  const size_t misses = hyp_store->misses();
  Result<InspectionPlan> after = world.session.Explain(request);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  text = after->ToText();
  EXPECT_TRUE(Contains(text, "tier=memory")) << text;
  EXPECT_FALSE(Contains(text, "tier=miss")) << text;
  // The dry run read residency without serving anything.
  EXPECT_EQ(hyp_store->mem_hits(), hits);
  EXPECT_EQ(hyp_store->misses(), misses);

  // A request that opts out of the tier renders the storeless line.
  InspectRequest live = request;
  live.options->hypothesis_store_tier = false;
  Result<InspectionPlan> live_plan = world.session.Explain(live);
  ASSERT_TRUE(live_plan.ok()) << live_plan.status().ToString();
  EXPECT_TRUE(Contains(live_plan->ToText(),
                       "inputs: no store (live extraction every run)"))
      << live_plan->ToText();
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE: plan-vs-actual reconciliation.
// ---------------------------------------------------------------------------

TEST(ExplainAnalyzeTest, RepeatRequestPredictsAndConfirmsCacheHit) {
  World world;
  const InspectRequest request = PearsonRequest(2);

  // First run: predicted miss, actual miss — no divergence.
  Result<InspectionPlan> first = world.session.ExplainAnalyze(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->analyzed);
  EXPECT_TRUE(Contains(first->ToText(), "cache: miss"));
  EXPECT_TRUE(Contains(first->ToText(), "| actual:"));
  EXPECT_TRUE(first->AllDivergences().empty())
      << first->AllDivergences().front();
  EXPECT_GT(world.extractor.blocks_extracted(), 0u);

  // Repeat: the plan predicts the hit before the run, the actuals
  // confirm it, and the engine extracts nothing new.
  const size_t blocks_after_first = world.extractor.blocks_extracted();
  Result<InspectionPlan> repeat = world.session.ExplainAnalyze(request);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  const std::string text = repeat->ToText();
  EXPECT_TRUE(Contains(text, "cache: hit (memory)")) << text;
  EXPECT_TRUE(Contains(text, "cache hit: zero engine phases expected"))
      << text;
  EXPECT_TRUE(repeat->AllDivergences().empty())
      << repeat->AllDivergences().front();
  EXPECT_EQ(world.extractor.blocks_extracted(), blocks_after_first);
}

TEST(ExplainAnalyzeTest, FlagsClusterDispatchDegradedToLocal) {
  World coord_world;
  cluster::CoordinatorConfig config;
  config.total_shards = 4;
  config.degrade_to_local = true;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());

  World worker_world;
  cluster::InspectionWorker worker(
      &worker_world.session,
      {.worker_id = "w-0", .coordinator_port = coordinator.port()});
  ASSERT_TRUE(worker.Connect().ok());
  ASSERT_TRUE(WaitForWorkers(coordinator, 1));

  // Every dispatch attempt fails → the coordinator degrades the job to
  // the local engine; the plan predicted a cluster dispatch, so the
  // reconciliation must call the contradiction out.
  failpoint::Arm("cluster.dispatch",
                 failpoint::Action{.code = StatusCode::kUnavailable});
  Result<InspectionPlan> plan =
      coord_world.session.ExplainAnalyze(PearsonRequest(4));
  failpoint::DisarmAll();

  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(Contains(plan->ToText(), "cluster: dispatch (sliced)"))
      << plan->ToText();
  bool flagged = false;
  for (const std::string& d : plan->AllDivergences()) {
    if (Contains(d, "ran on the local engine")) flagged = true;
  }
  EXPECT_TRUE(flagged) << plan->ToText();

  worker.Shutdown();
  coordinator.Shutdown();
}

// The acceptance scenario: EXPLAIN ANALYZE of a sliced job over a live
// 2-worker cluster renders — in one tree — the sliceability verdict,
// per-measure merge exactness, both workers' shard ranges with actual
// per-range seconds, store-tier residency, and the cache decision; the
// repeat renders `cache: hit` with zero extraction phases.
TEST(ExplainAnalyzeTest, TwoWorkerClusterPlanShowsRangesAndMergeExactness) {
  World coord_world(SessionConfig{
      .num_threads = 2,
      .store_dir = FreshStoreDir("explain_cluster_store")});
  cluster::CoordinatorConfig config;
  config.total_shards = 4;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());

  World world0, world1;
  cluster::InspectionWorker w0(
      &world0.session,
      {.worker_id = "w-0", .coordinator_port = coordinator.port()});
  cluster::InspectionWorker w1(
      &world1.session,
      {.worker_id = "w-1", .coordinator_port = coordinator.port()});
  ASSERT_TRUE(w0.Connect().ok());
  ASSERT_TRUE(w1.Connect().ok());
  ASSERT_TRUE(WaitForWorkers(coordinator, 2));

  Result<InspectionPlan> plan =
      coord_world.session.ExplainAnalyze(PearsonRequest(4));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string text = plan->ToText();

  // Sliceability verdict + placement: 4 shards over ["w-0", "w-1"].
  EXPECT_TRUE(Contains(text, "cluster: dispatch (sliced)")) << text;
  EXPECT_TRUE(Contains(text, "workers=w-0,w-1")) << text;
  EXPECT_TRUE(Contains(text, "total_shards=4")) << text;
  EXPECT_EQ(CountOf(text, "range: shards=["), 2u) << text;
  EXPECT_TRUE(Contains(text, "range: shards=[0,2)")) << text;
  EXPECT_TRUE(Contains(text, "range: shards=[2,4)")) << text;

  // Per-measure merge exactness + store residency + cache decision.
  EXPECT_TRUE(Contains(text, "merge=bit-exact")) << text;
  EXPECT_TRUE(Contains(text, "tier=")) << text;
  EXPECT_TRUE(Contains(text, "cache: miss (will compute and admit)")) << text;

  // Actuals: both ranges carry the worker that ran them and the measured
  // dispatch seconds from the coord.dispatch trace spans.
  EXPECT_EQ(CountOf(text, "| actual: worker=w-"), 2u) << text;
  EXPECT_EQ(CountOf(text, "seconds="), 2u) << text;
  EXPECT_TRUE(plan->AllDivergences().empty()) << plan->AllDivergences().front();

  // The repeat is answered by the result cache: predicted and confirmed,
  // with zero extraction phases anywhere in the tree.
  Result<InspectionPlan> repeat =
      coord_world.session.ExplainAnalyze(PearsonRequest(4));
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  const std::string repeat_text = repeat->ToText();
  EXPECT_TRUE(Contains(repeat_text, "cache: hit (memory)")) << repeat_text;
  EXPECT_TRUE(Contains(repeat_text, "unit_extraction_s=0.000000"))
      << repeat_text;
  EXPECT_TRUE(repeat->AllDivergences().empty())
      << repeat->AllDivergences().front();

  w0.Shutdown();
  w1.Shutdown();
  coordinator.Shutdown();
}

// ---------------------------------------------------------------------------
// The plan is the admission that runs: across session states, the verdict
// the admission node renders is what Submit() does next.
// ---------------------------------------------------------------------------

// Park every pool thread until `release` flips, so submitted jobs stay
// queued: they hold their quota slot and their dedup registration.
std::vector<std::future<void>> BlockPool(ThreadPool* pool, size_t n,
                                         std::atomic<bool>* release) {
  std::vector<std::future<void>> blockers;
  for (size_t i = 0; i < n; ++i) {
    blockers.push_back(pool->Submit([release] {
      while (!release->load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }));
  }
  return blockers;
}

// What a Submit() did, in the admission node's words.
std::string SubmitOutcome(const JobHandle& job, const SchedulerStats& before,
                          const SchedulerStats& after) {
  if (job.Done()) {
    const Result<ResultTable>& result = job.Wait();
    if (!result.ok()) return "reject (" + result.status().message() + ")";
    return job.Stats().result_cache_hits == 1 ? "admit (result-cache hit)"
                                              : "done without the cache";
  }
  if (after.dedup_followers == before.dedup_followers + 1) {
    return "admit (dedup waiter)";
  }
  if (after.snapshot.active_jobs == before.snapshot.active_jobs + 1) {
    return "admit (leader)";
  }
  return "unclassified";
}

TEST(ExplainAdmissionTest, RenderedVerdictIsWhatSubmitDoes) {
  for (int row = 0; row < 16; ++row) {
    const bool warm_cache = (row & 1) != 0;
    const bool slot_taken = (row & 2) != 0;
    const bool deadline_expired = (row & 4) != 0;
    const bool leader_in_flight = (row & 8) != 0;
    SCOPED_TRACE("warm_cache=" + std::to_string(warm_cache) +
                 " slot_taken=" + std::to_string(slot_taken) +
                 " deadline_expired=" + std::to_string(deadline_expired) +
                 " leader_in_flight=" + std::to_string(leader_in_flight));

    // One concurrent-job slot; a free slot next to an in-flight leader
    // needs a second one.
    SessionConfig config{.num_threads = 2};
    config.max_concurrent_jobs = leader_in_flight && !slot_taken ? 2 : 1;
    World world(std::move(config));
    std::atomic<bool> release{false};
    std::vector<std::future<void>> blockers =
        BlockPool(world.session.thread_pool(), 2, &release);

    const InspectRequest base = PearsonRequest(2);
    std::vector<JobHandle> queued;
    if (leader_in_flight) {
      queued.push_back(world.session.Submit(base));  // identical leader
    } else if (slot_taken) {
      InspectRequest other = base;
      other.options->shuffle_seed += 1;  // a distinct job holds the slot
      queued.push_back(world.session.Submit(other));
    }
    for (const JobHandle& job : queued) ASSERT_FALSE(job.Done());
    if (warm_cache) {
      const Result<CatalogDataset> dataset =
          world.session.catalog().GetDataset("ab");
      ASSERT_TRUE(dataset.ok());
      const std::optional<uint64_t> fingerprint = InspectRequestFingerprint(
          base, world.session.catalog(), *base.options);
      ASSERT_TRUE(fingerprint.has_value());
      world.session.scheduler().result_cache().Insert(
          *fingerprint, world.session.catalog_version(),
          dataset->fingerprint, ResultTable());
    }

    InspectRequest request = base;
    if (deadline_expired) {
      request.options->deadline =
          std::chrono::steady_clock::now() - std::chrono::seconds(1);
    }
    // The rule, in its order: deadline, result cache, dedup, quota.
    const std::string expected =
        deadline_expired
            ? "reject (job deadline expired before admission)"
        : warm_cache       ? "admit (result-cache hit)"
        : leader_in_flight ? "admit (dedup waiter)"
        : slot_taken
            ? "reject (concurrent-job quota exhausted: 1 active, quota 1)"
            : "admit (leader)";

    Result<InspectionPlan> plan = world.session.Explain(request);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const PlanNode* admission = plan->root.Child("admission");
    ASSERT_NE(admission, nullptr);
    ASSERT_FALSE(admission->fields.empty());
    const std::string predicted = admission->fields[0].second;
    EXPECT_EQ(predicted, expected) << plan->ToText();

    const SchedulerStats before = world.session.scheduler().stats();
    JobHandle job = world.session.Submit(request);
    const SchedulerStats after = world.session.scheduler().stats();
    EXPECT_EQ(SubmitOutcome(job, before, after), predicted) << plan->ToText();

    release.store(true, std::memory_order_release);
    for (std::future<void>& blocker : blockers) blocker.get();
    job.Wait();
    for (const JobHandle& q : queued) ASSERT_TRUE(q.Wait().ok());
  }
}

// ---------------------------------------------------------------------------
// The error path: requests that do not compile.
// ---------------------------------------------------------------------------

TEST(ExplainErrorTest, UncompilableRequestFailsLikeInspectAndMovesNothing) {
  World world;
  InspectRequest unknown_model = PearsonRequest(2);
  unknown_model.models[0].name = "ghost";
  InspectRequest unknown_filter = PearsonRequest(2);
  unknown_filter.hypothesis_filter = {"no_such_hypothesis"};
  Counter* submitted =
      MetricsRegistry::Global().GetCounter("deepbase_jobs_submitted_total");
  Counter* errors = MetricsRegistry::Global().GetCounter(
      "deepbase_jobs_total{status=\"error\"}");

  for (const InspectRequest& request : {unknown_model, unknown_filter}) {
    SCOPED_TRACE(request.models[0].name);
    const SchedulerStats before = world.session.scheduler().stats();
    const uint64_t submitted_before = submitted->Value();
    const uint64_t errors_before = errors->Value();

    Result<InspectionPlan> plan = world.session.Explain(request);
    ASSERT_FALSE(plan.ok());
    const SchedulerStats after = world.session.scheduler().stats();
#define DEEPBASE_EXPECT_UNCHANGED(type, name) \
  EXPECT_EQ(after.name, before.name) << #name;
    DEEPBASE_SCHEDULER_STATS_COUNTER_FIELDS(DEEPBASE_EXPECT_UNCHANGED)
#undef DEEPBASE_EXPECT_UNCHANGED
    EXPECT_EQ(after.snapshot.active_jobs, before.snapshot.active_jobs);
    EXPECT_EQ(after.snapshot.inflight_jobs, before.snapshot.inflight_jobs);
    EXPECT_EQ(after.snapshot.queued_bytes, before.snapshot.queued_bytes);
    EXPECT_EQ(submitted->Value(), submitted_before);
    EXPECT_EQ(errors->Value(), errors_before);
    EXPECT_TRUE(world.session.Jobs().empty());

    // Inspect fails with the same status and counts it once as an error.
    Result<ResultTable> run = world.session.Inspect(request);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(plan.status().code(), run.status().code());
    EXPECT_EQ(plan.status().message(), run.status().message());
    EXPECT_EQ(plan.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(submitted->Value(), submitted_before + 1);
    EXPECT_EQ(errors->Value(), errors_before + 1);
  }
  EXPECT_EQ(world.extractor.blocks_extracted(), 0u);
}

// ---------------------------------------------------------------------------
// Textual front-ends: SqlSession EXPLAIN [ANALYZE] INSPECT + statusz.
// ---------------------------------------------------------------------------

TEST(ExplainFrontendTest, SqlSessionRendersPlanRows) {
  World world;
  SqlSession sql(&world.session);

  Result<DbTable> plan = sql.Execute(
      "EXPLAIN INSPECT units OF planted AND keywords USING pearson OVER ab");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->num_cols(), 1u);
  ASSERT_GT(plan->num_rows(), 0u);
  EXPECT_TRUE(Contains(plan->At(0, "plan")->str, "inspect:"));
  // Pure dry run through SQL too: nothing extracted.
  EXPECT_EQ(world.extractor.blocks_extracted(), 0u);

  Result<DbTable> analyzed = sql.Execute(
      "EXPLAIN ANALYZE INSPECT units OF planted AND keywords "
      "USING pearson OVER ab");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::string joined;
  for (size_t r = 0; r < analyzed->num_rows(); ++r) {
    joined += analyzed->At(r, "plan")->str + "\n";
  }
  EXPECT_TRUE(Contains(joined, "| actual:")) << joined;
  EXPECT_GT(world.extractor.blocks_extracted(), 0u);

  // EXPLAIN ANALYZE is INSPECT-only; the relational lane rejects it.
  EXPECT_FALSE(sql.Execute("EXPLAIN ANALYZE SELECT 1").ok());
}

TEST(ExplainFrontendTest, StatuszRendersLiveStateAndFailpoints) {
  World world(SessionConfig{
      .num_threads = 2,
      .store_dir = FreshStoreDir("explain_statusz_store")});
  ASSERT_TRUE(world.session.Inspect(PearsonRequest(2)).ok());

  std::string text = RenderStatusz(&world.session, /*json=*/false);
  EXPECT_TRUE(Contains(text, "statusz")) << text;
  EXPECT_TRUE(Contains(text, "jobs:")) << text;
  EXPECT_TRUE(Contains(text, "scheduler: jobs_scheduled=1")) << text;
  EXPECT_TRUE(Contains(text, "result-cache:")) << text;
  EXPECT_TRUE(Contains(text, "store: memory_bytes=")) << text;
  EXPECT_TRUE(Contains(text, "cluster: active=no")) << text;
  EXPECT_TRUE(Contains(text, "failpoints: none")) << text;

  failpoint::Arm("explain.test.site", failpoint::Action{});
  text = RenderStatusz(&world.session, /*json=*/false);
  failpoint::DisarmAll();
  EXPECT_TRUE(Contains(text, "failpoints: explain.test.site")) << text;

  const std::string json = RenderStatusz(&world.session, /*json=*/true);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{') << json;
  EXPECT_TRUE(Contains(json, "\"scheduler\"")) << json;
  EXPECT_TRUE(Contains(json, "\"store\"")) << json;
}

}  // namespace
}  // namespace deepbase
