// Tests for the multi-query scheduler: shared-scan job batching (N
// concurrent jobs over one (model, dataset) → exactly one extraction
// pass, scores bit-identical to isolated runs), the session result cache
// (hit/miss/invalidation on catalog version bumps, LRU-over-bytes
// eviction), per-job cancellation detaching from a fused group without
// disturbing the scan, the SharedScan block cache itself, and the
// hypothesis-behavior store tier (reuse across jobs and restarts, keyed
// by dataset, with exact per-job row counters).

#include "service/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "core/behavior_store.h"
#include "measures/scores.h"
#include "util/rng.h"

namespace deepbase {
namespace {

// Deterministic planted model (unit 0 tracks 'a') that counts its
// ExtractBlock calls — the "extraction passes" counter the scheduler is
// supposed to minimize. An optional per-block delay widens the window in
// which jobs overlap, so fused groups behave the same on fast machines
// as on the 1-core CI.
class CountingExtractor : public Extractor {
 public:
  explicit CountingExtractor(size_t units = 4, int delay_us = 0)
      : Extractor("planted"), units_(units), delay_us_(delay_us) {}
  size_t num_units() const override { return units_; }

  size_t block_calls() const {
    return block_calls_.load(std::memory_order_relaxed);
  }

  Matrix ExtractBlock(const Dataset& dataset,
                      const std::vector<size_t>& record_idx,
                      const std::vector<int>& unit_ids) const override {
    block_calls_.fetch_add(1, std::memory_order_relaxed);
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
  mutable std::atomic<size_t> block_calls_{0};
};

HypothesisPtr IsAHypothesis() {
  return std::make_shared<FunctionHypothesis>(
      "is_a", [](const Record& rec) {
        std::vector<float> out(rec.size(), 0.0f);
        for (size_t i = 0; i < rec.size(); ++i) {
          if (rec.tokens[i] == "a") out[i] = 1.0f;
        }
        return out;
      });
}

Dataset MakeAbDataset(size_t records = 240, size_t ns = 8,
                      uint64_t seed = 3) {
  Dataset dataset(Vocab::FromChars("ab"), ns);
  Rng rng(seed);
  for (size_t i = 0; i < records; ++i) {
    std::string text;
    for (size_t t = 0; t < ns; ++t) text += rng.Bernoulli(0.4) ? 'a' : 'b';
    dataset.AddText(text);
  }
  return dataset;
}

std::map<int, float> ScoresOf(const ResultTable& results) {
  std::map<int, float> scores;
  for (const ResultRow& row : results.rows()) {
    if (row.unit >= 0) scores[row.unit] = row.unit_score;
  }
  return scores;
}

// Park `n` no-op tasks on the session pool so queued Submit() jobs only
// start once `release` flips — every job attaches to the fused group
// before any of them runs, making extraction counts deterministic.
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

InspectRequest PlantedRequest() {
  InspectRequest request;
  request.models.push_back({.name = "planted"});
  request.hypothesis_sets = {"keywords"};
  request.dataset_name = "ab";
  request.measure_names = {"pearson"};
  return request;
}

// ---------------------------------------------------------------------------
// The acceptance scenario: 8 concurrent jobs over one (model, dataset) →
// exactly one block-extraction pass, scores bit-identical to an isolated
// run, and an identical re-submission served from the result cache
// without invoking the engine.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, EightFusedJobsOneExtractionPassAndCachedResubmit) {
  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(240, 8);
  const size_t kBlocks = 240 / 16;

  SessionConfig config;
  config.options.block_size = 16;
  config.options.early_stopping = false;  // fixed: one full pass
  config.options.num_shards = 1;          // bit-reproducible lane
  config.num_threads = 4;
  // Identical concurrent requests normally dedup to one execution (see
  // SchedulerDedupTest); force them through the shared-scan path here to
  // keep the fused-group machinery covered.
  config.enable_inflight_dedup = false;
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterDataset("ab", &dataset);
  const uint64_t version = session.catalog_version();
  EXPECT_EQ(version, 3u);

  // Isolated reference (separate extractor instance, raw engine).
  CountingExtractor reference_extractor(4);
  InspectOptions plain;
  plain.block_size = 16;
  plain.early_stopping = false;
  plain.num_shards = 1;
  ResultTable reference =
      Inspect({AllUnitsGroup(&reference_extractor)}, dataset,
              {std::make_shared<CorrelationScore>("pearson")},
              {IsAHypothesis()}, plain);
  const std::map<int, float> expected = ScoresOf(reference);
  ASSERT_EQ(expected.size(), extractor.num_units());

  std::atomic<bool> release{false};
  auto blockers = BlockPool(session.thread_pool(), 4, &release);

  const size_t kJobs = 8;
  std::vector<JobHandle> jobs;
  for (size_t j = 0; j < kJobs; ++j) {
    jobs.push_back(session.Submit(PlantedRequest()));
  }
  release.store(true, std::memory_order_release);

  for (JobHandle& job : jobs) {
    const Result<ResultTable>& result = job.Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Bit-identical to the isolated run, not merely close.
    EXPECT_EQ(ScoresOf(*result), expected);
  }

  // Exactly one extraction pass across all 8 jobs.
  EXPECT_EQ(extractor.block_calls(), kBlocks);
  size_t scan_extractions = 0, scan_hits = 0;
  for (JobHandle& job : jobs) {
    scan_extractions += job.Stats().scan_extractions;
    scan_hits += job.Stats().scan_shared_hits;
  }
  EXPECT_EQ(scan_extractions, kBlocks);
  EXPECT_EQ(scan_hits, (kJobs - 1) * kBlocks);

  const SchedulerStats sched = session.scheduler().stats();
  EXPECT_EQ(sched.groups_formed, 1u);
  EXPECT_EQ(sched.jobs_coscheduled, kJobs - 1);
  EXPECT_EQ(session.scheduler().active_groups(), 0u);  // group retired

  // Identical re-submission: served from the result cache — the engine
  // (and the extractor) are never invoked.
  JobHandle cached = session.Submit(PlantedRequest());
  const Result<ResultTable>& cached_result = cached.Wait();
  ASSERT_TRUE(cached_result.ok());
  EXPECT_EQ(ScoresOf(*cached_result), expected);
  EXPECT_EQ(cached.Stats().result_cache_hits, 1u);
  EXPECT_EQ(cached.Stats().blocks_processed, 0u);
  EXPECT_EQ(extractor.block_calls(), kBlocks);
  EXPECT_EQ(session.catalog_version(), version);
}

TEST(SchedulerTest, ResultCacheInvalidatesOnCatalogBump) {
  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(120, 8);

  SessionConfig config;
  config.options.block_size = 32;
  config.options.num_shards = 1;
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterDataset("ab", &dataset);

  RuntimeStats first;
  ASSERT_TRUE(session.Inspect(PlantedRequest(), &first).ok());
  EXPECT_EQ(first.result_cache_misses, 1u);
  EXPECT_GT(first.blocks_processed, 0u);
  const size_t calls_after_first = extractor.block_calls();

  RuntimeStats second;
  ASSERT_TRUE(session.Inspect(PlantedRequest(), &second).ok());
  EXPECT_EQ(second.result_cache_hits, 1u);
  EXPECT_EQ(second.blocks_processed, 0u);
  EXPECT_EQ(extractor.block_calls(), calls_after_first);

  // Any catalog mutation bumps the version and invalidates the entry.
  const uint64_t before = session.catalog_version();
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  EXPECT_EQ(session.catalog_version(), before + 1);

  RuntimeStats third;
  ASSERT_TRUE(session.Inspect(PlantedRequest(), &third).ok());
  EXPECT_EQ(third.result_cache_hits, 0u);
  EXPECT_EQ(third.result_cache_misses, 1u);
  EXPECT_GT(extractor.block_calls(), calls_after_first);
  EXPECT_GE(session.scheduler().stats().result_cache_invalidations, 1u);
}

TEST(SchedulerTest, CancellingOneFusedJobLeavesTheOthersIntact) {
  CountingExtractor extractor(4, /*delay_us=*/200);
  Dataset dataset = MakeAbDataset(240, 8);

  SessionConfig config;
  config.options.block_size = 16;
  config.options.early_stopping = false;
  config.options.num_shards = 1;
  config.num_threads = 2;
  config.enable_inflight_dedup = false;  // exercise the fused-scan cancel
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterDataset("ab", &dataset);

  CountingExtractor reference_extractor(4);
  InspectOptions plain;
  plain.block_size = 16;
  plain.early_stopping = false;
  plain.num_shards = 1;
  ResultTable reference =
      Inspect({AllUnitsGroup(&reference_extractor)}, dataset,
              {std::make_shared<CorrelationScore>("pearson")},
              {IsAHypothesis()}, plain);

  std::atomic<bool> release{false};
  auto blockers = BlockPool(session.thread_pool(), 2, &release);
  JobHandle keeper = session.Submit(PlantedRequest());
  JobHandle doomed = session.Submit(PlantedRequest());
  doomed.Cancel();  // detaches from the fused group before/while running
  release.store(true, std::memory_order_release);

  const Result<ResultTable>& kept = keeper.Wait();
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(ScoresOf(*kept), ScoresOf(reference));

  doomed.Wait();
  EXPECT_EQ(doomed.Poll(), JobStatus::kCancelled);
  EXPECT_EQ(session.scheduler().active_groups(), 0u);
}

// Requests that partition a model's units differently (all units as one
// group vs group_by_layer) read the same unit union, and SharedScan keys
// blocks by that union: they form one group and extract every block once.
TEST(SchedulerTest, SharedScanGroupsByTheResolvedUnitUnion) {
  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(240, 8);
  const size_t kBlocks = 240 / 16;

  SessionConfig config;
  config.options.block_size = 16;
  config.options.early_stopping = false;  // every job reads every block
  config.options.num_shards = 1;
  config.num_threads = 2;
  InspectionSession session(config);
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterDataset("ab", &dataset);

  InspectRequest all_units = PlantedRequest();
  InspectRequest layers = PlantedRequest();
  layers.models[0].group_by_layer = 2;

  // Isolated references: a separate session and extractor per request.
  auto isolated = [&](const InspectRequest& request) {
    CountingExtractor reference_extractor(4);
    SessionConfig solo = config;
    solo.enable_result_cache = false;
    InspectionSession reference(solo);
    reference.catalog().RegisterModel("planted", &reference_extractor);
    reference.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
    reference.catalog().RegisterDataset("ab", &dataset);
    Result<ResultTable> table = reference.Inspect(request);
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    return table.ok() ? table->SerializeToString() : std::string();
  };
  const std::string expected_all = isolated(all_units);
  const std::string expected_layers = isolated(layers);
  ASSERT_NE(expected_all, expected_layers);

  std::atomic<bool> release{false};
  auto blockers = BlockPool(session.thread_pool(), 2, &release);
  JobHandle a = session.Submit(all_units);
  JobHandle b = session.Submit(layers);
  release.store(true, std::memory_order_release);

  const Result<ResultTable>& ra = a.Wait();
  const Result<ResultTable>& rb = b.Wait();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(ra->SerializeToString(), expected_all);
  EXPECT_EQ(rb->SerializeToString(), expected_layers);
  EXPECT_EQ(session.scheduler().stats().groups_formed, 1u);
  EXPECT_EQ(extractor.block_calls(), kBlocks);
}

// ---------------------------------------------------------------------------
// The job's plan pins the catalog version it was admitted under.
// ---------------------------------------------------------------------------

HypothesisPtr IsBHypothesis() {
  return std::make_shared<FunctionHypothesis>(
      "is_b", [](const Record& rec) {
        std::vector<float> out(rec.size(), 0.0f);
        for (size_t i = 0; i < rec.size(); ++i) {
          if (rec.tokens[i] == "b") out[i] = 1.0f;
        }
        return out;
      });
}

std::set<std::string> HypothesesOf(const ResultTable& table) {
  std::set<std::string> names;
  for (const ResultRow& row : table.rows()) names.insert(row.hypothesis);
  return names;
}

// A job queued behind a busy pool runs the hypothesis set it was admitted
// with, not whatever the set names when a worker picks it up.
TEST(SchedulerSnapshotTest, QueuedJobRunsTheDefinitionsItWasAdmittedUnder) {
  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(120, 8);

  SessionConfig config;
  config.options.block_size = 32;
  config.options.num_shards = 1;
  config.num_threads = 2;
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterDataset("ab", &dataset);

  std::atomic<bool> release{false};
  auto blockers = BlockPool(session.thread_pool(), 2, &release);
  JobHandle job = session.Submit(PlantedRequest());
  session.catalog().RegisterHypotheses("keywords", {IsBHypothesis()});
  release.store(true, std::memory_order_release);

  const Result<ResultTable>& result = job.Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(HypothesesOf(*result), std::set<std::string>{"is_a"});

  // A request admitted after the registration runs the new definition.
  Result<ResultTable> after = session.Inspect(PlantedRequest());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(HypothesesOf(*after), std::set<std::string>{"is_b"});
}

// A dedup waiter promoted after its leader is cancelled re-runs the
// leader's plan: the definitions of the version both were keyed under.
TEST(SchedulerSnapshotTest, PromotedWaiterRunsTheLeadersPlan) {
  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(120, 8);

  SessionConfig config;
  config.options.block_size = 32;
  config.options.num_shards = 1;
  config.num_threads = 2;
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterDataset("ab", &dataset);

  std::atomic<bool> release{false};
  auto blockers = BlockPool(session.thread_pool(), 2, &release);
  JobHandle leader = session.Submit(PlantedRequest());
  JobHandle waiter = session.Submit(PlantedRequest());
  ASSERT_EQ(session.scheduler().stats().dedup_followers, 1u);
  leader.Cancel();  // before it runs: the waiter is promoted
  session.catalog().RegisterHypotheses("keywords", {IsBHypothesis()});
  release.store(true, std::memory_order_release);

  leader.Wait();
  EXPECT_EQ(leader.Poll(), JobStatus::kCancelled);
  const Result<ResultTable>& promoted = waiter.Wait();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(HypothesesOf(*promoted), std::set<std::string>{"is_a"});
  EXPECT_GT(waiter.Stats().blocks_processed, 0u);
  EXPECT_EQ(session.scheduler().stats().dedup_promotions, 1u);
  EXPECT_EQ(session.scheduler().inflight_jobs(), 0u);
}

// Update safety: one thread re-registers "keywords" back and forth while
// submitters race it. Each submission brackets the catalog version around
// Submit(); its table — engine run, cache hit or dedup serve alike — must
// be byte-identical to the reference table of a definition that was
// current at some version inside that bracket.
TEST(SchedulerSnapshotTest, EveryTableMatchesADefinitionOfItsVersionBracket) {
  // A per-block delay keeps jobs queued while the catalog moves.
  CountingExtractor extractor(4, /*delay_us=*/100);
  Dataset dataset = MakeAbDataset(64, 8);
  const std::vector<HypothesisPtr> definitions[2] = {{IsAHypothesis()},
                                                     {IsBHypothesis()}};

  SessionConfig config;
  config.options.block_size = 16;
  config.options.early_stopping = false;
  config.options.num_shards = 1;
  config.num_threads = 2;

  std::string reference[2];
  for (int d = 0; d < 2; ++d) {
    CountingExtractor reference_extractor(4);
    InspectionSession solo(config);
    solo.catalog().RegisterModel("planted", &reference_extractor);
    solo.catalog().RegisterHypotheses("keywords", definitions[d]);
    solo.catalog().RegisterDataset("ab", &dataset);
    Result<ResultTable> table = solo.Inspect(PlantedRequest());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    reference[d] = table->SerializeToString();
  }
  ASSERT_NE(reference[0], reference[1]);

  InspectionSession session(config);
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterDataset("ab", &dataset);
  session.catalog().RegisterHypotheses("keywords", definitions[0]);

  // Registration version → definition index. The toggler is the only
  // writer once the submitters start, so the version it reads back right
  // after a registration is the one that registration produced.
  std::mutex history_mu;
  std::map<uint64_t, int> history = {{session.catalog_version(), 0}};
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    for (int k = 1; !stop.load(std::memory_order_acquire); ++k) {
      session.catalog().RegisterHypotheses("keywords", definitions[k % 2]);
      {
        std::lock_guard<std::mutex> lock(history_mu);
        history[session.catalog_version()] = k % 2;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  struct Submission {
    uint64_t before = 0;
    uint64_t after = 0;
    JobHandle job;
  };
  const int kThreads = 3, kPerThread = 16;
  std::vector<std::vector<Submission>> submitted(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Submission s;
        s.before = session.catalog_version();
        s.job = session.Submit(PlantedRequest());
        s.after = session.catalog_version();
        submitted[t].push_back(s);
        if (i % 3 == 0) s.job.Wait();  // mix queued and idle admissions
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  for (const auto& list : submitted) {
    for (const Submission& s : list) s.job.Wait();
  }
  stop.store(true, std::memory_order_release);
  toggler.join();

  auto definition_at = [&history](uint64_t version) {
    auto it = history.upper_bound(version);
    return it == history.begin() ? -1 : std::prev(it)->second;
  };
  size_t checked = 0;
  for (const auto& list : submitted) {
    for (const Submission& s : list) {
      const Result<ResultTable>& result = s.job.Wait();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      std::set<int> allowed;
      for (uint64_t v = s.before; v <= s.after; ++v) {
        allowed.insert(definition_at(v));
      }
      const std::string bytes = result->SerializeToString();
      bool matched = false;
      for (int d : allowed) matched = matched || bytes == reference[d];
      EXPECT_TRUE(matched) << "versions [" << s.before << "," << s.after
                           << "] served hypotheses "
                           << *HypothesesOf(*result).begin();
      ++checked;
    }
  }
  EXPECT_EQ(checked, size_t{kThreads * kPerThread});
}

// ---------------------------------------------------------------------------
// SharedScan unit behavior.
// ---------------------------------------------------------------------------

Matrix SmallMatrix(float fill) { return Matrix(4, 4, fill); }

TEST(SharedScanTest, SecondClientIsServedFromTheScan) {
  auto scan = std::make_shared<SharedScan>(1ull << 20);
  SharedScanClient a(scan), b(scan);
  const std::vector<int> units = {0, 1};
  const std::vector<size_t> block = {0, 1, 2};

  size_t extract_calls = 0;
  auto extract = [&] {
    ++extract_calls;
    return SmallMatrix(1.0f);
  };
  auto ma = a.GetOrExtract("m", units, block, extract);
  EXPECT_EQ(extract_calls, 1u);
  EXPECT_GT(scan->stats().bytes, 0u);  // cached for b
  auto mb = b.GetOrExtract("m", units, block, extract);
  EXPECT_EQ(extract_calls, 1u);
  EXPECT_EQ(ma.get(), mb.get());  // literally the same matrix
  EXPECT_EQ(scan->stats().shared_hits, 1u);
  EXPECT_EQ(scan->stats().extractions, 1u);
  EXPECT_EQ(scan->stats().bytes, 0u);  // last reader freed it
}

TEST(SharedScanTest, DetachReleasesPendingBlocks) {
  auto scan = std::make_shared<SharedScan>(1ull << 20);
  auto a = std::make_unique<SharedScanClient>(scan);
  auto b = std::make_unique<SharedScanClient>(scan);
  a->GetOrExtract("m", {0}, {0, 1}, [] { return SmallMatrix(2.0f); });
  EXPECT_GT(scan->stats().bytes, 0u);  // held for b
  b.reset();                           // b leaves without reading
  EXPECT_EQ(scan->stats().bytes, 0u);
  EXPECT_EQ(scan->attached(), 1u);
}

TEST(SharedScanTest, BudgetOverflowFallsBackToPerJobExtraction) {
  auto scan = std::make_shared<SharedScan>(/*memory_budget_bytes=*/1);
  SharedScanClient a(scan), b(scan);
  size_t extract_calls = 0;
  auto extract = [&] {
    ++extract_calls;
    return SmallMatrix(3.0f);
  };
  a.GetOrExtract("m", {0}, {0}, extract);
  b.GetOrExtract("m", {0}, {0}, extract);
  EXPECT_EQ(extract_calls, 2u);  // nothing fit in the budget
  EXPECT_GE(scan->stats().overflow, 1u);
  EXPECT_EQ(scan->stats().bytes, 0u);
}

// ---------------------------------------------------------------------------
// ResultCache unit behavior.
// ---------------------------------------------------------------------------

ResultTable TableOfRows(size_t n, const std::string& tag) {
  ResultTable table;
  for (size_t i = 0; i < n; ++i) {
    ResultRow row;
    row.model_id = tag;
    row.unit = static_cast<int>(i);
    row.unit_score = static_cast<float>(i);
    table.Add(row);
  }
  return table;
}

TEST(ResultCacheTest, HitMissAndInvalidation) {
  ResultCache cache(1ull << 20, /*store=*/nullptr, /*persist=*/false);
  cache.Insert(7, 1, 0, TableOfRows(3, "a"));
  EXPECT_FALSE(cache.Lookup(7, 2, 0).has_value());  // version mismatch
  EXPECT_FALSE(cache.Lookup(8, 1, 0).has_value());  // unknown fingerprint
  std::optional<ResultTable> hit = cache.Lookup(7, 1, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size(), 3u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);

  cache.InvalidateBelow(2);
  EXPECT_FALSE(cache.Lookup(7, 1, 0).has_value());
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ResultCacheTest, LruEvictionKeepsBytesUnderBudget) {
  ResultCache cache(/*budget_bytes=*/4096, nullptr, false);
  for (uint64_t fp = 0; fp < 32; ++fp) {
    cache.Insert(fp, 1, 0, TableOfRows(8, "model"));
    EXPECT_LE(cache.bytes(), 4096u);
  }
  EXPECT_GE(cache.evictions(), 1u);
  EXPECT_LT(cache.entries(), 32u);
  // Most-recent entry survives, the oldest was evicted.
  EXPECT_TRUE(cache.Lookup(31, 1, 0).has_value());
  EXPECT_FALSE(cache.Lookup(0, 1, 0).has_value());
}

// The stale-admission regression, unit form: a result computed under a
// catalog version the cache has already invalidated must be rejected at
// admission (pre-fix it was admitted, survived every later sweep — the
// sweep for its version had already run — and a restarted session whose
// version counter re-reached it could be served the stale table).
TEST(ResultCacheTest, InsertBelowAdmissionFloorIsRejected) {
  ResultCache cache(1ull << 20, nullptr, false);
  cache.InvalidateBelow(2);
  cache.Insert(7, 1, 0, TableOfRows(3, "stale"));  // computed under v1
  EXPECT_FALSE(cache.Lookup(7, 1, 0).has_value());
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stale_rejections(), 1u);
  // Admission at (or above) the floor still works.
  cache.Insert(7, 2, 0, TableOfRows(3, "fresh"));
  EXPECT_TRUE(cache.Lookup(7, 2, 0).has_value());
  EXPECT_EQ(cache.stale_rejections(), 1u);
}

// ---------------------------------------------------------------------------
// In-flight dedup: identical concurrent submissions run the engine once.
// ---------------------------------------------------------------------------

TEST(SchedulerDedupTest, ConcurrentIdenticalSubmitsRunTheEngineOnce) {
  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(240, 8);
  const size_t kBlocks = 240 / 16;

  SessionConfig config;
  config.options.block_size = 16;
  config.options.early_stopping = false;
  config.options.num_shards = 1;
  config.num_threads = 2;
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterDataset("ab", &dataset);

  std::atomic<bool> release{false};
  auto blockers = BlockPool(session.thread_pool(), 2, &release);

  const size_t kJobs = 4;
  std::vector<JobHandle> jobs;
  for (size_t j = 0; j < kJobs; ++j) {
    jobs.push_back(session.Submit(PlantedRequest()));
  }
  release.store(true, std::memory_order_release);

  std::vector<std::string> tables;
  size_t dedup_served = 0, engine_runs = 0;
  for (JobHandle& job : jobs) {
    const Result<ResultTable>& result = job.Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    tables.push_back(result->ToCsv());
    const RuntimeStats stats = job.Stats();
    if (stats.dedup_hits > 0) {
      ++dedup_served;
      EXPECT_EQ(stats.blocks_processed, 0u);  // waiters never ran the engine
    } else if (stats.blocks_processed > 0) {
      ++engine_runs;
    }
  }
  // Bit-identical tables — the waiters hold the leader's result.
  for (size_t j = 1; j < tables.size(); ++j) EXPECT_EQ(tables[j], tables[0]);
  // Exactly one engine execution and exactly one extraction pass.
  EXPECT_EQ(engine_runs, 1u);
  EXPECT_EQ(dedup_served, kJobs - 1);
  EXPECT_EQ(extractor.block_calls(), kBlocks);
  const SchedulerStats sched = session.scheduler().stats();
  EXPECT_EQ(sched.dedup_followers, kJobs - 1);
  EXPECT_EQ(sched.dedup_promotions, 0u);
  EXPECT_EQ(session.scheduler().inflight_jobs(), 0u);  // registry retired
}

TEST(SchedulerDedupTest, DedupWorksWithResultCacheDisabled) {
  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(240, 8);
  const size_t kBlocks = 240 / 16;

  SessionConfig config;
  config.options.block_size = 16;
  config.options.early_stopping = false;
  config.options.num_shards = 1;
  config.num_threads = 2;
  config.enable_result_cache = false;  // dedup must not depend on it
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterDataset("ab", &dataset);

  std::atomic<bool> release{false};
  auto blockers = BlockPool(session.thread_pool(), 2, &release);
  JobHandle leader = session.Submit(PlantedRequest());
  JobHandle waiter = session.Submit(PlantedRequest());
  EXPECT_EQ(session.scheduler().stats().dedup_followers, 1u);
  release.store(true, std::memory_order_release);

  const Result<ResultTable>& a = leader.Wait();
  const Result<ResultTable>& b = waiter.Wait();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ToCsv(), b->ToCsv());
  EXPECT_EQ(extractor.block_calls(), kBlocks);  // one extraction pass
  // Nothing was admitted to the (disabled) result cache.
  EXPECT_EQ(session.scheduler().result_cache().entries(), 0u);
  EXPECT_EQ(session.scheduler().stats().result_cache_misses, 0u);
}

TEST(SchedulerDedupTest, CancellingAWaiterNeverKillsTheLeader) {
  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(240, 8);

  SessionConfig config;
  config.options.block_size = 16;
  config.options.early_stopping = false;
  config.options.num_shards = 1;
  config.num_threads = 2;
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterDataset("ab", &dataset);

  CountingExtractor reference_extractor(4);
  InspectOptions plain;
  plain.block_size = 16;
  plain.early_stopping = false;
  plain.num_shards = 1;
  ResultTable reference =
      Inspect({AllUnitsGroup(&reference_extractor)}, dataset,
              {std::make_shared<CorrelationScore>("pearson")},
              {IsAHypothesis()}, plain);

  std::atomic<bool> release{false};
  auto blockers = BlockPool(session.thread_pool(), 2, &release);
  JobHandle leader = session.Submit(PlantedRequest());
  JobHandle waiter = session.Submit(PlantedRequest());
  EXPECT_EQ(session.scheduler().stats().dedup_followers, 1u);

  waiter.Cancel();
  // The waiter resolves immediately — it is not parked until the leader
  // finishes, and the leader is untouched.
  EXPECT_TRUE(waiter.Done());
  EXPECT_EQ(waiter.Poll(), JobStatus::kCancelled);
  EXPECT_EQ(waiter.Wait().status().code(), StatusCode::kCancelled);

  release.store(true, std::memory_order_release);
  const Result<ResultTable>& result = leader.Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ScoresOf(*result), ScoresOf(reference));
  EXPECT_EQ(session.scheduler().inflight_jobs(), 0u);
}

TEST(SchedulerDedupTest, CancellingTheLeaderPromotesAWaiter) {
  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(240, 8);

  SessionConfig config;
  config.options.block_size = 16;
  config.options.early_stopping = false;
  config.options.num_shards = 1;
  config.num_threads = 2;
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterDataset("ab", &dataset);

  CountingExtractor reference_extractor(4);
  InspectOptions plain;
  plain.block_size = 16;
  plain.early_stopping = false;
  plain.num_shards = 1;
  ResultTable reference =
      Inspect({AllUnitsGroup(&reference_extractor)}, dataset,
              {std::make_shared<CorrelationScore>("pearson")},
              {IsAHypothesis()}, plain);

  std::atomic<bool> release{false};
  auto blockers = BlockPool(session.thread_pool(), 2, &release);
  JobHandle leader = session.Submit(PlantedRequest());
  JobHandle waiter = session.Submit(PlantedRequest());
  leader.Cancel();  // before it ever runs: the waiter must take over
  release.store(true, std::memory_order_release);

  leader.Wait();
  EXPECT_EQ(leader.Poll(), JobStatus::kCancelled);
  const Result<ResultTable>& promoted = waiter.Wait();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(ScoresOf(*promoted), ScoresOf(reference));
  // The promoted waiter really ran the engine (it is no dedup hit).
  EXPECT_GT(waiter.Stats().blocks_processed, 0u);
  EXPECT_EQ(waiter.Stats().dedup_hits, 0u);
  const SchedulerStats sched = session.scheduler().stats();
  EXPECT_EQ(sched.dedup_followers, 1u);
  EXPECT_EQ(sched.dedup_promotions, 1u);
  EXPECT_EQ(session.scheduler().inflight_jobs(), 0u);
}

// A sync Inspect() takes the same admission path as Submit(): it parks as
// a dedup waiter on an identical async leader, and when that leader is
// cancelled before it runs, the sync caller is promoted and gets the
// isolated run's table.
TEST(SchedulerDedupTest, SyncWaiterIsPromotedWhenTheAsyncLeaderIsCancelled) {
  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(240, 8);

  SessionConfig config;
  config.options.block_size = 16;
  config.options.early_stopping = false;
  config.options.num_shards = 1;
  config.num_threads = 2;
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterDataset("ab", &dataset);

  CountingExtractor reference_extractor(4);
  InspectOptions plain;
  plain.block_size = 16;
  plain.early_stopping = false;
  plain.num_shards = 1;
  ResultTable reference =
      Inspect({AllUnitsGroup(&reference_extractor)}, dataset,
              {std::make_shared<CorrelationScore>("pearson")},
              {IsAHypothesis()}, plain);

  std::atomic<bool> release{false};
  auto blockers = BlockPool(session.thread_pool(), 2, &release);
  JobHandle leader = session.Submit(PlantedRequest());
  std::optional<Result<ResultTable>> sync_result;
  RuntimeStats sync_stats;
  std::thread caller([&] {
    sync_result = session.Inspect(PlantedRequest(), &sync_stats);
  });
  for (int i = 0; i < 5000 && session.scheduler().stats().dedup_followers == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(session.scheduler().stats().dedup_followers, 1u);
  leader.Cancel();  // before it ever runs: the sync waiter must take over
  release.store(true, std::memory_order_release);
  caller.join();

  leader.Wait();
  EXPECT_EQ(leader.Poll(), JobStatus::kCancelled);
  ASSERT_TRUE(sync_result.has_value());
  ASSERT_TRUE(sync_result->ok()) << sync_result->status().ToString();
  EXPECT_EQ((*sync_result)->SerializeToString(),
            reference.SerializeToString());
  // The promoted caller really ran the engine (it is no dedup hit).
  EXPECT_GT(sync_stats.blocks_processed, 0u);
  EXPECT_EQ(sync_stats.dedup_hits, 0u);
  const SchedulerStats sched = session.scheduler().stats();
  EXPECT_EQ(sched.dedup_promotions, 1u);
  EXPECT_EQ(session.scheduler().inflight_jobs(), 0u);
  // Sync jobs stay out of Jobs(): only the async leader is listed.
  EXPECT_EQ(session.Jobs().size(), 1u);
}

// ---------------------------------------------------------------------------
// Persistent result cache: restarts answer repeat queries with zero
// engine work; catalog / dataset mismatches invalidate.
// ---------------------------------------------------------------------------

TEST(SchedulerPersistenceTest, RestartRoundTripAndInvalidation) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "deepbase_scheduler_persist";
  std::filesystem::remove_all(dir);

  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(120, 8);
  Dataset mutated = MakeAbDataset(121, 8);  // different content fingerprint

  auto make_session = [&](Dataset* ds, bool extra_registration) {
    SessionConfig config;
    config.options.block_size = 32;
    config.options.num_shards = 1;
    config.store_dir = dir.string();
    auto session = std::make_unique<InspectionSession>(std::move(config));
    session->catalog().RegisterModel("planted", &extractor);
    session->catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
    session->catalog().RegisterDataset("ab", ds);
    if (extra_registration) {
      session->catalog().RegisterHypotheses("extra", {IsAHypothesis()});
    }
    return session;
  };

  std::string first_csv;
  {
    auto session = make_session(&dataset, false);
    RuntimeStats stats;
    Result<ResultTable> first = session->Inspect(PlantedRequest(), &stats);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_GT(stats.blocks_processed, 0u);
    first_csv = first->ToCsv();
    EXPECT_GE(session->scheduler().stats().result_cache_persistent_writes,
              1u);
    ASSERT_NE(session->store(), nullptr);
    EXPECT_FALSE(session->store()->BlobKeys().empty());
  }
  {
    // Restart with the identical registration sequence: the repeat query
    // is answered from the persisted entry with zero engine work.
    auto session = make_session(&dataset, false);
    RuntimeStats stats;
    Result<ResultTable> again = session->Inspect(PlantedRequest(), &stats);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(stats.result_cache_hits, 1u);
    EXPECT_EQ(stats.blocks_processed, 0u);
    EXPECT_EQ(again->ToCsv(), first_csv);  // bit-identical across restart
    const SchedulerStats sched = session->scheduler().stats();
    EXPECT_EQ(sched.result_cache_persistent_hits, 1u);
    // The entry was re-admitted to the memory tier on the way through.
    EXPECT_GE(sched.snapshot.result_cache_entries, 1u);
  }
  {
    // Dataset fingerprint mismatch: same registration count (same catalog
    // version), different dataset contents — the persisted entry must not
    // be served; the engine runs.
    auto session = make_session(&mutated, false);
    RuntimeStats stats;
    Result<ResultTable> rerun = session->Inspect(PlantedRequest(), &stats);
    ASSERT_TRUE(rerun.ok());
    EXPECT_EQ(stats.result_cache_hits, 0u);
    EXPECT_GT(stats.blocks_processed, 0u);
  }
  {
    // Catalog mismatch: an extra Register* means a different version; the
    // old persisted entries are not served and are purged as stale.
    auto session = make_session(&dataset, true);
    RuntimeStats stats;
    Result<ResultTable> rerun = session->Inspect(PlantedRequest(), &stats);
    ASSERT_TRUE(rerun.ok());
    EXPECT_EQ(stats.result_cache_hits, 0u);
    EXPECT_GT(stats.blocks_processed, 0u);
    // Every surviving cache: blob carries the current catalog version.
    ASSERT_NE(session->store(), nullptr);
    for (const std::string& key : session->store()->BlobKeys()) {
      if (key.rfind("cache:", 0) != 0) continue;
      const std::string version_hex =
          ResultCacheBlobKey(0, session->catalog_version(), 0).substr(23, 16);
      EXPECT_NE(key.find(":" + version_hex + ":"), std::string::npos) << key;
    }
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The stale-admission window (headline bugfix): a Register* racing a
// long-running job must not let the job's late result into the cache.
// ---------------------------------------------------------------------------

// Parks the engine mid-run: the first Eval signals `started` and waits
// for `release` — the deterministic window in which the test races a
// Register* against the running job.
HypothesisPtr GatedHypothesis(std::atomic<bool>* started,
                              std::atomic<bool>* release) {
  return std::make_shared<FunctionHypothesis>(
      "is_a_gated", [started, release](const Record& rec) {
        started->store(true, std::memory_order_release);
        while (!release->load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        std::vector<float> out(rec.size(), 0.0f);
        for (size_t i = 0; i < rec.size(); ++i) {
          if (rec.tokens[i] == "a") out[i] = 1.0f;
        }
        return out;
      });
}

TEST(SchedulerStaleAdmissionTest, LateResultIsRejectedAfterInvalidation) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "deepbase_scheduler_stale";
  std::filesystem::remove_all(dir);

  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(120, 8);
  std::atomic<bool> started{false}, release{false};

  SessionConfig config;
  config.options.block_size = 32;
  config.options.num_shards = 1;
  config.num_threads = 2;
  config.store_dir = dir.string();  // the persistent tier must stay clean
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses(
      "keywords", {GatedHypothesis(&started, &release)});
  session.catalog().RegisterDataset("ab", &dataset);

  JobHandle job = session.Submit(PlantedRequest());
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The job is provably mid-execution. This Register* invalidates the
  // catalog version it started under — synchronously, via the catalog's
  // mutation listener, before the job can admit its result.
  session.catalog().RegisterHypotheses("bump", {IsAHypothesis()});
  release.store(true, std::memory_order_release);

  const Result<ResultTable>& result = job.Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();  // caller is served

  // ...but the cache is not: pre-fix, the late admission would land an
  // entry under the dead version that no later sweep drops (the sweep for
  // that version already ran) and persist it to disk, where a restarted
  // session re-reaching the version number could be served stale scores.
  EXPECT_EQ(session.scheduler().result_cache().entries(), 0u);
  EXPECT_EQ(session.scheduler().stats().result_cache_stale_rejections, 1u);
  ASSERT_NE(session.store(), nullptr);
  for (const std::string& key : session.store()->BlobKeys()) {
    EXPECT_NE(key.rfind("cache:", 0), 0u) << "stale blob persisted: " << key;
  }

  // A repeat request at the current version finds nothing cached.
  RuntimeStats stats;
  ASSERT_TRUE(session.Inspect(PlantedRequest(), &stats).ok());
  EXPECT_EQ(stats.result_cache_hits, 0u);
  EXPECT_GT(stats.blocks_processed, 0u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

void WaitForIdleScheduler(InspectionSession* session) {
  for (int i = 0; i < 5000; ++i) {
    if (session->scheduler().stats().snapshot.active_jobs == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(SchedulerAdmissionTest, ConcurrentJobQuotaRejectsTyped) {
  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(120, 8);

  SessionConfig config;
  config.options.block_size = 32;
  config.options.num_shards = 1;
  config.num_threads = 2;
  config.max_concurrent_jobs = 1;
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterHypotheses("keywords2", {IsAHypothesis()});
  session.catalog().RegisterDataset("ab", &dataset);

  InspectRequest other = PlantedRequest();
  other.hypothesis_sets = {"keywords2"};

  std::atomic<bool> release{false};
  auto blockers = BlockPool(session.thread_pool(), 2, &release);
  JobHandle admitted = session.Submit(PlantedRequest());
  EXPECT_EQ(admitted.Poll(), JobStatus::kQueued);

  // A distinct over-quota submission is rejected with a typed status.
  JobHandle rejected = session.Submit(other);
  EXPECT_TRUE(rejected.Done());
  EXPECT_EQ(rejected.Wait().status().code(),
            StatusCode::kResourceExhausted);

  // An identical concurrent submission attaches as a dedup waiter — it
  // consumes no engine resources, so the quota does not apply.
  JobHandle waiter = session.Submit(PlantedRequest());
  EXPECT_FALSE(waiter.Done());
  EXPECT_EQ(session.scheduler().stats().dedup_followers, 1u);

  release.store(true, std::memory_order_release);
  ASSERT_TRUE(admitted.Wait().ok());
  ASSERT_TRUE(waiter.Wait().ok());
  EXPECT_EQ(session.scheduler().stats().admission_rejections, 1u);

  // Capacity freed: the same distinct request is admitted now.
  WaitForIdleScheduler(&session);
  JobHandle after = session.Submit(other);
  ASSERT_TRUE(after.Wait().ok());
}

TEST(SchedulerAdmissionTest, QueuedBytesQuotaRejectsButNeverWedges) {
  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(120, 8);

  SessionConfig config;
  config.options.block_size = 32;
  config.options.num_shards = 1;
  config.num_threads = 2;
  config.max_queued_bytes = 1;  // only an empty queue admits anything
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterHypotheses("keywords2", {IsAHypothesis()});
  session.catalog().RegisterDataset("ab", &dataset);

  InspectRequest other = PlantedRequest();
  other.hypothesis_sets = {"keywords2"};

  std::atomic<bool> release{false};
  auto blockers = BlockPool(session.thread_pool(), 2, &release);
  // First into an empty queue: always admitted, even over-size.
  JobHandle first = session.Submit(PlantedRequest());
  EXPECT_EQ(first.Poll(), JobStatus::kQueued);
  // Second would overflow the queued-bytes quota behind the first.
  JobHandle second = session.Submit(other);
  EXPECT_EQ(second.Wait().status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(session.scheduler().stats().admission_rejections, 1u);

  release.store(true, std::memory_order_release);
  ASSERT_TRUE(first.Wait().ok());
}

// ---------------------------------------------------------------------------
// SchedulerStats: cumulative counters sum, gauges never double-count.
// ---------------------------------------------------------------------------

TEST(SchedulerStatsTest, AccumulateSumsCountersButNotGauges) {
  SchedulerStats a, b;
  a.jobs_scheduled = 3;
  a.result_cache_hits = 2;
  a.dedup_followers = 1;
  a.snapshot.result_cache_bytes = 100;
  a.snapshot.result_cache_entries = 1;
  b.jobs_scheduled = 4;
  b.result_cache_hits = 1;
  b.admission_rejections = 2;
  b.snapshot.result_cache_bytes = 64;
  b.snapshot.result_cache_entries = 2;

  a.Accumulate(b);
  EXPECT_EQ(a.jobs_scheduled, 7u);
  EXPECT_EQ(a.result_cache_hits, 3u);
  EXPECT_EQ(a.dedup_followers, 1u);
  EXPECT_EQ(a.admission_rejections, 2u);
  // Gauges are snapshots: the most recent poll wins — folding two polls
  // of an unchanged cache must not double its bytes.
  EXPECT_EQ(a.snapshot.result_cache_bytes, 64u);
  EXPECT_EQ(a.snapshot.result_cache_entries, 2u);
}

// ---------------------------------------------------------------------------
// ResultTable serialization (the persistent cache's wire format).
// ---------------------------------------------------------------------------

TEST(ResultTableSerializationTest, RoundTripIsBitExactAndChecked) {
  ResultTable table;
  ResultRow row;
  row.model_id = "lm@epoch6";
  row.group_id = "layer0";
  row.measure = "pearson";
  row.hypothesis = "is_a";
  row.unit = 3;
  row.unit_score = 0.5f;
  table.Add(row);
  row.unit = -1;  // group-level row: NaN unit score survives round-trip
  row.unit_score = std::numeric_limits<float>::quiet_NaN();
  row.group_score = 1.25f;
  table.Add(row);

  const std::string bytes = table.SerializeToString();
  Result<ResultTable> back = ResultTable::DeserializeFromString(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ(back->ToCsv(), table.ToCsv());
  EXPECT_EQ(back->row(0).unit_score, 0.5f);
  EXPECT_TRUE(std::isnan(back->row(1).unit_score));
  EXPECT_EQ(back->row(1).unit, -1);

  std::string corrupted = bytes;
  corrupted[1] = 'x';  // header magic
  EXPECT_EQ(ResultTable::DeserializeFromString(corrupted).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(ResultTable::DeserializeFromString(
                bytes.substr(0, bytes.size() - 3))
                .status()
                .code(),
            StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Hypothesis store tier: reuse across jobs and restarts.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, HypothesisTierServesRestartsWithIdenticalScores) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "deepbase_scheduler_hyp_tier";
  std::filesystem::remove_all(dir);

  CountingExtractor extractor(4);
  Dataset dataset = MakeAbDataset(120, 8);

  auto make_session = [&] {
    SessionConfig config;
    config.options.block_size = 32;
    config.options.num_shards = 1;
    config.store_dir = dir.string();
    // This test exercises the hypothesis-behavior tier specifically; the
    // persistent result cache would otherwise answer the second session
    // before the engine (and the tier) ever runs.
    config.persist_result_cache = false;
    auto session = std::make_unique<InspectionSession>(std::move(config));
    session->catalog().RegisterModel("planted", &extractor);
    session->catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
    session->catalog().RegisterDataset("ab", &dataset);
    return session;
  };

  std::map<int, float> first_scores;
  {
    auto session = make_session();
    RuntimeStats stats;
    Result<ResultTable> first = session->Inspect(PlantedRequest(), &stats);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(stats.store_hyp_misses, 1u);  // one-time materialization
    first_scores = ScoresOf(*first);
    ASSERT_NE(session->store(), nullptr);
    EXPECT_TRUE(session->store()->Contains(
        HypothesisBehaviorKey("is_a", dataset)));
  }
  {
    auto session = make_session();  // "restart"
    RuntimeStats stats;
    Result<ResultTable> again = session->Inspect(PlantedRequest(), &stats);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(stats.store_hyp_misses, 0u);
    EXPECT_EQ(stats.store_hyp_disk_hits, 1u);
    EXPECT_EQ(ScoresOf(*again), first_scores);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// One storeless session, two datasets, one hypothesis set: the hypothesis
// tier is keyed by dataset, so the second dataset is scored on its own
// behaviors — byte-identical to a fresh session's table for it.
// ---------------------------------------------------------------------------

void ExpectSecondDatasetScoredLikeAFreshSession(const Dataset& first,
                                                const Dataset& second) {
  CountingExtractor extractor(4);
  auto populate = [&](InspectionSession* session) {
    session->catalog().RegisterModel("planted", &extractor);
    session->catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
    session->catalog().RegisterDataset("first", &first);
    session->catalog().RegisterDataset("second", &second);
  };
  auto request = [](const std::string& dataset) {
    InspectRequest r = PlantedRequest();
    r.dataset_name = dataset;
    return r;
  };

  InspectionSession session;
  populate(&session);
  ASSERT_TRUE(session.Inspect(request("first")).ok());
  Result<ResultTable> scored = session.Inspect(request("second"));
  ASSERT_TRUE(scored.ok()) << scored.status().ToString();

  InspectionSession fresh;
  populate(&fresh);
  Result<ResultTable> expected = fresh.Inspect(request("second"));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(scored->SerializeToString(), expected->SerializeToString());
}

TEST(HypothesisTierKeyTest, SameShapeDatasetsDoNotShareBehaviors) {
  const Dataset first = MakeAbDataset(120, 8, /*seed=*/3);
  const Dataset second = MakeAbDataset(120, 8, /*seed=*/4);
  ExpectSecondDatasetScoredLikeAFreshSession(first, second);
}

TEST(HypothesisTierKeyTest, NarrowerSecondDatasetIsScoredOnItsOwnRows) {
  const Dataset first = MakeAbDataset(120, 16, /*seed=*/3);
  const Dataset second = MakeAbDataset(120, 8, /*seed=*/4);
  ExpectSecondDatasetScoredLikeAFreshSession(first, second);
}

// ---------------------------------------------------------------------------
// RuntimeStats::cache_hits / cache_misses count this job's own
// (hypothesis, record) rows: copied from the tier / evaluated live. Every
// job also evaluates record 0 once per hypothesis before it runs
// (CheckHypothesisOutputFormat), outside the engine's counters.
// ---------------------------------------------------------------------------

struct CountedHypothesisWorld {
  explicit CountedHypothesisWorld(size_t hypothesis_cache_values) {
    SessionConfig config;
    config.options.block_size = 32;
    config.hypothesis_cache_values = hypothesis_cache_values;
    config.enable_result_cache = false;
    config.enable_inflight_dedup = false;
    session = std::make_unique<InspectionSession>(std::move(config));
    HypothesisPtr counted = std::make_shared<FunctionHypothesis>(
        "is_a_counted", [this](const Record& rec) {
          evals.fetch_add(1, std::memory_order_relaxed);
          std::vector<float> out(rec.size(), 0.0f);
          for (size_t i = 0; i < rec.size(); ++i) {
            if (rec.tokens[i] == "a") out[i] = 1.0f;
          }
          return out;
        });
    session->catalog().RegisterModel("planted", &extractor);
    session->catalog().RegisterHypotheses("keywords",
                                          {IsAHypothesis(), counted});
    session->catalog().RegisterDataset("ab", &dataset);
  }

  CountingExtractor extractor{4};
  Dataset dataset = MakeAbDataset(200, 8);
  std::atomic<size_t> evals{0};
  std::unique_ptr<InspectionSession> session;
};

TEST(HypothesisCounterTest, LiveJobCountsEveryEvaluatedRow) {
  CountedHypothesisWorld world(/*hypothesis_cache_values=*/0);
  RuntimeStats stats;
  ASSERT_TRUE(world.session->Inspect(PlantedRequest(), &stats).ok());
  ASSERT_GT(stats.records_processed, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, stats.records_processed * 2);
  EXPECT_EQ(world.evals.load(), stats.records_processed + 1);
}

TEST(HypothesisCounterTest, SecondJobIsServedFromTheTierWithoutEval) {
  CountedHypothesisWorld world(/*hypothesis_cache_values=*/size_t{1} << 20);
  RuntimeStats first;
  ASSERT_TRUE(world.session->Inspect(PlantedRequest(), &first).ok());
  // The first job materializes both hypotheses over the whole dataset.
  EXPECT_EQ(first.cache_misses, world.dataset.num_records() * 2);
  EXPECT_EQ(first.cache_hits, first.records_processed * 2);
  EXPECT_EQ(world.evals.load(), world.dataset.num_records() + 1);

  RuntimeStats second;
  ASSERT_TRUE(world.session->Inspect(PlantedRequest(), &second).ok());
  EXPECT_EQ(second.cache_misses, 0u);
  EXPECT_EQ(second.cache_hits, second.records_processed * 2);
  EXPECT_EQ(second.store_hyp_mem_hits, 2u);
  // The engine evaluated nothing: the second job's only Eval is its probe.
  EXPECT_EQ(world.evals.load(), world.dataset.num_records() + 2);
}

}  // namespace
}  // namespace deepbase
