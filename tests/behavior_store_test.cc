// Tests for the disk-backed behavior store: round-trips, the memory LRU
// tier, checksum validation / corruption detection, dataset fingerprints,
// and the materialize-then-reinspect workflow of paper §6.3.

#include "core/behavior_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "measures/scores.h"
#include "nn/lstm_lm.h"
#include "service/inspection_session.h"
#include "tensor/simd.h"
#include "util/codec.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace deepbase {
namespace {

class StoreFixture : public ::testing::Test {
 protected:
  StoreFixture() {
    dir_ = std::filesystem::temp_directory_path() /
           ("deepbase_store_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  ~StoreFixture() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

Matrix TestMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  return Matrix::RandomNormal(rows, cols, &rng);
}

TEST_F(StoreFixture, PutGetRoundTrip) {
  BehaviorStore store(dir_.string());
  Matrix m = TestMatrix(12, 7, 1);
  ASSERT_TRUE(store.Put("key1", m).ok());
  Result<Matrix> back = store.Get("key1");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(MaxAbsDiff(*back, m), 0.0f);
  EXPECT_EQ(store.mem_hits(), 1u);  // served from the memory tier
}

TEST_F(StoreFixture, MissingKeyIsNotFound) {
  BehaviorStore store(dir_.string());
  EXPECT_EQ(store.Get("nope").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(store.Contains("nope"));
}

TEST_F(StoreFixture, SurvivesReopen) {
  {
    BehaviorStore store(dir_.string());
    ASSERT_TRUE(store.Put("persisted", TestMatrix(4, 4, 2)).ok());
  }
  BehaviorStore reopened(dir_.string());
  EXPECT_TRUE(reopened.Contains("persisted"));
  Result<Matrix> back = reopened.Get("persisted");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(MaxAbsDiff(*back, TestMatrix(4, 4, 2)), 0.0f);
  EXPECT_EQ(reopened.disk_hits(), 1u);
  // Second read hits memory.
  ASSERT_TRUE(reopened.Get("persisted").ok());
  EXPECT_EQ(reopened.mem_hits(), 1u);
}

TEST_F(StoreFixture, OverwriteReplacesPayload) {
  BehaviorStore store(dir_.string());
  ASSERT_TRUE(store.Put("k", TestMatrix(3, 3, 1)).ok());
  ASSERT_TRUE(store.Put("k", TestMatrix(5, 2, 9)).ok());
  Result<Matrix> back = store.Get("k");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows(), 5u);
  EXPECT_EQ(back->cols(), 2u);
}

TEST_F(StoreFixture, LruEvictsUnderMemoryPressureButDiskServes) {
  // Budget fits two 100×10 float matrices (4000 B each), not three.
  BehaviorStore store(dir_.string(), /*memory_budget_bytes=*/9000);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store
                    .Put("k" + std::to_string(i),
                         TestMatrix(100, 10, static_cast<uint64_t>(i)))
                    .ok());
  }
  EXPECT_LE(store.memory_bytes(), 9000u);
  EXPECT_GE(store.evictions(), 1u);
  // The evicted key still loads (from disk).
  Result<Matrix> k0 = store.Get("k0");
  ASSERT_TRUE(k0.ok());
  EXPECT_EQ(MaxAbsDiff(*k0, TestMatrix(100, 10, 0)), 0.0f);
}

TEST_F(StoreFixture, EvictionReportsBytesNotEntryCounts) {
  BehaviorStore store(dir_.string(), /*memory_budget_bytes=*/9000);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store
                    .Put("k" + std::to_string(i),
                         TestMatrix(100, 10, static_cast<uint64_t>(i)))
                    .ok());
  }
  ASSERT_GE(store.evictions(), 1u);
  // Each evicted matrix frees 100*10*4 bytes; the byte counter reports
  // the freed memory, not the number of entries.
  EXPECT_EQ(store.evicted_bytes(), store.evictions() * 4000u);
  // bytes_written includes file framing, so it exceeds the raw payloads.
  EXPECT_GT(store.bytes_written(), 3u * 4000u);
}

TEST_F(StoreFixture, NamespaceQuotaBoundsOneTenantOnly) {
  BehaviorStore store(dir_.string(), /*memory_budget_bytes=*/1u << 20);
  store.SetNamespaceQuota("hyp", 5000);
  ASSERT_TRUE(store.Put("unit:a", TestMatrix(100, 10, 1)).ok());  // 4000 B
  ASSERT_TRUE(store.Put("hyp:x", TestMatrix(100, 10, 2)).ok());
  ASSERT_TRUE(store.Put("hyp:y", TestMatrix(100, 10, 3)).ok());
  // The hyp namespace was squeezed under its quota; unit is untouched.
  EXPECT_LE(store.namespace_bytes("hyp"), 5000u);
  EXPECT_EQ(store.namespace_bytes("unit"), 4000u);
  EXPECT_GE(store.evictions(), 1u);
  EXPECT_GE(store.evicted_bytes(), 4000u);
  // The evicted hypothesis entry still loads from disk.
  BehaviorStore::Tier tier = BehaviorStore::Tier::kMiss;
  ASSERT_TRUE(store.Get("hyp:x", &tier).ok());
  EXPECT_EQ(tier, BehaviorStore::Tier::kDisk);
  // Unit-tier read never left memory.
  ASSERT_TRUE(store.Get("unit:a", &tier).ok());
  EXPECT_EQ(tier, BehaviorStore::Tier::kMemory);
}

TEST_F(StoreFixture, CostAwareEvictionPrefersCheapBytes) {
  // Budget fits two 4000 B matrices. "pricey" is older than "cheap", but
  // the evictor drops the lowest cost-per-byte candidate first.
  BehaviorStore store(dir_.string(), /*memory_budget_bytes=*/9000);
  ASSERT_TRUE(store.Put("pricey", TestMatrix(100, 10, 1), /*cost=*/50.0).ok());
  ASSERT_TRUE(store.Put("cheap", TestMatrix(100, 10, 2), /*cost=*/0.001).ok());
  ASSERT_TRUE(store.Put("new", TestMatrix(100, 10, 3)).ok());
  EXPECT_EQ(store.evictions(), 1u);
  BehaviorStore::Tier tier = BehaviorStore::Tier::kMiss;
  ASSERT_TRUE(store.Get("pricey", &tier).ok());
  EXPECT_EQ(tier, BehaviorStore::Tier::kMemory);  // survived despite age
  ASSERT_TRUE(store.Get("cheap", &tier).ok());
  EXPECT_EQ(tier, BehaviorStore::Tier::kDisk);  // the one that was dropped
}

// An empty root_dir keeps only the memory tier: the hypothesis-behavior
// cache of storeless sessions.
TEST(MemoryOnlyStoreTest, ServesFromMemoryAndDeclinesWhatCannotFit) {
  Dataset ds(Vocab::FromChars("ab"), 4);
  for (const char* text : {"abab", "bbaa", "aaab", "baba"}) ds.AddText(text);
  std::atomic<size_t> evals{0};
  auto counted = [&evals](const std::string& name) {
    return std::make_shared<FunctionHypothesis>(
        name, [&evals](const Record& rec) {
          evals.fetch_add(1, std::memory_order_relaxed);
          std::vector<float> out(rec.size(), 0.0f);
          for (size_t i = 0; i < rec.size(); ++i) {
            out[i] = rec.tokens[i] == "a" ? 1.0f : 0.0f;
          }
          return out;
        });
  };
  const size_t matrix_bytes = ds.num_records() * ds.ns() * sizeof(float);
  // Room for exactly one hypothesis matrix.
  BehaviorStore store(/*root_dir=*/"", /*memory_budget_bytes=*/matrix_bytes);

  // Put creates no file; Get and PeekTier see memory or nothing.
  const std::string key = "hyp:put:0";
  ASSERT_TRUE(store.Put(key, TestMatrix(4, 4, 9)).ok());
  EXPECT_EQ(store.bytes_written(), 0u);
  EXPECT_TRUE(store.Keys().empty());
  EXPECT_FALSE(std::filesystem::exists(
      "/" + HexU64(Fnv1a(key.data(), key.size())) + ".behaviors"));
  EXPECT_FALSE(std::filesystem::exists(
      HexU64(Fnv1a(key.data(), key.size())) + ".behaviors"));
  EXPECT_EQ(store.PeekTier(key), BehaviorStore::Tier::kMemory);
  EXPECT_EQ(store.Get("hyp:absent:0").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.PeekTier("hyp:absent:0"), BehaviorStore::Tier::kMiss);
  EXPECT_FALSE(store.Contains("hyp:absent:0"));

  // EnsureHypothesisBehaviors materializes once.
  const auto first = counted("first");
  bool materialized = false;
  Result<std::string> first_key =
      store.EnsureHypothesisBehaviors(*first, ds, &materialized);
  ASSERT_TRUE(first_key.ok()) << first_key.status().ToString();
  EXPECT_TRUE(materialized);
  EXPECT_EQ(evals.load(), ds.num_records());
  ASSERT_TRUE(store.EnsureHypothesisBehaviors(*first, ds, &materialized).ok());
  EXPECT_FALSE(materialized);
  EXPECT_EQ(evals.load(), ds.num_records());
  BehaviorStore::Tier tier = BehaviorStore::Tier::kMiss;
  ASSERT_TRUE(store.GetShared(*first_key, &tier).ok());
  EXPECT_EQ(tier, BehaviorStore::Tier::kMemory);
  EXPECT_EQ(store.PeekTier(key), BehaviorStore::Tier::kMiss);  // evicted

  // A second matrix evicts the first (LRU); the first re-materializes.
  ASSERT_TRUE(store.EnsureHypothesisBehaviors(*counted("second"), ds).ok());
  EXPECT_EQ(store.PeekTier(*first_key), BehaviorStore::Tier::kMiss);
  EXPECT_EQ(store.Get(*first_key).status().code(), StatusCode::kNotFound);
  evals = 0;
  ASSERT_TRUE(store.EnsureHypothesisBehaviors(*first, ds, &materialized).ok());
  EXPECT_TRUE(materialized);
  EXPECT_EQ(evals.load(), ds.num_records());

  // A matrix over the budget is declined before any evaluation, and a job
  // evaluates it live exactly once.
  BehaviorStore small(/*root_dir=*/"",
                      /*memory_budget_bytes=*/matrix_bytes - 1);
  const auto big = counted("big");
  evals = 0;
  EXPECT_EQ(small.EnsureHypothesisBehaviors(*big, ds).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(evals.load(), 0u);
  LstmLm model(ds.vocab().size(), 6, 1, 23);
  LstmLmExtractor extractor("lm", &model);
  InspectOptions opts;
  opts.block_size = 2;
  opts.early_stopping = false;
  opts.hypothesis_store = &small;
  RuntimeStats stats;
  Inspect({AllUnitsGroup(&extractor)}, ds,
          {std::make_shared<CorrelationScore>("pearson")}, {big}, opts, &stats);
  EXPECT_EQ(evals.load(), ds.num_records());
  EXPECT_EQ(stats.cache_misses, ds.num_records());
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.store_hyp_misses, 0u);
  EXPECT_EQ(small.memory_bytes(), 0u);
}

TEST_F(StoreFixture, EnsureHypothesisBehaviorsMaterializesOnce) {
  Dataset ds(Vocab::FromChars("ab"), 4);
  ds.AddText("abab");
  ds.AddText("bbaa");
  auto hyp = std::make_shared<KeywordHypothesis>("ab");
  BehaviorStore store(dir_.string());

  bool materialized = false;
  Result<std::string> key =
      store.EnsureHypothesisBehaviors(*hyp, ds, &materialized);
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  EXPECT_TRUE(materialized);
  EXPECT_EQ(*key, HypothesisBehaviorKey(hyp->name(), ds));

  Result<Matrix> stored = store.Get(*key);
  ASSERT_TRUE(stored.ok());
  ASSERT_EQ(stored->rows(), ds.num_records());
  ASSERT_EQ(stored->cols(), ds.ns());
  for (size_t r = 0; r < ds.num_records(); ++r) {
    const std::vector<float> live = hyp->Eval(ds.record(r));
    for (size_t c = 0; c < ds.ns(); ++c) {
      EXPECT_EQ((*stored)(r, c), live[c]) << "record " << r << " col " << c;
    }
  }

  // Second call is a no-op (same key, no extra write).
  const size_t written = store.bytes_written();
  materialized = true;
  ASSERT_TRUE(store.EnsureHypothesisBehaviors(*hyp, ds, &materialized).ok());
  EXPECT_FALSE(materialized);
  EXPECT_EQ(store.bytes_written(), written);
}

// Each Ensure*Behaviors call holds its key's materialization lock, and the
// last caller of a key frees it: keys that are no longer in flight leave
// no lock behind, however many a session materialized.
TEST_F(StoreFixture, MaterializeLocksAreFreedByTheirLastCaller) {
  Dataset ds(Vocab::FromChars("ab"), 4);
  ds.AddText("abab");
  ds.AddText("bbaa");
  LstmLm model(ds.vocab().size(), 4, 1, 5);
  BehaviorStore store(dir_.string());
  for (int i = 0; i < 24; ++i) {
    const auto hyp = std::make_shared<FunctionHypothesis>(
        "h" + std::to_string(i),
        [](const Record& rec) { return std::vector<float>(rec.size(), 1); });
    ASSERT_TRUE(store.EnsureHypothesisBehaviors(*hyp, ds).ok());
    // A model re-registered under a fresh id: a new unit-tier key.
    const LstmLmExtractor extractor("lm@" + std::to_string(i), &model);
    ASSERT_TRUE(store.EnsureUnitBehaviors(extractor, ds).ok());
  }
  EXPECT_EQ(store.materialize_slots(), 0u);
}

// Callers that race on one key still materialize it once.
TEST_F(StoreFixture, ConcurrentEnsureCallsOnOneKeyMaterializeOnce) {
  Dataset ds(Vocab::FromChars("ab"), 4);
  for (int i = 0; i < 8; ++i) ds.AddText(i % 2 == 0 ? "abab" : "bbaa");
  std::atomic<size_t> evals{0};
  const auto hyp = std::make_shared<FunctionHypothesis>(
      "slow", [&evals](const Record& rec) {
        evals.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return std::vector<float>(rec.size(), 1.0f);
      });
  BehaviorStore store(dir_.string());
  std::atomic<int> materialized{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      bool now = false;
      EXPECT_TRUE(store.EnsureHypothesisBehaviors(*hyp, ds, &now).ok());
      if (now) materialized.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(materialized.load(), 1);
  EXPECT_EQ(evals.load(), ds.num_records());
  EXPECT_EQ(store.materialize_slots(), 0u);
}

TEST_F(StoreFixture, ZeroBudgetDisablesMemoryTier) {
  BehaviorStore store(dir_.string(), 0);
  ASSERT_TRUE(store.Put("k", TestMatrix(4, 4, 3)).ok());
  EXPECT_EQ(store.memory_bytes(), 0u);
  ASSERT_TRUE(store.Get("k").ok());
  EXPECT_EQ(store.disk_hits(), 1u);
  EXPECT_EQ(store.mem_hits(), 0u);
}

TEST_F(StoreFixture, CorruptionQuarantinesAndReadsAsMiss) {
  BehaviorStore store(dir_.string());
  const Matrix original = TestMatrix(8, 8, 4);
  ASSERT_TRUE(store.Put("fragile", original).ok());
  store.EvictFromMemory("fragile");
  // Flip one payload byte in the single stored file.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::fstream f(entry.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-5, std::ios::end);
    char c = 0;
    f.read(&c, 1);
    f.seekp(-5, std::ios::end);
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
  }
  // The corrupt file reads as a miss (not kDataLoss), is renamed aside
  // exactly once, and disappears from the key listing.
  EXPECT_EQ(store.Get("fragile").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.quarantines(), 1u);
  EXPECT_TRUE(store.Keys().empty());
  size_t quarantined_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".quarantined") ++quarantined_files;
  }
  EXPECT_EQ(quarantined_files, 1u);
  // The second read is a plain miss — no second rename.
  EXPECT_EQ(store.Get("fragile").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.quarantines(), 1u);
  // Recompute repopulates: a fresh Put serves reads again.
  ASSERT_TRUE(store.Put("fragile", original).ok());
  store.EvictFromMemory("fragile");
  Result<Matrix> back = store.Get("fragile");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows(), original.rows());
  EXPECT_EQ(back->cols(), original.cols());
}

TEST_F(StoreFixture, RemoveDeletesBothTiers) {
  BehaviorStore store(dir_.string());
  ASSERT_TRUE(store.Put("gone", TestMatrix(2, 2, 5)).ok());
  ASSERT_TRUE(store.Remove("gone").ok());
  EXPECT_FALSE(store.Contains("gone"));
  EXPECT_EQ(store.Get("gone").status().code(), StatusCode::kNotFound);
}

TEST_F(StoreFixture, KeysListsPersistedEntries) {
  BehaviorStore store(dir_.string());
  ASSERT_TRUE(store.Put("b", TestMatrix(2, 2, 1)).ok());
  ASSERT_TRUE(store.Put("a", TestMatrix(2, 2, 2)).ok());
  EXPECT_EQ(store.Keys(), (std::vector<std::string>{"a", "b"}));
}

TEST_F(StoreFixture, GetSharedServesOneAllocationAndSurvivesEviction) {
  BehaviorStore store(dir_.string());
  Matrix m = TestMatrix(8, 4, 11);
  ASSERT_TRUE(store.Put("unit:shared", m).ok());

  Result<std::shared_ptr<const Matrix>> a = store.GetShared("unit:shared");
  Result<std::shared_ptr<const Matrix>> b = store.GetShared("unit:shared");
  ASSERT_TRUE(a.ok() && b.ok());
  // Literally the same allocation: concurrent readers share one matrix
  // instead of holding per-job deep copies.
  EXPECT_EQ(a->get(), b->get());
  EXPECT_EQ(MaxAbsDiff(**a, m), 0.0f);

  // Eviction drops the store's reference only; live handles stay valid.
  store.EvictFromMemory("unit:shared");
  EXPECT_EQ(MaxAbsDiff(**a, m), 0.0f);

  // A re-read reloads from disk into a fresh allocation.
  Result<std::shared_ptr<const Matrix>> c = store.GetShared("unit:shared");
  ASSERT_TRUE(c.ok());
  EXPECT_NE(c->get(), a->get());
  EXPECT_EQ(MaxAbsDiff(**c, m), 0.0f);
}

TEST_F(StoreFixture, BlobRoundTripAndReopen) {
  const std::string payload(1000, 'x');
  {
    BehaviorStore store(dir_.string());
    ASSERT_TRUE(store.PutBlob("cache:abc", payload).ok());
    Result<std::string> back = store.GetBlob("cache:abc");
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, payload);
    EXPECT_TRUE(store.ContainsBlob("cache:abc"));
    EXPECT_EQ(store.GetBlob("cache:nope").status().code(),
              StatusCode::kNotFound);
  }
  {
    BehaviorStore store(dir_.string());  // reopen: blob tier is on disk
    Result<std::string> back = store.GetBlob("cache:abc");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, payload);
    EXPECT_EQ(store.BlobKeys(), (std::vector<std::string>{"cache:abc"}));
    ASSERT_TRUE(store.RemoveBlob("cache:abc").ok());
    EXPECT_FALSE(store.ContainsBlob("cache:abc"));
  }
}

TEST_F(StoreFixture, BlobsAndMatricesDoNotCollideOnOneKey) {
  BehaviorStore store(dir_.string());
  Matrix m = TestMatrix(3, 3, 7);
  ASSERT_TRUE(store.Put("dual", m).ok());
  ASSERT_TRUE(store.PutBlob("dual", "payload").ok());
  ASSERT_TRUE(store.Get("dual").ok());
  Result<std::string> blob = store.GetBlob("dual");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, "payload");
}

TEST_F(StoreFixture, BlobNamespaceQuotaEvictsOldestWritten) {
  BehaviorStore store(dir_.string());
  // Equal-length keys so every blob file has the same size.
  const std::string payload(500, 'p');
  ASSERT_TRUE(store.PutBlob("cache:aa", payload).ok());
  ASSERT_TRUE(store.PutBlob("cache:bb", payload).ok());
  ASSERT_TRUE(store.PutBlob("other:cc", payload).ok());
  const size_t one = store.blob_namespace_bytes("cache") / 2;
  ASSERT_GT(one, payload.size());

  // Quota for one blob: the older "cache:" entry goes; "other:" survives.
  store.SetBlobNamespaceQuota("cache", one);
  EXPECT_GE(store.blob_evictions(), 1u);
  EXPECT_FALSE(store.ContainsBlob("cache:aa"));
  EXPECT_TRUE(store.ContainsBlob("cache:bb"));
  EXPECT_TRUE(store.ContainsBlob("other:cc"));
  EXPECT_LE(store.blob_namespace_bytes("cache"), one);

  // Writes keep enforcing the quota.
  ASSERT_TRUE(store.PutBlob("cache:dd", payload).ok());
  EXPECT_FALSE(store.ContainsBlob("cache:bb"));
  EXPECT_TRUE(store.ContainsBlob("cache:dd"));
}

TEST_F(StoreFixture, BitFlippedBlobQuarantinesOnceAndRepopulates) {
  BehaviorStore store(dir_.string());
  const std::string payload(256, 'z');
  ASSERT_TRUE(store.PutBlob("cache:c", payload).ok());
  // Flip a payload byte in the single .blob file.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() != ".blob") continue;
    std::fstream f(entry.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-4, std::ios::end);
    f.put('!');
  }
  // Checksum mismatch → quarantined exactly once, read as a miss.
  EXPECT_EQ(store.GetBlob("cache:c").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.quarantines(), 1u);
  EXPECT_FALSE(store.ContainsBlob("cache:c"));
  EXPECT_TRUE(store.BlobKeys().empty());
  EXPECT_EQ(store.GetBlob("cache:c").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.quarantines(), 1u);  // no second rename
  // Recompute repopulates the entry.
  ASSERT_TRUE(store.PutBlob("cache:c", payload).ok());
  Result<std::string> back = store.GetBlob("cache:c");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
}

TEST_F(StoreFixture, TruncatedBlobQuarantinesOnceAndRepopulates) {
  BehaviorStore store(dir_.string());
  const std::string payload(512, 'q');
  ASSERT_TRUE(store.PutBlob("cache:t", payload).ok());
  // Truncate the file mid-payload (a torn write / partial disk).
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() != ".blob") continue;
    std::filesystem::resize_file(entry.path(),
                                 entry.file_size() - payload.size() / 2);
  }
  EXPECT_EQ(store.GetBlob("cache:t").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.quarantines(), 1u);
  size_t quarantined_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".quarantined") ++quarantined_files;
  }
  EXPECT_EQ(quarantined_files, 1u);
  EXPECT_EQ(store.GetBlob("cache:t").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.quarantines(), 1u);
  ASSERT_TRUE(store.PutBlob("cache:t", payload).ok());
  Result<std::string> back = store.GetBlob("cache:t");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
}

// A corrupt length field is checked against the bytes the file holds
// before anything is sized from it: a blob claiming 4 GiB reads as a
// quarantined miss, without a 4 GiB allocation.
TEST_F(StoreFixture, OversizedBlobLengthQuarantinesWithoutAllocating) {
  BehaviorStore store(dir_.string());
  const std::string key = "cache:l";
  const std::string payload(64, 'l');
  ASSERT_TRUE(store.PutBlob(key, payload).ok());
  // The length field follows the magic, the key length, the key and the
  // checksum.
  const uint64_t huge = uint64_t{1} << 32;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() != ".blob") continue;
    std::fstream f(entry.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(4 + 8 + key.size() + 8));
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_EQ(store.GetBlob(key).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.quarantines(), 1u);
  ASSERT_TRUE(store.PutBlob(key, payload).ok());
  Result<std::string> back = store.GetBlob(key);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
}

TEST(DatasetFingerprintTest, SensitiveToContentAndShape) {
  Dataset a(Vocab::FromChars("ab"), 4);
  a.AddText("abab");
  Dataset b(Vocab::FromChars("ab"), 4);
  b.AddText("abab");
  EXPECT_EQ(DatasetFingerprint(a), DatasetFingerprint(b));

  Dataset c(Vocab::FromChars("ab"), 4);
  c.AddText("abba");
  EXPECT_NE(DatasetFingerprint(a), DatasetFingerprint(c));

  b.AddText("abab");  // extra record
  EXPECT_NE(DatasetFingerprint(a), DatasetFingerprint(b));
}

TEST_F(StoreFixture, MaterializeThenReinspectSkipsExtraction) {
  // The §6.3 workflow: extract once, persist, then re-run the inspection
  // from the stored behaviors with identical scores.
  Dataset ds(Vocab::FromChars("ab"), 8);
  Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    std::string text;
    for (int t = 0; t < 8; ++t) text += rng.Bernoulli(0.5) ? 'a' : 'b';
    ds.AddText(text);
  }
  LstmLm model(ds.vocab().size(), 6, 1, 23);
  LstmLmExtractor live("lm", &model);

  BehaviorStore store(dir_.string());
  Result<std::string> key = MaterializeUnitBehaviors(live, ds, &store);
  ASSERT_TRUE(key.ok()) << key.status().ToString();

  Result<PrecomputedExtractor> stored =
      OpenStoredExtractor(*key, "lm", ds, &store);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();

  std::vector<HypothesisPtr> hyps = {
      std::make_shared<KeywordHypothesis>("ab")};
  std::vector<MeasureFactoryPtr> scores = {
      std::make_shared<CorrelationScore>("pearson")};
  InspectOptions opts;
  opts.block_size = 16;
  opts.early_stopping = false;
  ResultTable from_live =
      Inspect({AllUnitsGroup(&live)}, ds, scores, hyps, opts);
  ResultTable from_store =
      Inspect({AllUnitsGroup(&*stored)}, ds, scores, hyps, opts);
  ASSERT_EQ(from_live.size(), from_store.size());
  for (size_t i = 0; i < from_live.size(); ++i) {
    EXPECT_FLOAT_EQ(from_live.row(i).unit_score,
                    from_store.row(i).unit_score)
        << "row " << i;
  }

  // Re-materializing is a no-op (same key, no second extraction write).
  const size_t written = store.bytes_written();
  ASSERT_TRUE(MaterializeUnitBehaviors(live, ds, &store).ok());
  EXPECT_EQ(store.bytes_written(), written);

  // A different dataset gets a different key.
  Dataset other(ds.vocab(), 8);
  other.AddText("abababab");
  EXPECT_NE(UnitBehaviorKey("lm", ds), UnitBehaviorKey("lm", other));
}

TEST_F(StoreFixture, StoredExtractorRejectsMisalignedDataset) {
  BehaviorStore store(dir_.string());
  ASSERT_TRUE(store.Put("misaligned", TestMatrix(10, 3, 6)).ok());
  Dataset ds(Vocab::FromChars("a"), 4);
  ds.AddText("aaaa");  // 4 symbols != 10 rows
  EXPECT_FALSE(OpenStoredExtractor("misaligned", "m", ds, &store).ok());
}

TEST_F(StoreFixture, OversizedPayloadIsServedByMmapWithoutAdmission) {
  // 64×40 floats ≈ 10 KiB of payload against a 4 KiB memory budget: the
  // matrix can never live in the LRU tier, so GetShared hands out the
  // mmap-backed store instead of deserializing.
  BehaviorStore store(dir_.string(), /*memory_budget_bytes=*/4096);
  Matrix m = TestMatrix(64, 40, 3);
  ASSERT_TRUE(store.Put("big", m).ok());

  BehaviorStore::Tier tier = BehaviorStore::Tier::kMiss;
  Result<std::shared_ptr<const Matrix>> shared = store.GetShared("big", &tier);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  EXPECT_EQ(tier, BehaviorStore::Tier::kMmap);
  EXPECT_STREQ((*shared)->tier(), "mmap");
  EXPECT_EQ(store.mmap_hits(), 1u);
  EXPECT_EQ(store.memory_bytes(), 0u);  // never admitted to the LRU

  ASSERT_TRUE((*shared)->SameShape(m));
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ((**shared)(r, c), m(r, c));
    }
  }

  // A second read maps again rather than warming the memory tier.
  tier = BehaviorStore::Tier::kMiss;
  ASSERT_TRUE(store.GetShared("big", &tier).ok());
  EXPECT_EQ(tier, BehaviorStore::Tier::kMmap);
  EXPECT_EQ(store.mmap_hits(), 2u);
}

// A 64-byte file whose shape wraps the size arithmetic: 100 × cols × 4 +
// the 64-byte header is 2^64 + 48. Shapes are overflow-checked against the
// bytes the file holds, so at either tier the file is a quarantined miss,
// never a matrix the bytes do not hold.
TEST_F(StoreFixture, WrappingShapeQuarantinesAtEveryTier) {
  const std::string key = "unit:x";
  for (const size_t budget : {size_t{64} << 20, size_t{0}}) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    codec::Writer out;
    out.U32(0x44425332);  // "DBS2"
    out.U64(key.size());
    out.Bytes(key);
    out.U64(0);  // checksum
    out.U64(100);
    out.U64(46116860184273879ull);
    out.Bytes(std::string(64 - out.bytes().size(), '\0'));
    ASSERT_TRUE(
        codec::WriteFile(
            dir_ / (HexU64(Fnv1a(key.data(), key.size())) + ".behaviors"),
            out.bytes())
            .ok());
    BehaviorStore store(dir_.string(), budget);
    BehaviorStore::Tier tier = BehaviorStore::Tier::kMemory;
    Result<std::shared_ptr<const Matrix>> m = store.GetShared(key, &tier);
    EXPECT_EQ(m.status().code(), StatusCode::kNotFound) << budget;
    EXPECT_EQ(tier, BehaviorStore::Tier::kMiss) << budget;
    EXPECT_EQ(store.quarantines(), 1u) << budget;
  }
}

TEST_F(StoreFixture, NamespaceQuotaTriggersMmapBelowGlobalBudget) {
  // Global budget would fit the payload, but the key's namespace quota is
  // tighter — the effective limit is the min of the two.
  BehaviorStore store(dir_.string(), /*memory_budget_bytes=*/1 << 20);
  store.SetNamespaceQuota("probe", 1024);
  Matrix m = TestMatrix(32, 20, 4);
  ASSERT_TRUE(store.Put("probe:act", m).ok());

  BehaviorStore::Tier tier = BehaviorStore::Tier::kMiss;
  Result<std::shared_ptr<const Matrix>> shared =
      store.GetShared("probe:act", &tier);
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(tier, BehaviorStore::Tier::kMmap);
  EXPECT_EQ(store.mmap_hits(), 1u);

  // An un-quota'd key of the same size still takes the deserialize path
  // on a cold read (evicted from memory so the read reaches disk).
  ASSERT_TRUE(store.Put("other:act", m).ok());
  store.EvictFromMemory("other:act");
  tier = BehaviorStore::Tier::kMiss;
  ASSERT_TRUE(store.GetShared("other:act", &tier).ok());
  EXPECT_EQ(tier, BehaviorStore::Tier::kDisk);
}

TEST_F(StoreFixture, MmapHandoutSurvivesStoreDeletion) {
  // The handle owns the mapping: deleting the key (and the file) must not
  // invalidate an outstanding reader.
  BehaviorStore store(dir_.string(), /*memory_budget_bytes=*/4096);
  Matrix m = TestMatrix(64, 40, 5);
  ASSERT_TRUE(store.Put("doomed", m).ok());
  Result<std::shared_ptr<const Matrix>> shared = store.GetShared("doomed");
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(store.Remove("doomed").ok());
  EXPECT_FALSE(store.Contains("doomed"));
  // POSIX keeps mapped pages alive after unlink; the data stays readable.
  EXPECT_EQ((**shared)(63, 39), m(63, 39));
}

TEST_F(StoreFixture, MmapHandoutCopiesShareThePayloadUntilTheFirstWrite) {
  // The shared read-only backing's contract: copies share the mapping; the
  // first non-const access detaches an owned, padded copy; the handout
  // and the file never change.
  BehaviorStore store(dir_.string(), /*memory_budget_bytes=*/4096);
  const Matrix m = TestMatrix(64, 40, 6);
  ASSERT_TRUE(store.Put("shared", m).ok());
  auto store_files = [&] {
    std::map<std::string, std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      std::ifstream in(entry.path(), std::ios::binary);
      files[entry.path().string()].assign(
          std::istreambuf_iterator<char>(in), {});
    }
    return files;
  };
  const auto files_before = store_files();
  Result<std::shared_ptr<const Matrix>> shared = store.GetShared("shared");
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  const Matrix& handout = **shared;
  ASSERT_STREQ(handout.tier(), "mmap");

  Matrix copy = handout;
  EXPECT_STREQ(copy.tier(), "mmap");
  EXPECT_EQ(std::as_const(copy).row_data(0), handout.row_data(0));

  // The first non-const access: an owned buffer, rows on 64-byte
  // boundaries, zero padding, the same logical values.
  const float* detached = copy.row_data(0);
  EXPECT_STREQ(copy.tier(), "mem");
  EXPECT_NE(detached, handout.row_data(0));
  EXPECT_EQ(copy.lda(), PaddedLda(copy.cols()));
  for (size_t r = 0; r < copy.rows(); ++r) {
    const float* row = std::as_const(copy).row_data(r);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(row) % vec::kByteAlign, 0u);
    for (size_t c = 0; c < copy.cols(); ++c) ASSERT_EQ(row[c], m(r, c));
    for (size_t c = copy.cols(); c < copy.lda(); ++c) {
      ASSERT_EQ(row[c], 0.0f);
    }
  }
  copy(0, 0) = m(0, 0) + 1.0f;
  EXPECT_EQ(handout(0, 0), m(0, 0));
  EXPECT_STREQ(handout.tier(), "mmap");
  EXPECT_EQ(store_files(), files_before);

  // Resize within the capacity keeps the buffer; past it, it reallocates,
  // still aligned.
  copy.Resize(10, 20);
  EXPECT_EQ(std::as_const(copy).row_data(0), detached);
  copy.Resize(128, 64);
  EXPECT_NE(std::as_const(copy).row_data(0), detached);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(std::as_const(copy).row_data(0)) %
                vec::kByteAlign,
            0u);
}

TEST_F(StoreFixture, PeekTierPredictsTheTierGetSharedServes) {
  // 64×16 floats: a 4096-byte payload in a 4160-byte file. Around the
  // payload size, the predicted tier must be the tier a cold read takes.
  const std::string key = "unit:peek";
  {
    BehaviorStore writer(dir_.string(), /*memory_budget_bytes=*/1 << 20);
    ASSERT_TRUE(writer.Put(key, TestMatrix(64, 16, 8)).ok());
  }
  const size_t payload = 64 * 16 * sizeof(float);
  const std::vector<std::pair<size_t, BehaviorStore::Tier>> cases = {
      {payload - 1, BehaviorStore::Tier::kMmap},
      {payload, BehaviorStore::Tier::kDisk},
      {payload + 32, BehaviorStore::Tier::kDisk}};
  for (const auto& [budget, tier] : cases) {
    BehaviorStore store(dir_.string(), budget);  // a restart: cold memory
    const BehaviorStore::Tier predicted = store.PeekTier(key);
    BehaviorStore::Tier served = BehaviorStore::Tier::kMiss;
    ASSERT_TRUE(store.GetShared(key, &served).ok());
    EXPECT_EQ(predicted, served) << "budget " << budget;
    EXPECT_EQ(served, tier) << "budget " << budget;
  }
}

TEST_F(StoreFixture, UnitBehaviorsAnOlderKernelStoredAreNotServed) {
  Dataset ds(Vocab::FromChars("ab"), 8);
  Rng rng(43);
  for (int i = 0; i < 40; ++i) {
    std::string text;
    for (int t = 0; t < 8; ++t) text += rng.Bernoulli(0.5) ? 'a' : 'b';
    ds.AddText(text);
  }
  LstmLm model(ds.vocab().size(), 6, 1, 47);
  LstmLmExtractor live("lm", &model);

  // Wrong behaviors where a build before kExtractionKernelVersion kept
  // this model's units: "unit:<model>:<dataset fingerprint>".
  const std::string unversioned = "unit:lm:" + HexU64(DatasetFingerprint(ds));
  EXPECT_NE(UnitBehaviorKey("lm", ds), unversioned);
  {
    BehaviorStore older(dir_.string());
    ASSERT_TRUE(older
                    .Put(unversioned, Matrix(ds.num_records() * ds.ns(),
                                             live.num_units(), 0.5f))
                    .ok());
  }

  InspectRequest request;
  request.models.push_back({.name = "lm"});
  request.hypothesis_sets = {"ab"};
  request.dataset_name = "ab";
  auto inspect = [&](SessionConfig config) {
    config.options.block_size = 16;
    config.options.early_stopping = false;
    InspectionSession session(std::move(config));
    session.catalog().RegisterModel("lm", &live);
    session.catalog().RegisterHypotheses(
        "ab", {std::make_shared<KeywordHypothesis>("ab")});
    session.catalog().RegisterDataset("ab", &ds);
    Result<ResultTable> table = session.Inspect(request);
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    if (session.store() != nullptr) {
      EXPECT_TRUE(session.store()->Contains(UnitBehaviorKey("lm", ds)));
    }
    return table.ok() ? table->SerializeToString() : std::string();
  };
  const std::string storeless = inspect(SessionConfig{});
  SessionConfig stored;
  stored.store_dir = dir_.string();
  EXPECT_EQ(inspect(stored), storeless);
}

TEST_F(StoreFixture, LegacyV1FileIsQuarantinedAndReinspectedIdentically) {
  Dataset ds(Vocab::FromChars("ab"), 8);
  Rng rng(29);
  for (int i = 0; i < 40; ++i) {
    std::string text;
    for (int t = 0; t < 8; ++t) text += rng.Bernoulli(0.5) ? 'a' : 'b';
    ds.AddText(text);
  }
  LstmLm model(ds.vocab().size(), 6, 1, 31);
  LstmLmExtractor live("lm", &model);

  // Hand-write the unit behaviors in the retired v1 framing ("DBST"
  // header, then WriteMatrix) with a valid checksum, where the store
  // looks for the key.
  const std::string key = UnitBehaviorKey("lm", ds);
  std::vector<size_t> records(ds.num_records());
  for (size_t r = 0; r < records.size(); ++r) records[r] = r;
  std::vector<int> units(live.num_units());
  for (size_t u = 0; u < units.size(); ++u) units[u] = static_cast<int>(u);
  const Matrix behaviors = live.ExtractBlock(ds, records, units);
  uint64_t checksum = kFnvOffsetBasis;
  const uint64_t rows = behaviors.rows(), cols = behaviors.cols();
  checksum = Fnv1a(&rows, sizeof(rows), checksum);
  checksum = Fnv1a(&cols, sizeof(cols), checksum);
  for (size_t r = 0; r < behaviors.rows(); ++r) {
    checksum =
        Fnv1a(behaviors.row_data(r), behaviors.cols() * sizeof(float), checksum);
  }
  std::filesystem::create_directories(dir_);
  const std::filesystem::path v1_path =
      dir_ / (HexU64(Fnv1a(key.data(), key.size())) + ".behaviors");
  {
    codec::Writer out;
    out.U32(0x44425354);  // "DBST"
    out.U64(key.size());
    out.Bytes(key);
    out.U64(checksum);
    WriteMatrix(behaviors, &out);
    ASSERT_TRUE(codec::WriteFile(v1_path, out.bytes()).ok());
  }

  std::vector<HypothesisPtr> hyps = {
      std::make_shared<KeywordHypothesis>("ab")};
  std::vector<MeasureFactoryPtr> scores = {
      std::make_shared<CorrelationScore>("pearson")};
  InspectOptions opts;
  opts.block_size = 16;
  opts.early_stopping = false;

  BehaviorStore legacy(dir_.string());
  opts.behavior_store = &legacy;
  const ResultTable from_legacy =
      Inspect({AllUnitsGroup(&live)}, ds, scores, hyps, opts);
  EXPECT_EQ(legacy.quarantines(), 1u);
  EXPECT_FALSE(std::filesystem::exists(v1_path));

  BehaviorStore fresh((dir_ / "fresh").string());
  opts.behavior_store = &fresh;
  const ResultTable from_fresh =
      Inspect({AllUnitsGroup(&live)}, ds, scores, hyps, opts);
  EXPECT_EQ(from_legacy.SerializeToString(), from_fresh.SerializeToString());

  // The next inspection re-materializes in the current layout.
  opts.behavior_store = &legacy;
  RuntimeStats stats;
  const ResultTable again =
      Inspect({AllUnitsGroup(&live)}, ds, scores, hyps, opts, &stats);
  EXPECT_EQ(stats.store_misses, 1u);
  EXPECT_EQ(again.SerializeToString(), from_fresh.SerializeToString());
}

}  // namespace
}  // namespace deepbase
