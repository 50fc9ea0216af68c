// Intra-job parallelism tests: the Measure CloneState/MergeFrom API,
// bit-exact score equality between num_shards=1 and num_shards=8 (integer
// counts merge exactly; the moment-sum measures reduce through a
// canonical pairwise tree, so full sweeps are shard-count-invariant too),
// determinism across repeated sharded runs, early stopping and
// cancellation under sharding, pool sharing between concurrent jobs and
// their shards, and the calibration wave: one shared calibration per
// (model, group, measure, class count), byte-identical to each pair's own,
// and an atomic block 0.
// The whole file is TSan-relevant: scripts/check.sh runs it under
// -DDEEPBASE_TSAN=ON.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/extractors.h"
#include "measures/independent.h"
#include "measures/multivariate_mi.h"
#include "measures/scores.h"
#include "service/inspection_session.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepbase {
namespace {

// Deterministic fake model (pure const Eval — safe for parallel
// extraction): unit 0 tracks "is the symbol 'a'" plus jitter, unit 1 is
// pseudo-random noise, unit 2 the negated indicator, unit 3 tracks 'b'.
class SyntheticExtractor : public Extractor {
 public:
  SyntheticExtractor() : Extractor("synthetic") {}
  size_t num_units() const override { return 4; }

  Matrix ExtractRecord(const Record& rec,
                       const std::vector<int>& unit_ids) const override {
    Matrix out(rec.size(), unit_ids.size());
    for (size_t t = 0; t < rec.size(); ++t) {
      const bool is_a = rec.tokens[t] == "a";
      const float jitter =
          0.01f * static_cast<float>((rec.ids[t] * 31 + t * 7) % 13);
      const float noise =
          static_cast<float>(((rec.ids[t] * 2654435761u + t * 40503u) %
                              1000)) /
              500.0f -
          1.0f;
      float all[4] = {(is_a ? 1.0f : 0.0f) + jitter, noise,
                      (is_a ? -1.0f : 1.0f) + jitter,
                      (is_a ? 0.0f : 1.0f) - jitter};
      for (size_t j = 0; j < unit_ids.size(); ++j) {
        out(t, j) = all[unit_ids[j]];
      }
    }
    return out;
  }
};

class TokenHypothesis : public HypothesisFn {
 public:
  explicit TokenHypothesis(std::string token)
      : HypothesisFn("is_" + token), token_(std::move(token)) {}
  std::vector<float> Eval(const Record& rec) const override {
    std::vector<float> out(rec.size(), 0.0f);
    for (size_t i = 0; i < rec.size(); ++i) {
      if (rec.tokens[i] == token_) out[i] = 1.0f;
    }
    return out;
  }

 private:
  std::string token_;
};

Dataset MakeAbDataset(size_t n_records, size_t ns = 8) {
  Dataset ds(Vocab::FromChars("ab"), ns);
  Rng rng(99);
  for (size_t i = 0; i < n_records; ++i) {
    std::string text;
    for (size_t t = 0; t < ns; ++t) {
      text += rng.Bernoulli(0.4) ? 'a' : 'b';
    }
    ds.AddText(text);
  }
  return ds;
}

std::vector<HypothesisPtr> MakeHypotheses() {
  return {std::make_shared<TokenHypothesis>("a"),
          std::make_shared<TokenHypothesis>("b")};
}

// Two unit groups: "all" takes the zero-copy identity path, "front" the
// gather path.
std::vector<ModelSpec> MakeModels(const Extractor* ex) {
  ModelSpec spec = AllUnitsGroup(ex);
  UnitGroupSpec front;
  front.group_id = "front";
  front.unit_ids = {0, 1};
  spec.groups.push_back(front);
  return {spec};
}

void ExpectScoreEq(float x, float y, bool exact, float tol,
                   const std::string& context) {
  if (std::isnan(x) && std::isnan(y)) return;
  if (exact) {
    EXPECT_EQ(x, y) << context;
  } else {
    EXPECT_NEAR(x, y, tol) << context;
  }
}

// Bit-exact equality for every measure. Integer-count merges (jaccard,
// MI) and sequential-lane measures (Spearman's sample buffer, the SGD
// measures) were always exact; the moment-sum measures (pearson,
// diff_means) are now kBitExact through the pairwise-tree merge, so a
// full sweep's scores never depend on the shard count.
void ExpectTablesEqual(const ResultTable& a, const ResultTable& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const ResultRow& ra = a.row(i);
    const ResultRow& rb = b.row(i);
    ASSERT_EQ(ra.measure, rb.measure);
    ASSERT_EQ(ra.hypothesis, rb.hypothesis);
    ASSERT_EQ(ra.group_id, rb.group_id);
    ASSERT_EQ(ra.unit, rb.unit);
    const std::string context = ra.measure + "/" + ra.hypothesis + "/" +
                                ra.group_id + "/u" + std::to_string(ra.unit);
    ExpectScoreEq(ra.unit_score, rb.unit_score, /*exact=*/true, 0.0f,
                  context);
    ExpectScoreEq(ra.group_score, rb.group_score, /*exact=*/true, 0.0f,
                  context);
  }
}

std::vector<MeasureFactoryPtr> AllMeasures() {
  std::vector<MeasureFactoryPtr> measures = StandardScores();
  measures.push_back(std::make_shared<MultivariateMiScore>());
  return measures;
}

InspectOptions BaseOptions() {
  InspectOptions options;
  options.block_size = 8;  // records per block -> 12 blocks of 64 rows
  options.early_stopping = false;
  options.passes = 1;
  return options;
}

// ------------------------------------------------------ merge API units

TEST(MeasureMergeApiTest, PearsonMergesBitExactly) {
  Rng rng(7);
  Matrix b0 = Matrix::RandomNormal(40, 3, &rng);
  Matrix b1 = Matrix::RandomNormal(40, 3, &rng);
  std::vector<float> h0(40), h1(40);
  for (auto& v : h0) v = rng.Bernoulli(0.4) ? 1.0f : 0.0f;
  for (auto& v : h1) v = rng.Bernoulli(0.4) ? 1.0f : 0.0f;

  PearsonMeasure seq(3);
  seq.ProcessBlock(b0, h0);
  seq.ProcessBlock(b1, h1);

  PearsonMeasure primary(3);
  primary.ProcessBlock(b0, h0);
  std::unique_ptr<Measure> replica = primary.CloneState();
  ASSERT_NE(replica, nullptr);
  replica->ProcessBlock(b1, h1);
  primary.MergeFrom(*replica);

  // Per-block entries reduce through the canonical pairwise tree in
  // Scores(), so the merged replica is bit-identical to sequential
  // accumulation — not merely tolerance-equal.
  EXPECT_EQ(primary.merge_exactness(), MergeExactness::kBitExact);
  const MeasureScores s = seq.Scores(), p = primary.Scores();
  for (size_t u = 0; u < 3; ++u) {
    EXPECT_EQ(s.unit_scores[u], p.unit_scores[u]);
  }
}

TEST(MeasureMergeApiTest, JaccardMergesExactlyWithSharedCalibration) {
  Rng rng(11);
  Matrix b0 = Matrix::RandomNormal(64, 4, &rng);
  Matrix b1 = Matrix::RandomNormal(64, 4, &rng);
  Matrix b2 = Matrix::RandomNormal(64, 4, &rng);
  std::vector<float> h0(64), h1(64), h2(64);
  for (auto& v : h0) v = rng.Bernoulli(0.3) ? 1.0f : 0.0f;
  for (auto& v : h1) v = rng.Bernoulli(0.3) ? 1.0f : 0.0f;
  for (auto& v : h2) v = rng.Bernoulli(0.3) ? 1.0f : 0.0f;

  JaccardMeasure seq(4);
  seq.ProcessBlock(b0, h0);
  seq.ProcessBlock(b1, h1);
  seq.ProcessBlock(b2, h2);

  // Calibrate on the first block, then shard the rest across two replicas.
  JaccardMeasure primary(4);
  primary.ProcessBlock(b0, h0);
  std::unique_ptr<Measure> r1 = primary.CloneState();
  std::unique_ptr<Measure> r2 = primary.CloneState();
  r1->ProcessBlock(b1, h1);
  r2->ProcessBlock(b2, h2);
  primary.MergeFrom(*r1);
  primary.MergeFrom(*r2);

  EXPECT_EQ(primary.merge_exactness(), MergeExactness::kExact);
  const MeasureScores s = seq.Scores(), p = primary.Scores();
  for (size_t u = 0; u < 4; ++u) {
    EXPECT_EQ(s.unit_scores[u], p.unit_scores[u]);
  }
}

TEST(MeasureMergeApiTest, MutualInfoAndMultivariateMiMergeExactly) {
  Rng rng(13);
  Matrix b0 = Matrix::RandomNormal(64, 4, &rng);
  Matrix b1 = Matrix::RandomNormal(64, 4, &rng);
  std::vector<float> h0(64), h1(64);
  for (auto& v : h0) v = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  for (auto& v : h1) v = rng.Bernoulli(0.5) ? 1.0f : 0.0f;

  MutualInfoMeasure mi_seq(4, 2);
  mi_seq.ProcessBlock(b0, h0);
  mi_seq.ProcessBlock(b1, h1);
  MutualInfoMeasure mi(4, 2);
  mi.ProcessBlock(b0, h0);
  std::unique_ptr<Measure> mi_rep = mi.CloneState();
  mi_rep->ProcessBlock(b1, h1);
  mi.MergeFrom(*mi_rep);
  for (size_t u = 0; u < 4; ++u) {
    EXPECT_EQ(mi_seq.Scores().unit_scores[u], mi.Scores().unit_scores[u]);
  }

  MultivariateMiMeasure mv_seq(4, 2);
  mv_seq.ProcessBlock(b0, h0);
  mv_seq.ProcessBlock(b1, h1);
  MultivariateMiMeasure mv(4, 2);
  mv.ProcessBlock(b0, h0);
  std::unique_ptr<Measure> mv_rep = mv.CloneState();
  mv_rep->ProcessBlock(b1, h1);
  mv.MergeFrom(*mv_rep);
  EXPECT_EQ(mv_seq.Scores().group_score, mv.Scores().group_score);
  for (size_t u = 0; u < 4; ++u) {
    EXPECT_EQ(mv_seq.Scores().unit_scores[u], mv.Scores().unit_scores[u]);
  }
}

TEST(MeasureMergeApiTest, SgdMeasuresDeclineMerging) {
  LogRegOptions lr_opts;
  BinaryLogRegMeasure logreg(4, lr_opts);
  EXPECT_EQ(logreg.merge_exactness(), MergeExactness::kNone);
  EXPECT_EQ(logreg.CloneState(), nullptr);
}

// ------------------------------------------- shard-count score equality

TEST(ParallelEngineTest, MaterializedShardsMatchSequential) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(96);
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();

  InspectOptions seq_opts = BaseOptions();
  seq_opts.streaming = false;
  seq_opts.num_shards = 1;
  ResultTable seq = Inspect(models, ds, measures, hyps, seq_opts);

  InspectOptions par_opts = seq_opts;
  par_opts.num_shards = 8;
  RuntimeStats stats;
  ResultTable par = Inspect(models, ds, measures, hyps, par_opts, &stats);

  EXPECT_EQ(stats.num_shards, 8u);
  EXPECT_GE(stats.shards.size(), 8u);
  ExpectTablesEqual(seq, par);
}

TEST(ParallelEngineTest, StreamingShardsMatchSequential) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(96);
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();

  InspectOptions seq_opts = BaseOptions();
  seq_opts.streaming = true;
  seq_opts.num_shards = 1;
  ResultTable seq = Inspect(models, ds, measures, hyps, seq_opts);

  InspectOptions par_opts = seq_opts;
  par_opts.num_shards = 8;
  ResultTable par = Inspect(models, ds, measures, hyps, par_opts);

  ExpectTablesEqual(seq, par);
}

TEST(ParallelEngineTest, MultiPassMaterializedShardsMatchSequential) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(64);
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();

  InspectOptions seq_opts = BaseOptions();
  seq_opts.streaming = false;
  seq_opts.passes = 2;
  seq_opts.num_shards = 1;
  ResultTable seq = Inspect(models, ds, measures, hyps, seq_opts);

  InspectOptions par_opts = seq_opts;
  par_opts.num_shards = 4;
  ResultTable par = Inspect(models, ds, measures, hyps, par_opts);

  ExpectTablesEqual(seq, par);
}

TEST(ParallelEngineTest, ShardedRunsAreDeterministic) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(96);
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();

  InspectOptions options = BaseOptions();
  options.streaming = true;
  options.early_stopping = true;  // flags exercised, determinism must hold
  options.num_shards = 4;
  ResultTable run1 = Inspect(models, ds, measures, hyps, options);
  ResultTable run2 = Inspect(models, ds, measures, hyps, options);

  // Bit-for-bit: same seed + same shard count, any thread interleaving.
  ASSERT_EQ(run1.size(), run2.size());
  for (size_t i = 0; i < run1.size(); ++i) {
    const ResultRow& a = run1.row(i);
    const ResultRow& b = run2.row(i);
    EXPECT_EQ(a.measure, b.measure);
    EXPECT_EQ(a.hypothesis, b.hypothesis);
    EXPECT_EQ(a.unit, b.unit);
    ExpectScoreEq(a.unit_score, b.unit_score, /*exact=*/true, 0, a.measure);
    ExpectScoreEq(a.group_score, b.group_score, /*exact=*/true, 0, a.measure);
  }
}

// ------------------------------------------------- early stop + cancel

TEST(ParallelEngineTest, EarlyStoppingConvergesUnderSharding) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(512);  // 32 blocks of 16 records (128 rows)
  std::vector<ModelSpec> models = {AllUnitsGroup(&ex)};
  std::vector<HypothesisPtr> hyps = {std::make_shared<TokenHypothesis>("a")};
  std::vector<MeasureFactoryPtr> measures = {
      std::make_shared<CorrelationScore>("pearson")};

  InspectOptions options;
  options.block_size = 16;
  options.streaming = true;
  options.early_stopping = true;
  // Each shard's replica must converge on its own slice (~1/4 of the
  // rows), so the threshold is scaled for per-shard sample sizes.
  options.corr_epsilon = 0.1;
  options.num_shards = 4;
  RuntimeStats stats;
  Inspect(models, ds, measures, hyps, options, &stats);
  EXPECT_TRUE(stats.all_converged);
  // Early stopping actually saved extraction work.
  EXPECT_LT(stats.blocks_processed, 32u);
  EXPECT_GT(stats.blocks_processed, 0u);
}

TEST(ParallelEngineTest, PreCancelledShardedJobStopsImmediately) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(96);
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();

  std::atomic<bool> cancel{true};
  InspectOptions options = BaseOptions();
  options.streaming = false;
  options.num_shards = 8;
  options.cancel = &cancel;
  RuntimeStats stats;
  Inspect(models, ds, measures, hyps, options, &stats);
  EXPECT_TRUE(stats.cancelled);
  EXPECT_EQ(stats.blocks_processed, 0u);
}

TEST(ParallelEngineTest, MidRunCancelStopsShardedJob) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(256);
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();

  std::atomic<bool> cancel{false};
  InspectOptions options = BaseOptions();
  options.streaming = true;
  options.passes = 64;  // far more work than the cancel allows
  options.num_shards = 4;
  options.cancel = &cancel;
  RuntimeStats stats;
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancel.store(true, std::memory_order_relaxed);
  });
  Inspect(models, ds, measures, hyps, options, &stats);
  canceller.join();
  EXPECT_TRUE(stats.cancelled);
}

// -------------------------------------------------- pool / session wiring

TEST(ParallelEngineTest, ConcurrentJobsShareThePoolWithoutDeadlock) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(96);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();

  SessionConfig config;
  config.num_threads = 2;  // fewer threads than jobs: fan-out must not hang
  config.hypothesis_cache_values = 0;
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("synthetic", &ex);
  session.catalog().RegisterDataset("ab", &ds);

  InspectRequest request;
  request.models.push_back({.name = "synthetic"});
  request.hypotheses = hyps;
  request.dataset_name = "ab";
  request.measures = {std::make_shared<CorrelationScore>("pearson")};
  InspectOptions options = BaseOptions();
  options.streaming = false;
  options.num_shards = 3;
  request.options = options;

  // Sequential reference.
  InspectOptions seq_options = options;
  seq_options.num_shards = 1;
  InspectRequest seq_request = request;
  seq_request.options = seq_options;
  Result<ResultTable> reference = session.Inspect(seq_request);
  ASSERT_TRUE(reference.ok());

  // Three sharded jobs race on a two-thread pool; each job's block loop
  // fans out over the same pool its job body runs on.
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back(session.Submit(request));
  for (auto& job : jobs) {
    const Result<ResultTable>& result = job.Wait();
    ASSERT_TRUE(result.ok());
    ExpectTablesEqual(*reference, *result);
    EXPECT_EQ(job.Stats().num_shards, 3u);
  }
}

TEST(ThreadPoolTest, NestedParallelForFromPoolTasksDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> tasks;
  for (int j = 0; j < 4; ++j) {
    tasks.push_back(pool.Submit([&pool, &total] {
      pool.ParallelFor(16, [&total](size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }));
  }
  for (auto& t : tasks) t.get();
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelEngineTest, PerShardStatsCoverTheWork) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(96);
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();

  InspectOptions options = BaseOptions();
  options.streaming = false;
  options.num_shards = 4;
  RuntimeStats stats;
  Inspect(models, ds, measures, hyps, options, &stats);

  ASSERT_EQ(stats.num_shards, 4u);
  // 4 shard lanes + 1 sequential lane (SGD measures present).
  ASSERT_EQ(stats.shards.size(), 5u);
  size_t shard_blocks = 0;
  double lane_unit_s = 0, lane_insp_s = 0;
  for (size_t s = 0; s < 4; ++s) {
    shard_blocks += stats.shards[s].blocks_processed;
    lane_unit_s += stats.shards[s].unit_extraction_s;
    lane_insp_s += stats.shards[s].inspection_s;
  }
  EXPECT_EQ(shard_blocks, 12u);  // 96 records / 8 per block
  EXPECT_EQ(stats.shards[4].blocks_processed, 12u);  // sequential lane
  EXPECT_EQ(stats.blocks_processed, 12u);
  EXPECT_EQ(stats.records_processed, 96u);
  // Phase totals are the lane sums (plus the sequential lane's inspection).
  EXPECT_NEAR(stats.unit_extraction_s, lane_unit_s, 1e-9);
  EXPECT_GE(stats.inspection_s, lane_insp_s);
}

// ------------------------------------------------ the one block loop

// Block accounting follows one rule in every mode — a block counts once
// per pass, on the first lane that inspects it — so a finished job polls
// exactly its blocks_processed, and the lane layout is one lane at S = 1,
// S lanes (+1 sequential lane when needed) above.
TEST(ParallelEngineTest, FinalProgressEqualsBlocksProcessedInEveryMode) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(384);  // 24 blocks of 16 records
  SessionConfig config;
  config.num_threads = 2;
  config.hypothesis_cache_values = 0;
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("synthetic", &ex);
  session.catalog().RegisterDataset("ab", &ds);

  struct Mode {
    bool streaming;
    size_t shards;
    MeasureFactoryPtr measure;
    size_t lanes;
  };
  const MeasureFactoryPtr pearson =
      std::make_shared<CorrelationScore>("pearson");
  const MeasureFactoryPtr logreg = std::make_shared<LogRegressionScore>("L1");
  const std::vector<Mode> modes = {
      {true, 1, pearson, 1},  {true, 4, pearson, 4},
      {false, 1, pearson, 1}, {false, 4, pearson, 4},
      {true, 1, logreg, 1},   {true, 4, logreg, 5},
      {false, 1, logreg, 1},
      // Only sequential-lane work: the shard lanes have nothing to inspect,
      // so every block is first inspected on the sequential lane.
      {false, 4, logreg, 5},
  };
  for (const Mode& mode : modes) {
    const std::string context =
        std::string(mode.streaming ? "streaming" : "materialized") +
        " S=" + std::to_string(mode.shards) + " " + mode.measure->name();
    InspectRequest request;
    request.models.push_back({.name = "synthetic"});
    request.hypotheses = MakeHypotheses();
    request.dataset_name = "ab";
    request.measures = {mode.measure};
    InspectOptions options;
    options.block_size = 16;
    options.streaming = mode.streaming;
    options.num_shards = mode.shards;
    options.early_stopping = true;
    options.model_merging = false;
    request.options = options;

    JobHandle job = session.Submit(request);
    ASSERT_TRUE(job.Wait().ok()) << context;
    JobProgress progress;
    EXPECT_EQ(job.Poll(&progress), JobStatus::kDone) << context;
    const RuntimeStats stats = job.Stats();
    EXPECT_GT(stats.blocks_processed, 0u) << context;
    EXPECT_EQ(progress.blocks_completed, stats.blocks_processed) << context;
    EXPECT_EQ(progress.blocks_total, 24u) << context;
    EXPECT_EQ(stats.blocks_total_planned, 24u) << context;
    EXPECT_EQ(stats.shards.size(), mode.lanes) << context;
  }
}


// ------------------------------------------------- shared calibration

// Jaccard, categorical mutual information and multivariate MI calibrate
// from the units of block 0 alone, so the pipeline calibrates once per
// (model, group, measure, class count) and the job's other pairs with that
// key adopt the leader's CloneState(). The calibration wave deals its two
// rounds — the pairs that calibrate, then those that adopt — over every
// shard lane.

// 20 units: one 16-unit SIMD panel and a 4-unit tail. Unit u mixes the
// "is it 'a'" indicator with a hash of (symbol, position, unit), so every
// unit has its own quantiles.
class WideExtractor : public Extractor {
 public:
  WideExtractor() : Extractor("wide") {}
  size_t num_units() const override { return 20; }

  Matrix ExtractRecord(const Record& rec,
                       const std::vector<int>& unit_ids) const override {
    Matrix out(rec.size(), unit_ids.size());
    for (size_t t = 0; t < rec.size(); ++t) {
      const bool is_a = rec.tokens[t] == "a";
      for (size_t j = 0; j < unit_ids.size(); ++j) {
        const uint32_t h = static_cast<uint32_t>(rec.ids[t]) * 2654435761u +
                           static_cast<uint32_t>(t) * 40503u +
                           static_cast<uint32_t>(unit_ids[j]) * 97u;
        const float noise = static_cast<float>(h % 1000) / 500.0f - 1.0f;
        out(t, j) = (unit_ids[j] % 3 == 0 && is_a ? 1.0f : 0.0f) + noise;
      }
    }
    return out;
  }
};

// Class of symbol t: (position + shift + [symbol is 'a']) mod classes, or
// for classes == 0 a numeric behavior.
HypothesisPtr PositionHypothesis(int classes, int shift) {
  return std::make_shared<FunctionHypothesis>(
      "pos" + std::to_string(classes) + "_" + std::to_string(shift),
      [classes, shift](const Record& rec) {
        std::vector<float> out(rec.size());
        for (size_t t = 0; t < rec.size(); ++t) {
          const int a = rec.tokens[t] == "a" ? 1 : 0;
          const int v = static_cast<int>(t) + shift + a;
          out[t] = classes == 0 ? 0.25f * static_cast<float>(v * v % 11)
                                : static_cast<float>(v % classes);
        }
        return out;
      },
      classes);
}

// One factory under another name, so a request can carry two
// configurations of one measure.
class RenamedScore : public MeasureFactory {
 public:
  RenamedScore(std::string name, MeasureFactoryPtr inner)
      : MeasureFactory(std::move(name)), inner_(std::move(inner)) {}
  bool is_joint() const override { return inner_->is_joint(); }
  std::unique_ptr<Measure> Create(size_t num_units,
                                  int num_classes) const override {
    return inner_->Create(num_units, num_classes);
  }

 private:
  MeasureFactoryPtr inner_;
};

TEST(SharedCalibrationTest, EveryPairEqualsItsSoloRunByteForByte) {
  WideExtractor ex;
  Dataset ds = MakeAbDataset(96);
  ModelSpec model = AllUnitsGroup(&ex);  // identity path
  // Gather path: 18 units in descending order, a panel and a tail.
  UnitGroupSpec gathered;
  gathered.group_id = "gathered";
  for (int u = 19; u >= 0; --u) {
    if (u != 4 && u != 11) gathered.unit_ids.push_back(u);
  }
  model.groups.push_back(gathered);
  const std::vector<ModelSpec> models = {model};
  // Two hypotheses per class count: 2, 3 and 0 (numeric).
  const std::vector<HypothesisPtr> hyps = {
      PositionHypothesis(2, 0), PositionHypothesis(3, 0),
      PositionHypothesis(0, 0), PositionHypothesis(2, 1),
      PositionHypothesis(3, 1), PositionHypothesis(0, 1)};
  const std::vector<MeasureFactoryPtr> measures = {
      std::make_shared<JaccardScore>(),
      std::make_shared<MutualInfoScore>(4),
      std::make_shared<RenamedScore>("mutual_info_16",
                                     std::make_shared<MutualInfoScore>(16)),
      std::make_shared<MultivariateMiScore>(),
      std::make_shared<CorrelationScore>("pearson")};

  ThreadPool pool(4);
  for (size_t shards : {1u, 3u, 8u}) {
    for (bool streaming : {false, true}) {
      for (bool early_stopping : {false, true}) {
        const std::string context =
            "S=" + std::to_string(shards) +
            (streaming ? " streaming" : " materialized") +
            (early_stopping ? " early stopping" : "");
        InspectOptions options = BaseOptions();
        options.num_shards = shards;
        options.streaming = streaming;
        options.early_stopping = early_stopping;
        options.pool = &pool;
        const ResultTable all = Inspect(models, ds, measures, hyps, options);
        for (const MeasureFactoryPtr& measure : measures) {
          for (const HypothesisPtr& hyp : hyps) {
            // Alone, each pair is the only one of its key and calibrates
            // itself.
            const ResultTable solo =
                Inspect(models, ds, {measure}, {hyp}, options);
            const ResultTable rows = all.Filter([&](const ResultRow& row) {
              return row.measure == measure->name() &&
                     row.hypothesis == hyp->name();
            });
            ASSERT_FALSE(rows.empty());
            EXPECT_TRUE(rows.SerializeToString() == solo.SerializeToString())
                << context << " " << measure->name() << "/" << hyp->name();
          }
        }
      }
    }
  }
}

// What the counted-calibration measures of one factory share: whether
// they declare that their calibration reads only the units, how many
// calibrations they made, and a hook the first block fed to any of them
// runs first.
struct CalibrationProbe {
  bool shares = false;
  std::atomic<int> calibrations{0};
  std::function<void()> on_first_block;
  std::atomic<bool> fired{false};
};

// A first-block calibration that records each unit's value in the block's
// first row; later rows count as hits where a unit exceeds it and the
// hypothesis is on. The group score is the number of rows consumed.
class CountedCalibrationMeasure : public Measure {
 public:
  CountedCalibrationMeasure(size_t num_units, CalibrationProbe* probe)
      : num_units_(num_units), probe_(probe), hits_(num_units, 0) {}

  void ProcessBlock(const Matrix& units, std::span<const float> hyp) override {
    if (probe_->on_first_block && !probe_->fired.exchange(true)) {
      probe_->on_first_block();
    }
    if (units.rows() == 0) return;
    if (thresholds_.empty()) {
      thresholds_.assign(units.row_data(0), units.row_data(0) + num_units_);
      probe_->calibrations.fetch_add(1, std::memory_order_relaxed);
    }
    for (size_t r = 0; r < units.rows(); ++r) {
      for (size_t u = 0; u < num_units_; ++u) {
        hits_[u] += units.row_data(r)[u] > thresholds_[u] && hyp[r] >= 0.5f;
      }
    }
    rows_ += units.rows();
  }
  MeasureScores Scores() const override {
    MeasureScores out;
    out.group_score = static_cast<float>(rows_);
    return out;
  }
  double ErrorEstimate() const override {
    return std::numeric_limits<double>::infinity();
  }
  bool SupportsConvergence() const override { return false; }
  MergeExactness merge_exactness() const override {
    return MergeExactness::kExact;
  }
  std::unique_ptr<Measure> CloneState() const override {
    auto clone =
        std::make_unique<CountedCalibrationMeasure>(num_units_, probe_);
    clone->thresholds_ = thresholds_;
    return clone;
  }
  void MergeFrom(const Measure& other) override {
    const auto& o =
        measure_internal::MergePeer<CountedCalibrationMeasure>(other);
    for (size_t u = 0; u < num_units_; ++u) hits_[u] += o.hits_[u];
    rows_ += o.rows_;
  }
  bool calibration_reads_units_only() const override {
    return probe_->shares;
  }

 private:
  size_t num_units_;
  CalibrationProbe* probe_;
  std::vector<float> thresholds_;
  std::vector<size_t> hits_;
  size_t rows_ = 0;
};

class CountedCalibrationScore : public MeasureFactory {
 public:
  CountedCalibrationScore(std::string name, bool shares)
      : MeasureFactory(std::move(name)) {
    probe.shares = shares;
  }
  bool is_joint() const override { return true; }
  std::unique_ptr<Measure> Create(size_t num_units,
                                  int num_classes) const override {
    (void)num_classes;
    return std::make_unique<CountedCalibrationMeasure>(num_units, &probe);
  }

  mutable CalibrationProbe probe;
};

TEST(SharedCalibrationTest, OneCalibrationPerModelGroupMeasureAndClassCount) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(96);
  // Two models (one extractor, listed twice), two groups each.
  const std::vector<ModelSpec> models = {MakeModels(&ex)[0],
                                         MakeModels(&ex)[0]};
  // Two class counts, two hypotheses each.
  const std::vector<HypothesisPtr> hyps = {
      PositionHypothesis(2, 0), PositionHypothesis(3, 0),
      PositionHypothesis(2, 1), PositionHypothesis(3, 1)};
  ThreadPool pool(4);
  for (size_t shards : {1u, 3u, 8u}) {
    for (bool streaming : {false, true}) {
      const std::string context = "S=" + std::to_string(shards) +
                                  (streaming ? " streaming" : "");
      auto sharing = std::make_shared<CountedCalibrationScore>("shares", true);
      auto own = std::make_shared<CountedCalibrationScore>("own", false);
      InspectOptions options = BaseOptions();
      options.num_shards = shards;
      options.streaming = streaming;
      options.passes = 2;  // a later pass's block 0 calibrates nothing
      options.pool = &pool;
      const ResultTable table =
          Inspect(models, ds, {sharing, own}, hyps, options);
      // 2 models × 2 groups × 2 class counts.
      EXPECT_EQ(sharing->probe.calibrations.load(), 8) << context;
      // One per pair: 2 models × 2 groups × 4 hypotheses.
      EXPECT_EQ(own->probe.calibrations.load(), 16) << context;
      // Every pair consumed every row of both passes.
      ASSERT_EQ(table.size(), 32u) << context;
      for (const ResultRow& row : table.rows()) {
        EXPECT_EQ(row.group_score, 2.0f * 96 * 8) << context;
      }
    }
  }
}

// Block 0 is atomic: when the time budget or the deadline passes, or a
// cancel arrives, while the calibration wave runs, every pair still
// consumes block 0 (the checks run once, before the wave, never between
// its rounds), and no pair consumes another block.
TEST(SharedCalibrationTest, CalibrationWaveIsAtomicUnderStops) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(96);
  const std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps;
  for (int shift = 0; shift < 4; ++shift) {
    hyps.push_back(PositionHypothesis(2, shift));
  }
  constexpr auto kLimit = std::chrono::milliseconds(300);
  const auto past_limit = [kLimit] {
    std::this_thread::sleep_for(kLimit + std::chrono::milliseconds(100));
  };
  ThreadPool pool(4);
  for (const char* stop : {"cancel", "budget", "deadline"}) {
    for (size_t shards : {1u, 3u, 8u}) {
      const std::string context =
          std::string(stop) + " S=" + std::to_string(shards);
      std::atomic<bool> cancel{false};
      auto score = std::make_shared<CountedCalibrationScore>("stops", true);
      InspectOptions options = BaseOptions();
      options.streaming = false;
      options.num_shards = shards;
      options.pool = &pool;
      options.cancel = &cancel;
      if (std::string(stop) == "cancel") {
        score->probe.on_first_block = [&cancel] { cancel.store(true); };
      } else if (std::string(stop) == "budget") {
        options.time_budget_s =
            std::chrono::duration<double>(kLimit).count();
        score->probe.on_first_block = past_limit;
      } else {
        options.deadline = std::chrono::steady_clock::now() + kLimit;
        score->probe.on_first_block = past_limit;
      }
      RuntimeStats stats;
      const ResultTable table =
          Inspect(models, ds, {score}, hyps, options, &stats);
      ASSERT_TRUE(score->probe.fired.load()) << context;
      EXPECT_EQ(stats.blocks_processed, 1u) << context;
      ASSERT_EQ(table.size(), 8u) << context;  // 2 groups × 4 hypotheses
      for (const ResultRow& row : table.rows()) {
        EXPECT_EQ(row.group_score, 8.0f * 8) << context << " " << row.group_id
                                             << "/" << row.hypothesis;
      }
    }
  }
}

}  // namespace
}  // namespace deepbase
