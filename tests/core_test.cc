// Unit tests for the core engine: extraction plumbing, the hypothesis
// tier, result-table operations, optimization-mode score equivalence,
// early stopping, the INSPECT query builder, and verification.

#include <gtest/gtest.h>

#include <cmath>

#include "core/behavior_store.h"
#include "core/engine.h"
#include "core/extractors.h"
#include "core/inspect_query.h"
#include "core/result_table.h"
#include "core/verification.h"
#include "hypothesis/hypothesis.h"
#include "measures/scores.h"

namespace deepbase {
namespace {

// Deterministic fake model: unit 0 tracks "is the symbol 'a'" (plus small
// deterministic jitter), unit 1 is pseudo-random noise, unit 2 is the
// negated indicator. Gives the engine planted ground truth without
// training anything.
class SyntheticExtractor : public Extractor {
 public:
  SyntheticExtractor() : Extractor("synthetic") {}
  size_t num_units() const override { return 3; }

  Matrix ExtractRecord(const Record& rec,
                       const std::vector<int>& unit_ids) const override {
    Matrix out(rec.size(), unit_ids.size());
    for (size_t t = 0; t < rec.size(); ++t) {
      const bool is_a = rec.tokens[t] == "a";
      // Deterministic jitter from the position/id so values aren't constant.
      const float jitter =
          0.01f * static_cast<float>((rec.ids[t] * 31 + t * 7) % 13);
      const float noise =
          static_cast<float>(((rec.ids[t] * 2654435761u + t * 40503u) %
                              1000)) /
              500.0f -
          1.0f;
      float all[3] = {(is_a ? 1.0f : 0.0f) + jitter, noise,
                      (is_a ? -1.0f : 1.0f) + jitter};
      for (size_t j = 0; j < unit_ids.size(); ++j) {
        out(t, j) = all[unit_ids[j]];
      }
    }
    return out;
  }
};

// Counts Eval calls so cache behaviour is observable.
class CountingHypothesis : public HypothesisFn {
 public:
  explicit CountingHypothesis(std::string token)
      : HypothesisFn("is_" + token), token_(std::move(token)) {}
  std::vector<float> Eval(const Record& rec) const override {
    ++eval_calls;
    std::vector<float> out(rec.size(), 0.0f);
    for (size_t i = 0; i < rec.size(); ++i) {
      if (rec.tokens[i] == token_) out[i] = 1.0f;
    }
    return out;
  }
  mutable size_t eval_calls = 0;

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

TEST(ExtractorTest, BlockStacksRecordsInOrder) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(5);
  Matrix block = ex.ExtractBlock(ds, {2, 0}, {0, 1, 2});
  EXPECT_EQ(block.rows(), 2 * ds.ns());
  EXPECT_EQ(block.cols(), 3u);
  Matrix rec2 = ex.ExtractRecord(ds.record(2), {0, 1, 2});
  EXPECT_LT(MaxAbsDiff(block.RowSlice(0, ds.ns()), rec2), 1e-6f);
}

TEST(PrecomputedExtractorTest, ServesStoredBehaviors) {
  Dataset ds = MakeAbDataset(4, 6);
  SyntheticExtractor real;
  std::vector<size_t> all_idx = {0, 1, 2, 3};
  Matrix behaviors = real.ExtractBlock(ds, all_idx, {0, 1, 2});
  PrecomputedExtractor pre("pre", behaviors, ds.ns());
  Matrix sub = pre.ExtractBlock(ds, {3, 1}, {2, 0});
  Matrix expect3 = real.ExtractRecord(ds.record(3), {2, 0});
  EXPECT_LT(MaxAbsDiff(sub.RowSlice(0, ds.ns()), expect3), 1e-6f);
}

TEST(ResultTableTest, FilterTopAndLookup) {
  ResultTable t;
  for (int u = 0; u < 5; ++u) {
    ResultRow row;
    row.model_id = "m";
    row.group_id = "all";
    row.measure = "corr";
    row.hypothesis = "h";
    row.unit = u;
    row.unit_score = 0.1f * static_cast<float>(u);
    t.Add(row);
  }
  EXPECT_EQ(t.size(), 5u);
  ResultTable top = t.TopUnits(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top.row(0).unit, 4);
  auto above = t.UnitsAbove("corr", "h", 0.25f);
  EXPECT_EQ(above, (std::vector<int>{3, 4}));
  EXPECT_FLOAT_EQ(t.UnitScore("corr", "h", 3), 0.3f);
  EXPECT_TRUE(std::isnan(t.UnitScore("corr", "nope", 3)));
  auto counts = t.CountHighScorers("corr", 0.25f);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].second, 2u);
}

TEST(ResultTableTest, CsvExportRoundTripsValuesAndNulls) {
  ResultTable t;
  ResultRow unit_row;
  unit_row.model_id = "m";
  unit_row.group_id = "all";
  unit_row.measure = "corr";
  unit_row.hypothesis = "h,with comma";
  unit_row.unit = 3;
  unit_row.unit_score = 0.5f;
  t.Add(unit_row);
  ResultRow group_row;
  group_row.model_id = "m";
  group_row.group_id = "all";
  group_row.measure = "logreg";
  group_row.hypothesis = "h";
  group_row.group_score = 0.75f;
  t.Add(group_row);
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("model,group,measure,hypothesis,unit,unit_score,"
                     "group_score\n"),
            std::string::npos);
  EXPECT_NE(csv.find("m,all,corr,\"h,with comma\",3,0.5"),
            std::string::npos);
  // The group row has no unit and no unit score: empty fields.
  EXPECT_NE(csv.find("m,all,logreg,h,,,0.75"), std::string::npos);
}

class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture() : dataset_(MakeAbDataset(200)) {}

  ResultTable Run(const InspectOptions& opts, RuntimeStats* stats = nullptr) {
    std::vector<HypothesisPtr> hyps = {
        std::make_shared<CountingHypothesis>("a")};
    std::vector<MeasureFactoryPtr> scores = {
        std::make_shared<CorrelationScore>("pearson")};
    return Inspect({AllUnitsGroup(&extractor_)}, dataset_, scores, hyps,
                   opts, stats);
  }

  SyntheticExtractor extractor_;
  Dataset dataset_;
};

TEST_F(EngineFixture, FindsPlantedDetectorUnit) {
  InspectOptions opts;
  opts.block_size = 32;
  ResultTable results = Run(opts);
  const float r0 = results.UnitScore("correlation_pearson", "is_a", 0);
  const float r1 = results.UnitScore("correlation_pearson", "is_a", 1);
  const float r2 = results.UnitScore("correlation_pearson", "is_a", 2);
  EXPECT_GT(r0, 0.95f);
  EXPECT_LT(std::fabs(r1), 0.3f);
  EXPECT_LT(r2, -0.95f);
}

TEST_F(EngineFixture, AllOptimizationModesAgreeOnScores) {
  InspectOptions base;
  base.block_size = 32;
  base.streaming = false;
  base.early_stopping = false;
  base.model_merging = false;
  ResultTable naive = Run(base);

  for (bool streaming : {false, true}) {
    for (bool es : {false, true}) {
      InspectOptions opts;
      opts.block_size = 32;
      opts.streaming = streaming;
      opts.early_stopping = es;
      ResultTable out = Run(opts);
      for (int u = 0; u < 3; ++u) {
        const float expected =
            naive.UnitScore("correlation_pearson", "is_a", u);
        const float got = out.UnitScore("correlation_pearson", "is_a", u);
        // Early stopping returns converged approximations (paper: scores
        // are accurate within the requested CI).
        EXPECT_NEAR(got, expected, es ? 0.08f : 1e-5f)
            << "streaming=" << streaming << " es=" << es << " unit=" << u;
      }
    }
  }
}

TEST_F(EngineFixture, EarlyStoppingReadsFewerRecords) {
  // The Fisher CI at epsilon=0.025 needs ~6.2k symbols to close, so use a
  // dataset comfortably larger than that (1500 records × 8 symbols).
  Dataset big = MakeAbDataset(1500);
  std::vector<HypothesisPtr> hyps = {
      std::make_shared<CountingHypothesis>("a")};
  std::vector<MeasureFactoryPtr> scores = {
      std::make_shared<CorrelationScore>("pearson")};

  InspectOptions full;
  full.block_size = 64;
  full.early_stopping = false;
  RuntimeStats full_stats;
  Inspect({AllUnitsGroup(&extractor_)}, big, scores, hyps, full, &full_stats);

  InspectOptions es;
  es.block_size = 64;
  es.early_stopping = true;
  es.streaming = true;
  RuntimeStats es_stats;
  Inspect({AllUnitsGroup(&extractor_)}, big, scores, hyps, es, &es_stats);

  EXPECT_EQ(full_stats.records_processed, big.num_records());
  EXPECT_LT(es_stats.records_processed, full_stats.records_processed);
  EXPECT_TRUE(es_stats.all_converged);
}

TEST_F(EngineFixture, CacheEliminatesSecondRunHypothesisWork) {
  auto hyp = std::make_shared<CountingHypothesis>("a");
  std::vector<HypothesisPtr> hyps = {hyp};
  std::vector<MeasureFactoryPtr> scores = {
      std::make_shared<CorrelationScore>("pearson")};
  BehaviorStore store(/*root_dir=*/"");  // memory-only hypothesis tier
  InspectOptions opts;
  opts.block_size = 32;
  opts.early_stopping = false;
  opts.hypothesis_store = &store;
  Inspect({AllUnitsGroup(&extractor_)}, dataset_, scores, hyps, opts);
  const size_t calls_first = hyp->eval_calls;
  EXPECT_EQ(calls_first, dataset_.num_records());
  // Second run (e.g. on a retrained model): all hypothesis behaviors hit.
  RuntimeStats stats;
  Inspect({AllUnitsGroup(&extractor_)}, dataset_, scores, hyps, opts, &stats);
  EXPECT_EQ(hyp->eval_calls, calls_first);
  EXPECT_GT(stats.cache_hits, 0u);
}

TEST_F(EngineFixture, GroupScopingProducesPerGroupRows) {
  ModelSpec spec;
  spec.extractor = &extractor_;
  spec.groups.push_back(UnitGroupSpec{"g0", {0, 1}});
  spec.groups.push_back(UnitGroupSpec{"g1", {2}});
  std::vector<HypothesisPtr> hyps = {
      std::make_shared<CountingHypothesis>("a")};
  std::vector<MeasureFactoryPtr> scores = {
      std::make_shared<CorrelationScore>("pearson")};
  InspectOptions opts;
  opts.block_size = 32;
  ResultTable results = Inspect({spec}, dataset_, scores, hyps, opts);
  size_t g0_rows = 0, g1_rows = 0;
  for (const auto& row : results.rows()) {
    if (row.group_id == "g0") ++g0_rows;
    if (row.group_id == "g1") ++g1_rows;
  }
  EXPECT_EQ(g0_rows, 2u);
  EXPECT_EQ(g1_rows, 1u);
}

TEST_F(EngineFixture, MergedLogRegMatchesUnmerged) {
  std::vector<HypothesisPtr> hyps = {
      std::make_shared<CountingHypothesis>("a"),
      std::make_shared<CountingHypothesis>("b")};
  std::vector<MeasureFactoryPtr> scores = {
      std::make_shared<LogRegressionScore>("L2", 1e-4f)};
  InspectOptions merged_opts;
  merged_opts.block_size = 32;
  merged_opts.early_stopping = false;
  merged_opts.model_merging = true;
  InspectOptions solo_opts = merged_opts;
  solo_opts.model_merging = false;
  ResultTable merged = Inspect({AllUnitsGroup(&extractor_)}, dataset_,
                               scores, hyps, merged_opts);
  ResultTable solo = Inspect({AllUnitsGroup(&extractor_)}, dataset_, scores,
                             hyps, solo_opts);
  for (const auto* name : {"is_a", "is_b"}) {
    const float fm = merged.GroupScore("logreg_L2", name);
    const float fs = solo.GroupScore("logreg_L2", name);
    EXPECT_NEAR(fm, fs, 0.1f) << name;
    EXPECT_GT(fm, 0.85f) << name;  // planted unit makes this separable
  }
}

TEST_F(EngineFixture, RuntimeStatsBreakdownSumsSensibly) {
  InspectOptions opts;
  opts.block_size = 32;
  RuntimeStats stats;
  Run(opts, &stats);
  EXPECT_GT(stats.blocks_processed, 0u);
  EXPECT_GE(stats.total_s, 0.0);
  EXPECT_LE(stats.unit_extraction_s + stats.hyp_extraction_s +
                stats.inspection_s,
            stats.total_s + 0.5);
}

TEST_F(EngineFixture, MaxBlocksCapsWorkButStillEmitsRows) {
  InspectOptions opts;
  opts.block_size = 16;
  opts.early_stopping = false;  // would otherwise stop on its own
  RuntimeStats stats;
  ResultTable results = Run(opts, &stats);
  const size_t full_blocks = stats.blocks_processed;
  ASSERT_GT(full_blocks, 2u);

  opts.max_blocks = 2;
  RuntimeStats capped_stats;
  ResultTable capped = Run(opts, &capped_stats);
  EXPECT_EQ(capped_stats.blocks_processed, 2u);
  EXPECT_EQ(capped.size(), results.size());  // same relation shape
  // Scores from a 2-block sample are close but not byte-identical.
  const float full_r0 = results.UnitScore("correlation_pearson", "is_a", 0);
  const float capped_r0 = capped.UnitScore("correlation_pearson", "is_a", 0);
  EXPECT_NEAR(full_r0, capped_r0, 0.1f);
}

TEST_F(EngineFixture, ZeroTimeBudgetProcessesNothingGracefully) {
  InspectOptions opts;
  opts.block_size = 16;
  opts.time_budget_s = 0.0;
  RuntimeStats stats;
  ResultTable results = Run(opts, &stats);
  EXPECT_EQ(stats.blocks_processed, 0u);
  // The result relation still has one row per (unit, hypothesis); with no
  // data seen the scores are the measure's empty-state value (0 or NaN),
  // never garbage.
  EXPECT_EQ(results.size(), extractor_.num_units());
  for (const auto& row : results.rows()) {
    EXPECT_TRUE(std::isnan(row.unit_score) || row.unit_score == 0.0f);
  }
}

TEST(InspectQueryTest, ValidatesInputs) {
  EXPECT_FALSE(InspectQuery().Execute().ok());  // no model
  SyntheticExtractor ex;
  EXPECT_FALSE(InspectQuery().Model(&ex).Execute().ok());  // no dataset
}

TEST(InspectQueryTest, EndToEndWithHavingClause) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(100);
  InspectOptions opts;
  opts.block_size = 32;
  Result<ResultTable> results =
      InspectQuery()
          .Model(&ex)
          .Hypothesis(std::make_shared<CountingHypothesis>("a"))
          .Over(&ds)
          .WithOptions(opts)
          .HavingUnitScoreAbove(0.8f)
          .Execute();
  ASSERT_TRUE(results.ok());
  // Only the planted detector (unit 0) and its negation (unit 2) survive.
  EXPECT_EQ(results->size(), 2u);
  for (const auto& row : results->rows()) {
    EXPECT_TRUE(row.unit == 0 || row.unit == 2);
  }
}

TEST(InspectQueryTest, GroupByLayerPartitionsUnits) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(50);
  InspectOptions opts;
  opts.block_size = 32;
  Result<ResultTable> results =
      InspectQuery()
          .Model(&ex)
          .GroupByLayer(2)  // -> layer0 = {0,1}, layer1 = {2}
          .Hypothesis(std::make_shared<CountingHypothesis>("a"))
          .Over(&ds)
          .WithOptions(opts)
          .Execute();
  ASSERT_TRUE(results.ok());
  bool saw_layer0 = false, saw_layer1 = false;
  for (const auto& row : results->rows()) {
    saw_layer0 |= row.group_id == "layer0";
    saw_layer1 |= row.group_id == "layer1";
  }
  EXPECT_TRUE(saw_layer0);
  EXPECT_TRUE(saw_layer1);
}

TEST(SilhouetteTest, SeparatedClustersScoreHigh) {
  Rng rng(1);
  Matrix a(20, 2), b(20, 2);
  for (size_t i = 0; i < 20; ++i) {
    a(i, 0) = static_cast<float>(rng.Normal(5.0, 0.2));
    a(i, 1) = static_cast<float>(rng.Normal(5.0, 0.2));
    b(i, 0) = static_cast<float>(rng.Normal(-5.0, 0.2));
    b(i, 1) = static_cast<float>(rng.Normal(-5.0, 0.2));
  }
  EXPECT_GT(SilhouetteScore(a, b), 0.9);
}

TEST(SilhouetteTest, OverlappingClustersScoreNearZero) {
  Rng rng(2);
  Matrix a(30, 2), b(30, 2);
  for (size_t i = 0; i < 30; ++i) {
    for (size_t c = 0; c < 2; ++c) {
      a(i, c) = static_cast<float>(rng.Normal());
      b(i, c) = static_cast<float>(rng.Normal());
    }
  }
  EXPECT_LT(std::fabs(SilhouetteScore(a, b)), 0.15);
}

TEST(VerificationTest, PlantedDetectorSeparatesPerturbations) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(150);
  PerturbationSpec spec;
  // Eligible where the symbol is 'a' (hypothesis active).
  spec.eligible = [](const Record& rec, size_t k) {
    return rec.tokens[k] == "a";
  };
  // There is no second hypothesis-consistent token in a binary alphabet, so
  // baseline re-uses 'a' i.e. a no-op swap (delta 0) — a valid control.
  spec.baseline = [](const Record&, size_t) {
    return std::optional<std::string>("a");
  };
  spec.treatment = [](const Record&, size_t) {
    return std::optional<std::string>("b");
  };
  // Verifying the planted detector: treatment flips its activation.
  VerificationResult planted =
      VerifyUnits(ex, ds, {0}, spec, /*max_samples=*/40, /*seed=*/3);
  EXPECT_GT(planted.silhouette, 0.5);
  EXPECT_GE(planted.n_baseline, 10u);
  EXPECT_GE(planted.n_treatment, 10u);
  // Verifying the noise unit: deltas are driven by the id hash either way,
  // so separation should be much weaker than the planted unit's.
  VerificationResult noise = VerifyUnits(ex, ds, {1}, spec, 40, 3);
  EXPECT_LT(noise.silhouette, planted.silhouette);
}

}  // namespace
}  // namespace deepbase
