// Tests for the unified inspection API: Catalog registration/lookup
// round-trips, InspectRequest compilation errors, the InspectionSession
// facade (sync + async jobs, cancellation), concurrent Submit() against a
// shared BehaviorStore, and the three-frontend equivalence guarantee
// (InspectQuery, SqlSession, and raw InspectRequest produce identical
// scores for the same inspection).

#include "service/inspection_session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <set>

#include "core/extractors.h"
#include "core/inspect_parser.h"
#include "core/inspect_query.h"
#include "service/explain.h"
#include "measures/scores.h"
#include "sql/sql_session.h"
#include "util/rng.h"

namespace deepbase {
namespace {

// Deterministic fake model: unit 0 tracks "is the symbol 'a'" (plus small
// deterministic jitter), the rest are pseudo-random noise. Planted ground
// truth without training anything.
class PlantedExtractor : public Extractor {
 public:
  explicit PlantedExtractor(size_t units = 4)
      : Extractor("planted"), units_(units) {}
  size_t num_units() const override { return units_; }

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

Dataset MakeAbDataset(size_t records = 120, size_t ns = 8) {
  Dataset dataset(Vocab::FromChars("ab"), ns);
  Rng rng(3);
  for (size_t i = 0; i < records; ++i) {
    std::string text;
    for (size_t t = 0; t < ns; ++t) text += rng.Bernoulli(0.4) ? 'a' : 'b';
    dataset.AddText(text);
  }
  return dataset;
}

// ---------------------------------------------------------------------------
// Catalog.
// ---------------------------------------------------------------------------

TEST(CatalogTest, RegistrationRoundTrips) {
  Catalog catalog;
  PlantedExtractor extractor;
  Dataset dataset = MakeAbDataset(10);

  EXPECT_EQ(catalog.version(), 0u);
  catalog.RegisterModel("planted", &extractor, /*layer_size=*/2,
                        {{"epoch", Datum::Number(4)}});
  catalog.RegisterHypotheses("keywords", {IsAHypothesis()});
  catalog.RegisterDataset("ab", &dataset);
  EXPECT_EQ(catalog.version(), 3u);

  Result<CatalogModel> model = catalog.GetModel("planted");
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->extractor, &extractor);
  EXPECT_EQ(model->layer_size, 2u);
  EXPECT_EQ(model->attrs.at("epoch").num, 4.0);

  Result<std::vector<HypothesisPtr>> hyps = catalog.GetHypotheses("keywords");
  ASSERT_TRUE(hyps.ok());
  ASSERT_EQ(hyps->size(), 1u);
  EXPECT_EQ((*hyps)[0]->name(), "is_a");

  Result<CatalogDataset> ds = catalog.GetDataset("ab");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->dataset, &dataset);
  EXPECT_EQ(ds->fingerprint, DatasetFingerprint(dataset));

  EXPECT_EQ(catalog.ModelNames(), std::vector<std::string>{"planted"});
  EXPECT_EQ(catalog.HypothesisSetNames(),
            std::vector<std::string>{"keywords"});
  EXPECT_EQ(catalog.DatasetNames(), std::vector<std::string>{"ab"});
}

TEST(CatalogTest, LookupErrorsAreDescriptive) {
  Catalog catalog;
  Result<CatalogModel> model = catalog.GetModel("ghost");
  EXPECT_EQ(model.status().code(), StatusCode::kNotFound);
  EXPECT_NE(model.status().message().find("ghost"), std::string::npos);
  EXPECT_EQ(catalog.GetHypotheses("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog.GetDataset("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog.GetMeasure("vibes").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CatalogTest, MeasuresResolveBuiltinsAndRegistrations) {
  Catalog catalog;
  Result<MeasureFactoryPtr> pearson = catalog.GetMeasure("pearson");
  ASSERT_TRUE(pearson.ok());
  catalog.RegisterMeasure("custom_corr",
                          std::make_shared<CorrelationScore>("spearman"));
  Result<MeasureFactoryPtr> custom = catalog.GetMeasure("custom_corr");
  ASSERT_TRUE(custom.ok());
  EXPECT_EQ((*custom)->name(), "correlation_spearman");
}

TEST(CatalogTest, CompileReportsStructuralErrors) {
  Catalog catalog;
  PlantedExtractor extractor;
  Dataset dataset = MakeAbDataset(10);
  catalog.RegisterModel("planted", &extractor);
  catalog.RegisterHypotheses("keywords", {IsAHypothesis()});
  catalog.RegisterDataset("ab", &dataset);

  InspectOptions defaults;
  {
    InspectRequest request;  // no model
    EXPECT_EQ(catalog.Compile(request, defaults).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    InspectRequest request;  // unknown model name
    request.models.push_back({.name = "ghost"});
    request.hypothesis_sets = {"keywords"};
    request.dataset_name = "ab";
    EXPECT_EQ(catalog.Compile(request, defaults).status().code(),
              StatusCode::kNotFound);
  }
  {
    InspectRequest request;  // no hypotheses at all
    request.models.push_back({.name = "planted"});
    request.dataset_name = "ab";
    Result<InspectPlan> plan = catalog.Compile(request, defaults);
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(plan.status().message().find("hypothesis"),
              std::string::npos);
  }
  {
    InspectRequest request;  // missing dataset
    request.models.push_back({.name = "planted"});
    request.hypothesis_sets = {"keywords"};
    Result<InspectPlan> plan = catalog.Compile(request, defaults);
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(plan.status().message().find("OVER dataset"),
              std::string::npos);
  }
  {
    InspectRequest request;  // unit id out of range
    request.models.push_back(
        {.name = "planted",
         .groups = {UnitGroupSpec{"g", {0, 99}}}});
    request.hypothesis_sets = {"keywords"};
    request.dataset_name = "ab";
    EXPECT_EQ(catalog.Compile(request, defaults).status().code(),
              StatusCode::kOutOfRange);
  }
  {
    InspectRequest request;  // filter naming an unknown hypothesis
    request.models.push_back({.name = "planted"});
    request.hypothesis_sets = {"keywords"};
    request.hypothesis_filter = {"no_such_fn"};
    request.dataset_name = "ab";
    EXPECT_EQ(catalog.Compile(request, defaults).status().code(),
              StatusCode::kNotFound);
  }
}

// A dataset numbered the way the wire layer numbers a remote one: each
// token's id in order of first appearance (wire::DecodeDataset), so it
// holds ids up to `distinct` whatever model it is meant for.
Dataset FirstAppearanceDataset(size_t distinct, size_t records = 6,
                               size_t ns = 8) {
  Dataset dataset(Vocab(), ns);
  for (size_t i = 0; i < records; ++i) {
    Record rec;
    for (size_t t = 0; t < ns; ++t) {
      rec.tokens.push_back(std::string(1, 'a' + (i * ns + t) % distinct));
      rec.ids.push_back(dataset.mutable_vocab()->Add(rec.tokens.back()));
    }
    dataset.Add(std::move(rec));
  }
  return dataset;
}

TEST(CatalogTest, DatasetOutsideAnLstmVocabularyFailsToCompile) {
  // A model over 5 symbols and a dataset holding ids up to 8: every entry
  // point fails with one kInvalidArgument naming the model, the id and
  // the vocabulary size, before any extraction (which would abort).
  const LstmLm model(5, 4, 1, 7);
  const LstmLmExtractor extractor("lm5", &model);
  const Dataset wide = FirstAppearanceDataset(8);
  ASSERT_EQ(wide.max_id(), 8);
  const Dataset narrow = FirstAppearanceDataset(4);
  SessionConfig config;
  config.num_threads = 2;
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("lm5", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterDataset("wide", &wide);
  session.catalog().RegisterDataset("narrow", &narrow);
  InspectRequest request;
  request.models.push_back({.name = "lm5"});
  request.hypothesis_sets = {"keywords"};
  request.dataset_name = "wide";

  const Status compiled =
      session.catalog().Compile(request, InspectOptions{}).status();
  EXPECT_EQ(compiled.code(), StatusCode::kInvalidArgument);
  for (const char* part : {"'lm5'", "id 8", "(5 symbols)"}) {
    EXPECT_NE(compiled.message().find(part), std::string::npos)
        << compiled.ToString();
  }
  const Result<ResultTable> inspected = session.Inspect(request);
  JobHandle job = session.Submit(request);
  const Result<ResultTable> submitted = job.Wait();
  const Result<InspectionPlan> explained = session.Explain(request);
  for (const Status& status :
       {inspected.status(), submitted.status(), explained.status()}) {
    EXPECT_EQ(status.code(), compiled.code());
    EXPECT_EQ(status.message(), compiled.message());
  }
  // The session goes on serving, and a dataset inside the vocabulary runs.
  request.dataset_name = "narrow";
  const Result<ResultTable> ok = session.Inspect(request);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// ---------------------------------------------------------------------------
// Frontend equivalence: one inspection, four entry points, identical
// scores.
// ---------------------------------------------------------------------------

class EquivalenceFixture : public ::testing::Test {
 protected:
  EquivalenceFixture() : dataset_(MakeAbDataset()) {
    SessionConfig config;
    config.options.block_size = 32;
    session_ = std::make_unique<InspectionSession>(std::move(config));
    session_->catalog().RegisterModel("planted", &extractor_);
    session_->catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
    session_->catalog().RegisterDataset("ab", &dataset_);
  }

  std::map<int, float> ScoresOf(const ResultTable& results) {
    std::map<int, float> scores;
    for (const ResultRow& row : results.rows()) {
      if (row.unit >= 0) scores[row.unit] = row.unit_score;
    }
    return scores;
  }

  PlantedExtractor extractor_;
  Dataset dataset_;
  std::unique_ptr<InspectionSession> session_;
};

TEST_F(EquivalenceFixture, AllFrontendsProduceIdenticalScores) {
  // 1. Raw InspectRequest through the session.
  InspectRequest request;
  request.models.push_back({.name = "planted"});
  request.hypothesis_sets = {"keywords"};
  request.dataset_name = "ab";
  request.measure_names = {"pearson"};
  Result<ResultTable> via_request = session_->Inspect(request);
  ASSERT_TRUE(via_request.ok()) << via_request.status().ToString();
  const std::map<int, float> expected = ScoresOf(*via_request);
  ASSERT_EQ(expected.size(), extractor_.num_units());

  // 2. Fluent InspectQuery (catalog names, executed through the session).
  InspectQuery query;
  query.Model("planted").Hypotheses("keywords").Over("ab").Using("pearson");
  Result<ResultTable> via_builder = session_->Inspect(query);
  ASSERT_TRUE(via_builder.ok()) << via_builder.status().ToString();
  EXPECT_EQ(ScoresOf(*via_builder), expected);

  // 2b. Fluent InspectQuery with inline pointers, executed standalone.
  InspectOptions options = session_->default_options();
  Result<ResultTable> via_inline =
      InspectQuery()
          .Model(&extractor_)
          .Hypothesis(IsAHypothesis())
          .Using(std::make_shared<CorrelationScore>("pearson"))
          .Over(&dataset_)
          .WithOptions(options)
          .Execute();
  ASSERT_TRUE(via_inline.ok()) << via_inline.status().ToString();
  EXPECT_EQ(ScoresOf(*via_inline), expected);

  // 3. Textual INSPECT statement against the same catalog.
  Result<ResultTable> via_text = ExecuteInspect(
      "INSPECT units OF planted AND keywords USING pearson OVER ab",
      session_->catalog(), session_->default_options());
  ASSERT_TRUE(via_text.ok()) << via_text.status().ToString();
  EXPECT_EQ(ScoresOf(*via_text), expected);

  // 4. SQL frontend sharing the session (and therefore the catalog).
  SqlSession sql(session_.get());
  Result<DbTable> via_sql = sql.Execute(
      "SELECT S.uid, S.unit_score "
      "INSPECT U.uid AND H.h USING pearson OVER D.seq AS S "
      "FROM units U, hypotheses H, inputs D "
      "WHERE H.name = 'keywords' ORDER BY S.uid");
  ASSERT_TRUE(via_sql.ok()) << via_sql.status().ToString();
  ASSERT_EQ(via_sql->num_rows(), expected.size());
  for (size_t r = 0; r < via_sql->num_rows(); ++r) {
    const int unit = static_cast<int>(via_sql->At(r, "S.uid")->num);
    EXPECT_NEAR(via_sql->At(r, "S.unit_score")->num, expected.at(unit),
                1e-6)
        << "unit " << unit;
  }
}

// ---------------------------------------------------------------------------
// Async jobs.
// ---------------------------------------------------------------------------

TEST(InspectionSessionTest, SubmitRunsJobsConcurrentlyAgainstSharedStore) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "deepbase_service_test_store";
  std::filesystem::remove_all(dir);

  PlantedExtractor extractor(8);
  Dataset dataset = MakeAbDataset(160);

  SessionConfig config;
  config.options.block_size = 32;
  config.num_threads = 4;
  config.store_dir = dir.string();
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterDataset("ab", &dataset);
  ASSERT_NE(session.store(), nullptr);

  // Six jobs with distinct hypothesis sets, all sharing the model's
  // stored behaviors.
  const size_t kJobs = 6;
  std::vector<JobHandle> jobs;
  for (size_t j = 0; j < kJobs; ++j) {
    const std::string set = "set" + std::to_string(j);
    session.catalog().RegisterHypotheses(set, {IsAHypothesis()});
    InspectRequest request;
    request.models.push_back({.name = "planted"});
    request.hypothesis_sets = {set};
    request.dataset_name = "ab";
    jobs.push_back(session.Submit(std::move(request)));
  }
  ASSERT_EQ(session.Jobs().size(), kJobs);

  // Sequential reference without any store/session involvement.
  InspectOptions plain;
  plain.block_size = 32;
  ResultTable reference =
      Inspect({AllUnitsGroup(&extractor)}, dataset,
              {std::make_shared<CorrelationScore>("pearson")},
              {IsAHypothesis()}, plain);

  for (JobHandle& job : jobs) {
    const Result<ResultTable>& result = job.Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(job.Done());
    EXPECT_EQ(job.Poll(), JobStatus::kDone);
    ASSERT_EQ(result->size(), reference.size());
    for (const ResultRow& row : reference.rows()) {
      if (row.unit < 0) continue;
      EXPECT_NEAR(result->UnitScore(row.measure, row.hypothesis, row.unit),
                  row.unit_score, 1e-6);
    }
  }

  // The model was materialized exactly once, and the shared "is_a"
  // hypothesis once (the hypothesis store tier — all six sets contain
  // the same function, so they share one HypothesisBehaviorKey); every
  // other access hit the store (memory tier) instead of re-extracting.
  ASSERT_NE(session.store(), nullptr);
  EXPECT_EQ(session.store()->misses(), 2u);
  EXPECT_GE(session.store()->mem_hits(), kJobs - 1);
  EXPECT_GT(session.store()->namespace_bytes("unit"), 0u);
  EXPECT_GT(session.store()->namespace_bytes("hyp"), 0u);
  size_t hyp_tier_misses = 0;
  for (JobHandle& job : jobs) {
    hyp_tier_misses += job.Stats().store_hyp_misses;
  }
  EXPECT_EQ(hyp_tier_misses, 1u);

  // Unified counters: the per-job stats carry the store tier hits.
  size_t jobs_with_store_activity = 0;
  for (JobHandle& job : jobs) {
    const RuntimeStats stats = job.Stats();
    if (stats.store_mem_hits + stats.store_disk_hits + stats.store_misses >
        0) {
      ++jobs_with_store_activity;
    }
  }
  EXPECT_EQ(jobs_with_store_activity, kJobs);
  std::filesystem::remove_all(dir);
}

TEST(InspectionSessionTest, InvalidJobHandleIsSafeToUse) {
  JobHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(handle.id(), 0u);
  EXPECT_EQ(handle.Poll(), JobStatus::kCancelled);
  EXPECT_TRUE(handle.Done());
  handle.Cancel();  // no-op, no crash
  EXPECT_EQ(handle.Wait().status().code(), StatusCode::kInvalidArgument);
}

TEST(InspectionSessionTest, CancelledJobReportsCancelledStatus) {
  PlantedExtractor extractor(8);
  Dataset dataset = MakeAbDataset(400, 16);

  SessionConfig config;
  config.options.block_size = 8;
  config.options.early_stopping = false;
  config.options.passes = 50;  // enough work to outlive the Cancel() below
  config.num_threads = 1;      // jobs queue behind each other
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("planted", &extractor);
  session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session.catalog().RegisterDataset("ab", &dataset);

  InspectRequest request;
  request.models.push_back({.name = "planted"});
  request.hypothesis_sets = {"keywords"};
  request.dataset_name = "ab";

  JobHandle running = session.Submit(request);
  JobHandle queued = session.Submit(request);
  // Cancel the queued job immediately: the single worker is still busy
  // with the first, so the second is dropped before execution; the first
  // is cancelled mid-run and stops at a block boundary.
  queued.Cancel();
  running.Cancel();

  const Result<ResultTable>& queued_result = queued.Wait();
  EXPECT_EQ(queued.Poll(), JobStatus::kCancelled);
  EXPECT_EQ(queued_result.status().code(), StatusCode::kCancelled);

  const Result<ResultTable>& running_result = running.Wait();
  EXPECT_EQ(running.Poll(), JobStatus::kCancelled);
  EXPECT_EQ(running_result.status().code(), StatusCode::kCancelled);
}

TEST(InspectionSessionTest, SessionStoreServesReinspectionAcrossRestart) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "deepbase_service_test_restart";
  std::filesystem::remove_all(dir);

  PlantedExtractor extractor;
  Dataset dataset = MakeAbDataset();

  InspectRequest request;
  request.models.push_back({.name = "planted"});
  request.hypothesis_sets = {"keywords"};
  request.dataset_name = "ab";

  auto make_session = [&] {
    SessionConfig config;
    config.options.block_size = 32;
    config.store_dir = dir.string();
    // This test exercises the behavior store's disk tier; the persistent
    // result cache would otherwise answer the restarted session before
    // the store is ever read (covered in scheduler_test).
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
    Result<ResultTable> first = session->Inspect(request, &stats);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(stats.store_misses, 1u);  // one-time materialization
    for (const ResultRow& row : first->rows()) {
      if (row.unit >= 0) first_scores[row.unit] = row.unit_score;
    }
  }
  {
    // "Restart": fresh session over the same directory — disk-tier hit,
    // identical scores, no re-extraction from the model.
    auto session = make_session();
    RuntimeStats stats;
    Result<ResultTable> again = session->Inspect(request, &stats);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(stats.store_disk_hits, 1u);
    EXPECT_EQ(stats.store_misses, 0u);
    for (const ResultRow& row : again->rows()) {
      if (row.unit >= 0) {
        EXPECT_NEAR(row.unit_score, first_scores.at(row.unit), 1e-6);
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Frontend validation (satellite: descriptive errors instead of silent
// defaults/crashes).
// ---------------------------------------------------------------------------

TEST(InspectQueryValidationTest, DescriptiveErrors) {
  PlantedExtractor extractor;
  Dataset dataset = MakeAbDataset(10);

  // Missing dataset.
  Result<ResultTable> no_dataset =
      InspectQuery().Model(&extractor).Hypothesis(IsAHypothesis()).Execute();
  EXPECT_EQ(no_dataset.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_dataset.status().message().find("OVER dataset"),
            std::string::npos);

  // Empty hypothesis list.
  Result<ResultTable> no_hyps =
      InspectQuery().Model(&extractor).Over(&dataset).Execute();
  EXPECT_EQ(no_hyps.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_hyps.status().message().find("hypothesis"),
            std::string::npos);

  // Unknown catalog name without a bound catalog.
  Result<ResultTable> unknown = InspectQuery()
                                    .Model("ghost")
                                    .Hypothesis(IsAHypothesis())
                                    .Over(&dataset)
                                    .Execute();
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("ghost"), std::string::npos);
}

TEST(SqlSessionValidationTest, UnknownCatalogNamesAreDescriptive) {
  PlantedExtractor extractor;
  Dataset dataset = MakeAbDataset(10);
  SqlSession session;
  session.mutable_options()->block_size = 32;
  session.RegisterModel("planted", &extractor);
  session.RegisterHypotheses("keywords", {IsAHypothesis()});
  session.RegisterDataset("ab", &dataset);

  // Unknown measure in USING fails before any extraction.
  Result<DbTable> bad_measure = session.Execute(
      "SELECT S.uid INSPECT U.uid AND H.h USING vibes OVER D.seq AS S "
      "FROM units U, hypotheses H, inputs D");
  EXPECT_EQ(bad_measure.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_measure.status().message().find("vibes"),
            std::string::npos);

  // Unknown relation in FROM.
  EXPECT_FALSE(session
                   .Execute("SELECT S.uid INSPECT U.uid AND H.h OVER D.seq "
                            "AS S FROM ghosts U, hypotheses H, inputs D")
                   .ok());
}

}  // namespace
}  // namespace deepbase
