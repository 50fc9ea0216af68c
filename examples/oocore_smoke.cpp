// Out-of-core inspection smoke: a dataset whose materialized unit
// behaviors are bigger than the store's memory tier still inspects —
// the behaviors stream from disk through the mmap tier instead of being
// deserialized into memory, and the scores are byte-identical to an
// all-in-memory run.
//
//   1. Train a tiny SQL LSTM; inspect once through a session whose
//      store memory budget is far below the behavior payload. The first
//      query materializes the behaviors into the store; the payload is
//      never admitted to the LRU (it cannot fit).
//   2. A second query (different hypothesis set, so the result cache
//      can't answer) reads the behaviors back via BehaviorStore::GetShared
//      — served as an mmap handout (RuntimeStats::store_mmap_hits > 0),
//      with store memory usage still ~0. EXPLAIN, asked before the query
//      runs, must predict that residency: `tier=mmap (out-of-core)` on
//      the unit-behaviors node.
//   3. A control session with a generous budget answers the same query
//      from the memory tier (and EXPLAIN must not predict mmap); its
//      result table must serialize to the exact same bytes.
//
// Exits nonzero (with a diagnostic) if the mmap tier was not exercised,
// EXPLAIN mispredicted the residency, or the tables diverge.
// scripts/check.sh runs this as the out-of-core gate. Build & run:
// ./build/examples/oocore_smoke

#include <cstdio>
#include <filesystem>

#include "core/extractors.h"
#include "grammar/sql_grammar.h"
#include "nn/lstm_lm.h"
#include "service/explain.h"
#include "service/inspection_session.h"

using namespace deepbase;

namespace {

InspectRequest Query(const char* hypothesis_set) {
  InspectRequest request;
  request.models.push_back({.name = "sql_lm"});
  request.hypothesis_sets = {hypothesis_set};
  request.dataset_name = "queries";
  return request;
}

Result<ResultTable> RunQuery(InspectionSession* session,
                             const char* hypothesis_set,
                             RuntimeStats* stats) {
  return session->Inspect(Query(hypothesis_set), stats);
}

// EXPLAIN's residency prediction for the query's unit behaviors: the
// plan's unit-behaviors line.
std::string PredictedUnitTier(InspectionSession* session,
                              const char* hypothesis_set) {
  Result<InspectionPlan> plan = session->Explain(Query(hypothesis_set));
  DB_CHECK_OK(plan.status());
  const std::string text = plan->ToText();
  const size_t at = text.find("unit-behaviors:");
  if (at == std::string::npos) return "";
  return text.substr(at, text.find('\n', at) - at);
}

bool PredictsMmap(const std::string& line) {
  return line.find("tier=mmap (out-of-core)") != std::string::npos;
}

}  // namespace

int main() {
  const auto dir =
      std::filesystem::temp_directory_path() / "deepbase_oocore_smoke";
  std::filesystem::remove_all(dir);

  // A corpus big enough that the materialized behaviors (records × ns
  // rows × units floats) dwarf the small session's 64 KiB memory tier.
  Cfg grammar = MakeSqlGrammar(1);
  GrammarSampler sampler(&grammar, 29);
  std::string all_text;
  std::vector<std::string> queries;
  for (int i = 0; i < 160; ++i) {
    queries.push_back(sampler.Sample(6));
    all_text += queries.back();
  }
  Dataset dataset(Vocab::FromChars(all_text), 64);
  for (const auto& q : queries) dataset.AddText(q);
  LstmLm model(dataset.vocab().size(), 16, 1, 2);
  model.TrainEpoch(dataset, 0.01f, 300);
  LstmLmExtractor live("sql_lm", &model);
  const size_t payload_bytes =
      dataset.num_records() * dataset.ns() * model.num_units() *
      sizeof(float);

  auto register_catalog = [&](InspectionSession* session) {
    session->catalog().RegisterModel("sql_lm", &live);
    session->catalog().RegisterDataset("queries", &dataset);
    session->catalog().RegisterHypotheses(
        "keywords", {std::make_shared<KeywordHypothesis>("SELECT"),
                     std::make_shared<KeywordHypothesis>("FROM")});
    session->catalog().RegisterHypotheses(
        "where_kw", {std::make_shared<KeywordHypothesis>("WHERE")});
  };

  constexpr size_t kTinyBudget = 64ull << 10;  // 64 KiB
  if (payload_bytes <= 4 * kTinyBudget) {
    std::fprintf(stderr,
                 "workload too small to be out-of-core (%zu B payload)\n",
                 payload_bytes);
    return 1;
  }

  std::string out_of_core_bytes;
  {
    SessionConfig config;
    config.options.block_size = 128;
    config.store_dir = (dir / "small").string();
    config.store_memory_budget_bytes = kTinyBudget;
    InspectionSession session(std::move(config));
    register_catalog(&session);

    RuntimeStats stats;
    auto first = RunQuery(&session, "keywords", &stats);
    DB_CHECK_OK(first.status());  // materializes into the store

    const std::string predicted = PredictedUnitTier(&session, "where_kw");
    if (!PredictsMmap(predicted)) {
      std::fprintf(stderr,
                   "FAIL: EXPLAIN did not predict the mmap tier: %s\n",
                   predicted.c_str());
      return 1;
    }
    auto second = RunQuery(&session, "where_kw", &stats);
    DB_CHECK_OK(second.status());
    std::printf(
        "out-of-core query: payload=%zu B, budget=%zu B, "
        "mmap_hits=%zu mem_hits=%zu disk_hits=%zu\n",
        payload_bytes, kTinyBudget, stats.store_mmap_hits,
        stats.store_mem_hits, stats.store_disk_hits);
    if (stats.store_mmap_hits == 0) {
      std::fprintf(stderr,
                   "FAIL: behaviors larger than the memory tier were not "
                   "served by mmap\n");
      return 1;
    }
    out_of_core_bytes = second->SerializeToString();
  }

  // Control: plenty of memory, same query — byte-identical table.
  {
    SessionConfig config;
    config.options.block_size = 128;
    config.store_dir = (dir / "large").string();
    config.store_memory_budget_bytes = 256ull << 20;
    InspectionSession session(std::move(config));
    register_catalog(&session);

    RuntimeStats stats;
    DB_CHECK_OK(RunQuery(&session, "keywords", &stats).status());
    const std::string predicted = PredictedUnitTier(&session, "where_kw");
    if (predicted.empty() || PredictsMmap(predicted)) {
      std::fprintf(stderr,
                   "FAIL: EXPLAIN predicted mmap for the control run: %s\n",
                   predicted.c_str());
      return 1;
    }
    auto control = RunQuery(&session, "where_kw", &stats);
    DB_CHECK_OK(control.status());
    if (stats.store_mmap_hits != 0) {
      std::fprintf(stderr, "FAIL: control run unexpectedly used mmap\n");
      return 1;
    }
    if (control->SerializeToString() != out_of_core_bytes) {
      std::fprintf(stderr,
                   "FAIL: out-of-core scores diverge from in-memory "
                   "scores\n");
      return 1;
    }
  }

  std::printf("OOCORE OK\n");
  std::filesystem::remove_all(dir);
  return 0;
}
