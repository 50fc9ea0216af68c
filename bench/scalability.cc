#include "bench/scalability.h"

#include "baselines/madlib.h"
#include "measures/scores.h"
#include "util/stopwatch.h"

namespace deepbase {
namespace bench {

namespace {

std::vector<int> FirstUnits(size_t n) {
  std::vector<int> units(n);
  for (size_t u = 0; u < n; ++u) units[u] = static_cast<int>(u);
  return units;
}

MeasureFactoryPtr MakeScore(MeasureKind kind) {
  if (kind == MeasureKind::kCorrelation) {
    return std::make_shared<CorrelationScore>("pearson");
  }
  return std::make_shared<LogRegressionScore>("L1", 1e-3f);
}

}  // namespace

CellResult RunEngineCell(const SqlWorld& world, MeasureKind kind,
                         const InspectOptions& options, const Scale& scale,
                         BehaviorStore* hypothesis_store) {
  Dataset slice = world.dataset.Slice(
      0, std::min(scale.num_records, world.dataset.num_records()));
  LstmLmExtractor extractor("sql_lm", world.model.get());
  ModelSpec spec;
  spec.extractor = &extractor;
  spec.groups.push_back(UnitGroupSpec{
      "all", FirstUnits(std::min(scale.num_units, extractor.num_units()))});

  std::vector<HypothesisPtr> hyps =
      SqlHypotheses(&world.grammar, scale.num_hyps);
  std::vector<MeasureFactoryPtr> scores = {MakeScore(kind)};

  InspectOptions opts = options;
  opts.hypothesis_store = hypothesis_store;
  // Keep ~12 blocks per pass regardless of the slice size so that early
  // stopping and streaming have convergence checkpoints to act on (the
  // paper's 512-record blocks assume a 29k-record corpus).
  opts.block_size = std::max<size_t>(16, scale.num_records / 12);

  CellResult result;
  Stopwatch watch;
  Inspect({spec}, slice, scores, hyps, opts, &result.stats);
  result.seconds = watch.Seconds();
  return result;
}

CellResult RunMadlibCell(const SqlWorld& world, MeasureKind kind,
                         const Scale& scale) {
  Dataset slice = world.dataset.Slice(
      0, std::min(scale.num_records, world.dataset.num_records()));
  LstmLmExtractor extractor("sql_lm", world.model.get());
  std::vector<HypothesisPtr> hyps =
      SqlHypotheses(&world.grammar, scale.num_hyps);

  MadlibBase madlib(&extractor, &slice,
                    FirstUnits(std::min(scale.num_units,
                                        extractor.num_units())),
                    hyps);
  CellResult result;
  MadlibRunStats stats;
  Stopwatch watch;
  if (kind == MeasureKind::kCorrelation) {
    madlib.RunCorrelation(&stats);
  } else {
    // MADLib's IGD logreg: a few full-scan epochs per hypothesis.
    madlib.RunLogReg(/*epochs=*/3, &stats);
  }
  result.seconds = watch.Seconds();
  result.stats.total_s = stats.total_s();
  result.stats.unit_extraction_s = stats.load_s;
  result.stats.inspection_s = stats.query_s;
  result.stats.blocks_processed = stats.scans;
  return result;
}

Scale DefaultScale(bool full) {
  // Paper default: 29,696 records × 512 units × 190 hypotheses. Scaled to
  // ~1/16 per axis (records also bounded by the corpus size).
  if (full) return Scale{2048, 64, 120};
  return Scale{384, 32, 64};
}

SqlWorld ScalabilityWorld(bool full) {
  // Level-3 grammar (the paper's largest, ~170 rules); 2-layer LSTM so the
  // unit axis can grow past one layer's width.
  return BuildSqlWorld(/*level=*/3, /*n_queries=*/full ? 2048 : 768,
                       /*ns=*/96, /*hidden=*/full ? 32 : 24, /*layers=*/2,
                       /*epochs=*/1, /*seed=*/33);
}

}  // namespace bench
}  // namespace deepbase
