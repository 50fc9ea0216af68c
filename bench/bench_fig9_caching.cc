// Figure 9: effect of the hypothesis-behavior cache — the hyp: tier of a
// memory-only BehaviorStore, the configuration storeless sessions run. The
// model-development loop re-runs the same hypothesis library against a
// retrained model; with a warm tier the (expensive, parser-backed)
// hypothesis extraction is skipped entirely. The cold run materializes
// each hypothesis over the whole slice, even where early stopping ends
// the scan sooner. Paper: caching improves correlation ~1.9x and logistic
// regression ~12.4x on average (up to 19.5x).

#include <cstdio>

#include "baselines/pybase.h"
#include "bench/scalability.h"

namespace deepbase {
namespace bench {
namespace {

void Run(bool full) {
  PrintHeader("Figure 9",
              "Cold vs warm hypothesis cache (second run simulates "
              "re-inspecting a retrained model).");
  SqlWorld world = ScalabilityWorld(full);
  const Scale scale = DefaultScale(full);

  // One unified counter set (RuntimeStats): cache_hits / cache_misses are
  // the (hypothesis, record) rows copied from the tier / evaluated live.
  TextTable table({"measure", "run", "seconds", "cache_hits", "cache_misses",
                   "speedup"});
  for (MeasureKind kind : {MeasureKind::kCorrelation, MeasureKind::kLogReg}) {
    const char* mname =
        kind == MeasureKind::kCorrelation ? "correlation" : "logreg";
    BehaviorStore store(/*root_dir=*/"", /*memory_budget_bytes=*/256ull << 20);
    CellResult cold =
        RunEngineCell(world, kind, DeepBaseOptions(), scale, &store);
    CellResult warm =
        RunEngineCell(world, kind, DeepBaseOptions(), scale, &store);
    // RuntimeStats counters are per-run deltas, so each cell reports its
    // own hits/misses directly.
    table.AddRow({mname, "cold", TextTable::Num(cold.seconds, 3),
                  std::to_string(cold.stats.cache_hits),
                  std::to_string(cold.stats.cache_misses), "1.0"});
    table.AddRow({mname, "warm (cached)", TextTable::Num(warm.seconds, 3),
                  std::to_string(warm.stats.cache_hits),
                  std::to_string(warm.stats.cache_misses),
                  TextTable::Num(cold.seconds / std::max(1e-9, warm.seconds),
                                 1)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace bench
}  // namespace deepbase

int main(int argc, char** argv) {
  deepbase::bench::Run(deepbase::bench::HasFlag(argc, argv, "--full"));
  return 0;
}
