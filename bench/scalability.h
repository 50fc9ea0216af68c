// Shared driver for the scalability figures (5-10): runs one (system,
// measure, workload-scale) cell and reports runtime + engine stats.

#pragma once

#include <string>
#include <vector>

#include "bench/common.h"
#include "core/behavior_store.h"

namespace deepbase {
namespace bench {

/// \brief Which affinity measure family a cell exercises (the two rows of
/// Figures 5-10).
enum class MeasureKind { kCorrelation, kLogReg };

/// \brief One workload scale point.
struct Scale {
  size_t num_records;
  size_t num_units;
  size_t num_hyps;
};

/// \brief Outcome of one cell.
struct CellResult {
  double seconds = 0;
  RuntimeStats stats;
};

/// \brief Run the DeepBase engine with the given options over a slice of
/// the SQL world. Hypothesis behaviors are cached in the hyp: tier of
/// `hypothesis_store` when non-null.
CellResult RunEngineCell(const SqlWorld& world, MeasureKind kind,
                         const InspectOptions& options, const Scale& scale,
                         BehaviorStore* hypothesis_store = nullptr);

/// \brief Run the MADLib-style baseline over the same slice.
CellResult RunMadlibCell(const SqlWorld& world, MeasureKind kind,
                         const Scale& scale);

/// \brief The default scaled-down workload (paper default 29,696 × 512 ×
/// 190, reproduced at ~1/16 per axis).
Scale DefaultScale(bool full);

/// \brief Default SQL world for the scalability figures. `full` enlarges
/// the corpus.
SqlWorld ScalabilityWorld(bool full);

}  // namespace bench
}  // namespace deepbase
