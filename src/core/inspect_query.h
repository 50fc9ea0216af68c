// Declarative query builder mirroring the paper's INSPECT clause
// (Appendix B):
//
//   SELECT ... INSPECT U.uid AND H.h USING corr OVER D.seq AS S
//   ... GROUP BY ... HAVING S.unit_score > 0.8
//
// becomes
//
//   InspectQuery()
//       .Model(&extractor)                 // or .Model("catalog_name")
//       .GroupByLayer(hidden_dim)          // or .Group("layer0", units)
//       .Hypotheses(hyps)                  // or .Hypotheses("set_name")
//       .Using(std::make_shared<CorrelationScore>("pearson"))
//       .Over(&dataset)                    // or .Over("dataset_name")
//       .HavingUnitScoreAbove(0.8f)
//       .Execute();
//
// The builder is a thin frontend: it only assembles an InspectRequest.
// Execute() compiles the request against the bound Catalog (or an empty
// one when everything is inline) and runs the plan (Catalog::Compile,
// RunPlan) — the path every frontend shares. To run through a session
// (shared behavior store, hypothesis cache, async jobs), pass the builder
// or its request() to InspectionSession::Inspect / Submit.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/engine.h"

namespace deepbase {

/// \brief Fluent builder over InspectRequest. Inputs are validated at
/// Execute() / Compile time.
class InspectQuery {
 public:
  InspectQuery() = default;
  /// \brief Bind the builder to a catalog so Model("name") /
  /// Hypotheses("set") / Over("dataset") references resolve (not owned).
  explicit InspectQuery(const Catalog* catalog) : catalog_(catalog) {}

  /// \brief Add a model; subsequent Group() calls attach to it. If no
  /// group is added, all units form one group.
  InspectQuery& Model(const Extractor* extractor);
  /// \brief Add a model by catalog name (requires a bound catalog or
  /// execution through an InspectionSession).
  InspectQuery& Model(const std::string& name);

  /// \brief Add a named unit group to the most recent model.
  InspectQuery& Group(const std::string& group_id, std::vector<int> units);

  /// \brief Partition the most recent model's units into per-layer groups
  /// of `layer_size` consecutive units ("layer0", "layer1", ...).
  InspectQuery& GroupByLayer(size_t layer_size);

  InspectQuery& Hypotheses(std::vector<HypothesisPtr> hyps);
  InspectQuery& Hypothesis(HypothesisPtr hyp);
  /// \brief Add a registered hypothesis set by catalog name.
  InspectQuery& Hypotheses(const std::string& set_name);

  InspectQuery& Using(MeasureFactoryPtr score);
  /// \brief Add a measure by registry name (pearson, jaccard, ...).
  InspectQuery& Using(const std::string& measure_name);

  InspectQuery& Over(const Dataset* dataset);
  /// \brief Reference a registered dataset by catalog name.
  InspectQuery& Over(const std::string& dataset_name);

  InspectQuery& WithOptions(InspectOptions options);

  /// \brief HAVING clause on |unit_score| (applied after inspection).
  InspectQuery& HavingUnitScoreAbove(float threshold);

  /// \brief The assembled declarative request (what Execute compiles).
  const InspectRequest& request() const { return request_; }

  /// \brief Validate and run through the shared request path. Defaults to
  /// Pearson correlation if no measure was given (the paper's INSPECT
  /// default).
  Result<ResultTable> Execute(RuntimeStats* stats = nullptr) const;

 private:
  const Catalog* catalog_ = nullptr;
  InspectRequest request_;
};

}  // namespace deepbase
