#include "core/inspect_query.h"

namespace deepbase {

InspectQuery& InspectQuery::Model(const Extractor* extractor) {
  InspectRequest::ModelRef ref;
  ref.extractor = extractor;
  request_.models.push_back(std::move(ref));
  return *this;
}

InspectQuery& InspectQuery::Model(const std::string& name) {
  InspectRequest::ModelRef ref;
  ref.name = name;
  request_.models.push_back(std::move(ref));
  return *this;
}

InspectQuery& InspectQuery::Group(const std::string& group_id,
                                  std::vector<int> units) {
  if (!request_.models.empty()) {
    request_.models.back().groups.push_back(
        UnitGroupSpec{group_id, std::move(units)});
  }
  return *this;
}

InspectQuery& InspectQuery::GroupByLayer(size_t layer_size) {
  if (!request_.models.empty() && layer_size > 0) {
    request_.models.back().group_by_layer = layer_size;
  }
  return *this;
}

InspectQuery& InspectQuery::Hypotheses(std::vector<HypothesisPtr> hyps) {
  for (auto& h : hyps) request_.hypotheses.push_back(std::move(h));
  return *this;
}

InspectQuery& InspectQuery::Hypothesis(HypothesisPtr hyp) {
  request_.hypotheses.push_back(std::move(hyp));
  return *this;
}

InspectQuery& InspectQuery::Hypotheses(const std::string& set_name) {
  request_.hypothesis_sets.push_back(set_name);
  return *this;
}

InspectQuery& InspectQuery::Using(MeasureFactoryPtr score) {
  request_.measures.push_back(std::move(score));
  return *this;
}

InspectQuery& InspectQuery::Using(const std::string& measure_name) {
  request_.measure_names.push_back(measure_name);
  return *this;
}

InspectQuery& InspectQuery::Over(const Dataset* dataset) {
  request_.dataset = dataset;
  return *this;
}

InspectQuery& InspectQuery::Over(const std::string& dataset_name) {
  request_.dataset_name = dataset_name;
  return *this;
}

InspectQuery& InspectQuery::WithOptions(InspectOptions options) {
  request_.options = std::move(options);
  return *this;
}

InspectQuery& InspectQuery::HavingUnitScoreAbove(float threshold) {
  request_.min_abs_unit_score = threshold;
  return *this;
}

Result<ResultTable> InspectQuery::Execute(RuntimeStats* stats) const {
  // A fully inline query compiles against an empty catalog. Name
  // references (if any) fail with the same descriptive errors a session
  // would give.
  static const Catalog kEmptyCatalog;
  const Catalog& catalog = catalog_ != nullptr ? *catalog_ : kEmptyCatalog;
  DB_ASSIGN_OR_RETURN(InspectPlan plan,
                      catalog.Compile(request_, InspectOptions{}));
  return RunPlan(plan, stats);
}

}  // namespace deepbase
