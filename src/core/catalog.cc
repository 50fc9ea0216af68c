#include "core/catalog.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/behavior_store.h"
#include "core/inspect_parser.h"
#include "measures/scores.h"
#include "util/fnv.h"
#include "util/logging.h"

namespace deepbase {

void Catalog::BumpVersion(std::unique_lock<std::mutex> lock) {
  const uint64_t version = ++version_;
  std::function<void(uint64_t)> listener = mutation_listener_;
  lock.unlock();
  // Outside the lock: the listener (the scheduler's invalidation hook) may
  // read back through the catalog. Concurrent Register* calls may deliver
  // versions out of order; listeners must treat the version as a floor
  // (InvalidateBelow takes the max), not a sequence.
  if (listener) listener(version);
}

void Catalog::RegisterModel(const std::string& name,
                            const Extractor* extractor, size_t layer_size,
                            std::map<std::string, Datum> attrs) {
  std::unique_lock<std::mutex> lock(mu_);
  models_[name] = CatalogModel{extractor, layer_size, std::move(attrs)};
  BumpVersion(std::move(lock));
}

void Catalog::RegisterHypotheses(const std::string& set_name,
                                 std::vector<HypothesisPtr> hypotheses) {
  std::unique_lock<std::mutex> lock(mu_);
  hypothesis_sets_[set_name] = std::move(hypotheses);
  BumpVersion(std::move(lock));
}

void Catalog::RegisterDataset(const std::string& name,
                              const Dataset* dataset) {
  std::unique_lock<std::mutex> lock(mu_);
  datasets_[name] = CatalogDataset{
      dataset, dataset != nullptr ? DatasetFingerprint(*dataset) : 0};
  BumpVersion(std::move(lock));
}

void Catalog::RegisterDataset(const std::string& name,
                              std::shared_ptr<const Dataset> dataset) {
  const Dataset* ptr = dataset.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    owned_datasets_.push_back(std::move(dataset));
  }
  RegisterDataset(name, ptr);
}

void Catalog::RegisterMeasure(const std::string& name,
                              MeasureFactoryPtr factory) {
  std::unique_lock<std::mutex> lock(mu_);
  measures_[name] = std::move(factory);
  BumpVersion(std::move(lock));
}

void Catalog::SetMutationListener(std::function<void(uint64_t)> listener) {
  std::lock_guard<std::mutex> lock(mu_);
  mutation_listener_ = std::move(listener);
}

namespace {

// One registry lookup; the caller holds the catalog lock.
template <typename Map>
Result<typename Map::mapped_type> Lookup(const Map& map,
                                         const std::string& name,
                                         const char* what) {
  auto it = map.find(name);
  if (it == map.end()) {
    return Status::NotFound(std::string(what) + " not registered: " + name);
  }
  return it->second;
}

template <typename Map>
std::vector<std::string> KeysOf(const Map& map) {
  std::vector<std::string> names;
  names.reserve(map.size());
  for (const auto& [name, value] : map) names.push_back(name);
  return names;
}

}  // namespace

Result<CatalogModel> Catalog::GetModel(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(models_, name, "model");
}

Result<std::vector<HypothesisPtr>> Catalog::GetHypotheses(
    const std::string& set_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(hypothesis_sets_, set_name, "hypothesis set");
}

Result<CatalogDataset> Catalog::GetDataset(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(datasets_, name, "dataset");
}

Result<MeasureFactoryPtr> Catalog::GetMeasure(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return MeasureLocked(name);
}

Result<MeasureFactoryPtr> Catalog::MeasureLocked(
    const std::string& name) const {
  auto it = measures_.find(name);
  if (it != measures_.end()) return it->second;
  // Fall back to the built-in measure registry shared with the parsers.
  return MeasureByName(name);
}

std::vector<std::string> Catalog::ModelNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return KeysOf(models_);
}

std::vector<std::string> Catalog::HypothesisSetNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return KeysOf(hypothesis_sets_);
}

std::vector<std::string> Catalog::DatasetNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return KeysOf(datasets_);
}

uint64_t Catalog::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

namespace {

// Split a model's units into consecutive layers of `layer_size` units
// ("layer0", "layer1", …) — shared by GroupByLayer and the catalog's
// registered layer partitions.
std::vector<UnitGroupSpec> LayerGroups(size_t total, size_t layer_size) {
  std::vector<UnitGroupSpec> groups;
  for (size_t begin = 0, layer = 0; begin < total;
       begin += layer_size, ++layer) {
    UnitGroupSpec group;
    group.group_id = "layer" + std::to_string(layer);
    for (size_t u = begin; u < std::min(total, begin + layer_size); ++u) {
      group.unit_ids.push_back(static_cast<int>(u));
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace

Result<InspectPlan> Catalog::Compile(
    const InspectRequest& request,
    const InspectOptions& default_options) const {
  InspectPlan plan;
  plan.options = request.options.value_or(default_options);
  plan.min_abs_unit_score = request.min_abs_unit_score;
  // Every name resolves under one lock acquisition, so the plan is the
  // catalog as of one version (InspectPlan::catalog_version).
  std::unique_lock<std::mutex> lock(mu_);
  plan.catalog_version = version_;

  // --- Models.
  if (request.models.empty()) {
    return Status::Invalid("INSPECT requires a model");
  }
  for (const InspectRequest::ModelRef& ref : request.models) {
    const Extractor* extractor = ref.extractor;
    if (extractor == nullptr) {
      if (ref.name.empty()) {
        return Status::Invalid("model reference has neither a catalog name "
                               "nor an inline extractor");
      }
      DB_ASSIGN_OR_RETURN(CatalogModel entry,
                          Lookup(models_, ref.name, "model"));
      extractor = entry.extractor;
    }
    if (extractor == nullptr) {
      return Status::Invalid("model extractor is null" +
                             (ref.name.empty() ? "" : ": " + ref.name));
    }
    ModelSpec spec;
    spec.extractor = extractor;
    if (ref.group_by_layer > 0) {
      spec.groups = LayerGroups(extractor->num_units(), ref.group_by_layer);
    } else if (!ref.groups.empty()) {
      spec.groups = ref.groups;
      for (const UnitGroupSpec& group : spec.groups) {
        for (int uid : group.unit_ids) {
          if (uid < 0 ||
              static_cast<size_t>(uid) >= extractor->num_units()) {
            return Status::OutOfRange(
                "unit " + std::to_string(uid) + " out of range for model '" +
                extractor->model_id() + "' (" +
                std::to_string(extractor->num_units()) + " units)");
          }
        }
      }
    } else {
      spec = AllUnitsGroup(extractor);
    }
    plan.models.push_back(std::move(spec));
  }

  // --- Hypotheses: inline first, then the named sets, deduped by name.
  std::set<std::string> seen_names;
  auto add_hypothesis = [&](const HypothesisPtr& hyp) {
    if (hyp != nullptr && seen_names.insert(hyp->name()).second) {
      plan.hypotheses.push_back(hyp);
    }
  };
  for (const HypothesisPtr& hyp : request.hypotheses) add_hypothesis(hyp);
  for (const std::string& set_name : request.hypothesis_sets) {
    DB_ASSIGN_OR_RETURN(std::vector<HypothesisPtr> set,
                        Lookup(hypothesis_sets_, set_name, "hypothesis set"));
    for (const HypothesisPtr& hyp : set) add_hypothesis(hyp);
  }
  if (!request.hypothesis_filter.empty()) {
    std::set<std::string> keep(request.hypothesis_filter.begin(),
                               request.hypothesis_filter.end());
    for (const std::string& name : keep) {
      if (seen_names.count(name) == 0) {
        return Status::NotFound("hypothesis '" + name +
                                "' not found in the requested sets");
      }
    }
    std::vector<HypothesisPtr> filtered;
    for (const HypothesisPtr& hyp : plan.hypotheses) {
      if (keep.count(hyp->name()) > 0) filtered.push_back(hyp);
    }
    plan.hypotheses = std::move(filtered);
  }
  if (plan.hypotheses.empty()) {
    return Status::Invalid("INSPECT requires at least one hypothesis");
  }

  // --- Dataset (inline wins over the catalog name).
  if (request.dataset != nullptr) {
    plan.dataset = request.dataset;
  } else if (!request.dataset_name.empty()) {
    DB_ASSIGN_OR_RETURN(CatalogDataset entry,
                        Lookup(datasets_, request.dataset_name, "dataset"));
    plan.dataset = entry.dataset;
    plan.dataset_fingerprint = entry.fingerprint;
  }
  if (plan.dataset == nullptr) {
    return Status::Invalid("INSPECT requires an OVER dataset");
  }

  // --- Measures (default: Pearson correlation, as in the paper).
  for (const MeasureFactoryPtr& measure : request.measures) {
    if (measure != nullptr) plan.measures.push_back(measure);
  }
  for (const std::string& name : request.measure_names) {
    DB_ASSIGN_OR_RETURN(MeasureFactoryPtr measure, MeasureLocked(name));
    plan.measures.push_back(std::move(measure));
  }
  lock.unlock();
  // Every model must be able to read the dataset's symbols.
  for (const ModelSpec& spec : plan.models) {
    DB_RETURN_NOT_OK(spec.extractor->CheckDataset(*plan.dataset));
  }
  if (plan.measures.empty()) {
    plan.measures.push_back(std::make_shared<CorrelationScore>("pearson"));
  }
  // An inline dataset has no registration snapshot: hash its content, off
  // the catalog lock.
  if (request.dataset != nullptr) {
    plan.dataset_fingerprint = DatasetFingerprint(*request.dataset);
  }
  return plan;
}

namespace {

void HashStr(const std::string& s, uint64_t* h) {
  *h = Fnv1a(s.data(), s.size(), *h);
  *h = Fnv1a(";", 1, *h);
}

template <typename T>
void HashPod(const T& value, uint64_t* h) {
  *h = Fnv1a(&value, sizeof(value), *h);
}

/// The option values that can change scores or row sets; pointers
/// (store, caches, pool, cancel) and purely observational fields never
/// participate.
void HashOptions(const InspectOptions& o, uint64_t* h) {
  HashPod(o.block_size, h);
  HashPod(o.shuffle_seed, h);
  HashPod(o.passes, h);
  HashPod(o.streaming, h);
  HashPod(o.early_stopping, h);
  HashPod(o.model_merging, h);
  HashPod(o.corr_epsilon, h);
  HashPod(o.logreg_epsilon, h);
  HashPod(o.default_epsilon, h);
  // The shard count participates only under early stopping. Full sweeps
  // are shard-count-invariant: every mergeable measure's shard merge is
  // kExact (integer counts) or kBitExact (canonical pairwise-tree
  // reduction of per-block moments), and non-mergeable measures run on
  // the sequential lane regardless of shard count — so one cached result
  // serves every shard count. Early stopping breaks the invariance (each
  // shard lane truncates at its own convergence point, so the set of
  // processed blocks depends on the dealing), hence those runs stay
  // keyed by the count their plan pinned (Scheduler::PlanJob).
  if (o.early_stopping) HashPod(o.num_shards, h);
  HashPod(o.time_budget_s, h);
  HashPod(o.max_blocks, h);
}

}  // namespace

std::optional<uint64_t> InspectRequestFingerprint(
    const InspectRequest& request, const InspectPlan& compiled,
    const InspectOptions& options) {
  // Cacheable requests are fully name-resolved: inline extractor,
  // hypothesis, or measure objects have no stable identity to key on.
  if (request.models.empty()) return std::nullopt;
  for (const InspectRequest::ModelRef& ref : request.models) {
    if (ref.extractor != nullptr || ref.name.empty()) return std::nullopt;
  }
  if (!request.hypotheses.empty()) return std::nullopt;
  if (!request.measures.empty()) return std::nullopt;

  DB_DCHECK(compiled.models.size() == request.models.size());

  uint64_t h = kFnvOffsetBasis;
  // A result an older extraction kernel computed is never served.
  HashPod(kExtractionKernelVersion, &h);
  for (size_t m = 0; m < request.models.size(); ++m) {
    const InspectRequest::ModelRef& ref = request.models[m];
    HashStr(ref.name, &h);
    // The extractor's model id, as the unit tier keys it: a model
    // re-registered under its name with a fresh id is never served the
    // old model's results.
    HashStr(compiled.models[m].extractor->model_id(), &h);
    HashPod(ref.group_by_layer, &h);
    for (const UnitGroupSpec& group : ref.groups) {
      HashStr(group.group_id, &h);
      h = Fnv1a(group.unit_ids.data(), group.unit_ids.size() * sizeof(int),
                h);
    }
  }
  for (const std::string& set : request.hypothesis_sets) HashStr(set, &h);
  HashStr("|filter", &h);
  for (const std::string& name : request.hypothesis_filter) HashStr(name, &h);
  HashPod(compiled.dataset_fingerprint, &h);
  HashStr("|measures", &h);
  for (const std::string& name : request.measure_names) HashStr(name, &h);
  const bool has_min = request.min_abs_unit_score.has_value();
  HashPod(has_min, &h);
  if (has_min) HashPod(*request.min_abs_unit_score, &h);
  HashOptions(options, &h);
  return h;
}

std::optional<uint64_t> InspectRequestFingerprint(
    const InspectRequest& request, const Catalog& catalog,
    const InspectOptions& options) {
  Result<InspectPlan> plan = catalog.Compile(request, options);
  if (!plan.ok()) return std::nullopt;
  return InspectRequestFingerprint(request, *plan, options);
}

Status CheckHypothesisOutputFormat(const InspectPlan& plan) {
  if (plan.dataset->num_records() == 0) return Status::OK();
  const Record& probe = plan.dataset->record(0);
  for (const HypothesisPtr& hyp : plan.hypotheses) {
    const size_t got = hyp->Eval(probe).size();
    if (got != plan.dataset->ns()) {
      return Status::Invalid(
          "hypothesis '" + hyp->name() + "' emitted " + std::to_string(got) +
          " behaviors for a record of " +
          std::to_string(plan.dataset->ns()) + " symbols");
    }
  }
  return Status::OK();
}

Result<ResultTable> RunPlan(const InspectPlan& plan, RuntimeStats* stats,
                            const PipelinePlan* pipeline) {
  DB_RETURN_NOT_OK(CheckHypothesisOutputFormat(plan));
  // A deadline that already passed never reaches the engine: callers get
  // the typed error without paying for planning-stage extraction.
  if (plan.options.deadline != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() >= plan.options.deadline) {
    if (stats != nullptr) stats->deadline_exceeded = true;
    return Status::DeadlineExceeded(
        "inspection deadline expired before execution started");
  }
  RuntimeStats local_stats;
  RuntimeStats* run_stats = stats != nullptr ? stats : &local_stats;
  ResultTable results =
      pipeline != nullptr
          ? Inspect(*pipeline, plan.models, *plan.dataset, plan.measures,
                    plan.hypotheses, plan.options, run_stats)
          : Inspect(plan.models, *plan.dataset, plan.measures,
                    plan.hypotheses, plan.options, run_stats);
  // Deadline truncation is an error, not a silently partial table: the
  // pipeline stopped at the first block boundary past the deadline, so
  // the scores cover only a prefix of the plan. (Cancellation keeps its
  // existing partial-result contract — the scheduler resolves cancelled
  // jobs from stats->cancelled, not from here.)
  if (run_stats->deadline_exceeded && !run_stats->cancelled) {
    return Status::DeadlineExceeded(
        "inspection exceeded its deadline after " +
        std::to_string(run_stats->blocks_processed) + " of " +
        std::to_string(run_stats->blocks_total_planned) + " planned blocks");
  }
  return ApplyHaving(plan, std::move(results));
}

ResultTable ApplyHaving(const InspectPlan& plan, ResultTable results) {
  if (!plan.min_abs_unit_score.has_value()) return results;
  const float threshold = *plan.min_abs_unit_score;
  return results.Filter([threshold](const ResultRow& row) {
    return row.unit >= 0 && !std::isnan(row.unit_score) &&
           std::fabs(row.unit_score) > threshold;
  });
}

}  // namespace deepbase
