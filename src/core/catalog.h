// The shared inspection catalog (paper §4: DNI is declarative — one
// inspect() verb over a catalog of models, hypotheses, and datasets). All
// front doors — the fluent InspectQuery builder, the textual INSPECT
// parser, and the SQL layer's Appendix-B statements — resolve names
// through one Catalog and compile to the same InspectRequest, which is the
// prerequisite for session-level batching, caching, and async serving.
//
// The catalog stores non-owning pointers: registered extractors, datasets,
// and user tables must outlive it.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "relational/datum.h"

namespace deepbase {

/// \brief A registered model: its extractor, the layer partition of its
/// units (0 = one layer), and free-form attributes (e.g. epoch) surfaced
/// by the SQL layer's `models` relation.
struct CatalogModel {
  const Extractor* extractor = nullptr;
  size_t layer_size = 0;
  std::map<std::string, Datum> attrs;
};

/// \brief A registered dataset plus a snapshot of its content fingerprint
/// (Compile copies it into InspectPlan::dataset_fingerprint, which keys the
/// session's result cache and shared-scan groups; the store path
/// recomputes DatasetFingerprint live when keying entries).
struct CatalogDataset {
  const Dataset* dataset = nullptr;
  uint64_t fingerprint = 0;
};

/// \brief The declarative form of one inspection (paper Def. 2): models,
/// hypotheses, a dataset, and measures — each referenced either by catalog
/// name or inline. Every frontend compiles to this struct; the engine-
/// facing plan is produced by Catalog::Compile.
struct InspectRequest {
  struct ModelRef {
    /// Catalog name; empty when `extractor` is given inline.
    std::string name;
    const Extractor* extractor = nullptr;
    /// Explicit unit groups. Empty = all units as one group (or per-layer
    /// groups when group_by_layer > 0).
    std::vector<UnitGroupSpec> groups;
    /// Partition the model's units into consecutive layers of this size.
    size_t group_by_layer = 0;
  };

  std::vector<ModelRef> models;
  /// Catalog hypothesis-set names, resolved and concatenated…
  std::vector<std::string> hypothesis_sets;
  /// …plus inline hypotheses. Duplicate function names are dropped.
  std::vector<HypothesisPtr> hypotheses;
  /// If non-empty, keep only hypothesis functions with these names (the
  /// SQL layer's WHERE-clause selection). Unknown names are errors.
  std::vector<std::string> hypothesis_filter;

  /// The OVER dataset: by catalog name, or inline (inline wins).
  std::string dataset_name;
  const Dataset* dataset = nullptr;

  /// Measures by registry name (see Catalog::GetMeasure) and/or inline.
  /// Empty = the paper's INSPECT default, Pearson correlation.
  std::vector<std::string> measure_names;
  std::vector<MeasureFactoryPtr> measures;

  /// HAVING |unit_score| > x, applied after inspection.
  std::optional<float> min_abs_unit_score;

  /// Engine options; unset = the executing session's defaults.
  std::optional<InspectOptions> options;
};

/// \brief A fully resolved inspection, ready for the engine.
struct InspectPlan {
  std::vector<ModelSpec> models;
  std::vector<HypothesisPtr> hypotheses;
  std::vector<MeasureFactoryPtr> measures;
  const Dataset* dataset = nullptr;
  InspectOptions options;
  std::optional<float> min_abs_unit_score;
  /// The catalog version Compile resolved every name at (one lock
  /// acquisition): a job running this plan runs that version's
  /// definitions, however the catalog changes afterwards.
  uint64_t catalog_version = 0;
  /// The dataset's content fingerprint: the catalog's registration
  /// snapshot for a named dataset, a live hash for an inline one.
  uint64_t dataset_fingerprint = 0;
};

/// \brief Registry of named models, hypothesis sets, datasets, and
/// measures. Registration overwrites; lookups return copies, so a catalog
/// may be read by concurrent inspection jobs while (rarely) being
/// registered into. Version() changes on every registration — the SQL
/// layer uses it to invalidate its materialized catalog relations.
class Catalog {
 public:
  void RegisterModel(const std::string& name, const Extractor* extractor,
                     size_t layer_size = 0,
                     std::map<std::string, Datum> attrs = {});
  void RegisterHypotheses(const std::string& set_name,
                          std::vector<HypothesisPtr> hypotheses);
  void RegisterDataset(const std::string& name, const Dataset* dataset);
  /// \brief Owning registration: the catalog keeps `dataset` alive for
  /// its own lifetime (re-registration under the same name keeps earlier
  /// objects alive too — a running job may still be reading them). Used
  /// by surfaces that materialize datasets on behalf of remote callers
  /// (the network serving layer), where no host object can own them.
  void RegisterDataset(const std::string& name,
                       std::shared_ptr<const Dataset> dataset);
  /// \brief Register a custom measure factory; built-in measure names
  /// (pearson, jaccard, logreg_l1, …) resolve without registration.
  void RegisterMeasure(const std::string& name, MeasureFactoryPtr factory);

  Result<CatalogModel> GetModel(const std::string& name) const;
  Result<std::vector<HypothesisPtr>> GetHypotheses(
      const std::string& set_name) const;
  Result<CatalogDataset> GetDataset(const std::string& name) const;
  Result<MeasureFactoryPtr> GetMeasure(const std::string& name) const;

  std::vector<std::string> ModelNames() const;
  std::vector<std::string> HypothesisSetNames() const;
  std::vector<std::string> DatasetNames() const;

  /// \brief Monotonic counter, bumped by every Register* call.
  uint64_t version() const;

  /// \brief Observer invoked (with the new version, outside the catalog
  /// lock) after every Register* — the synchronous invalidation hook the
  /// scheduler's result cache uses to close the stale-admission window:
  /// the cache's admission floor rises the moment the catalog mutates,
  /// not at the next submission. One listener; nullptr clears it.
  void SetMutationListener(std::function<void(uint64_t)> listener);

  /// \brief Resolve every name in `request` and produce the engine plan,
  /// under one lock acquisition (see InspectPlan::catalog_version).
  /// Returns descriptive errors: kNotFound for unknown catalog names,
  /// kInvalidArgument for structurally invalid requests (no model, no
  /// dataset, empty hypothesis list, out-of-range unit ids) and for a
  /// dataset a model cannot read (Extractor::CheckDataset: a symbol id
  /// outside an LSTM's vocabulary).
  Result<InspectPlan> Compile(const InspectRequest& request,
                              const InspectOptions& default_options) const;

 private:
  /// Bump version_ under the lock and invoke the mutation listener after
  /// releasing it (listeners may read back through the catalog).
  void BumpVersion(std::unique_lock<std::mutex> lock);
  /// A registered measure, else the built-in one of that name. Caller
  /// holds mu_.
  Result<MeasureFactoryPtr> MeasureLocked(const std::string& name) const;

  mutable std::mutex mu_;
  uint64_t version_ = 0;
  std::function<void(uint64_t)> mutation_listener_;
  std::map<std::string, CatalogModel> models_;
  std::map<std::string, std::vector<HypothesisPtr>> hypothesis_sets_;
  std::map<std::string, CatalogDataset> datasets_;
  /// Keep-alive for owning registrations (append-only; freed with the
  /// catalog, after the owning session has joined its jobs).
  std::vector<std::shared_ptr<const Dataset>> owned_datasets_;
  std::map<std::string, MeasureFactoryPtr> measures_;
};

/// \brief Result-cache and dedup key of a fully catalog-resolved request:
/// its names, the model ids of the extractors they resolved to and the
/// dataset fingerprint (both from `compiled`, the request's compiled
/// plan), the extraction kernel version and the score-affecting option
/// values; nullopt for inline extractor/hypothesis/measure objects.
std::optional<uint64_t> InspectRequestFingerprint(
    const InspectRequest& request, const InspectPlan& compiled,
    const InspectOptions& options);
/// \brief The same, compiling `request` against `catalog`; nullopt when
/// it does not compile.
std::optional<uint64_t> InspectRequestFingerprint(
    const InspectRequest& request, const Catalog& catalog,
    const InspectOptions& options);

/// \brief Pre-flight the hypothesis output format (paper §4.1: "output
/// formats are checked during execution"): every hypothesis must emit one
/// behavior per record symbol, or the plan fails kInvalidArgument before
/// any work starts. Local and distributed runs both call it.
Status CheckHypothesisOutputFormat(const InspectPlan& plan);

/// \brief The plan's HAVING |unit_score| > x filter over an assembled
/// table (identity when the plan has none): keeps unit rows with a finite
/// score above the threshold. Local and sliced cluster runs both apply it.
ResultTable ApplyHaving(const InspectPlan& plan, ResultTable results);

/// \brief Execute a compiled plan: pre-flight hypothesis output formats,
/// run the engine, and apply the HAVING filter. Every frontend runs a
/// request as Catalog::Compile then RunPlan; session jobs compile and
/// plan once, in Scheduler::PlanJob, and pass their `pipeline` (planned
/// over this plan at its pinned num_shards). Without one, the engine
/// resolves the shard count and plans the pipeline itself.
Result<ResultTable> RunPlan(const InspectPlan& plan,
                            RuntimeStats* stats = nullptr,
                            const PipelinePlan* pipeline = nullptr);

}  // namespace deepbase
