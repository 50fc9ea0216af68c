// EXPLAIN / EXPLAIN ANALYZE implementation (see explain.h for the
// contract). The plan renders decisions made elsewhere, each by the
// function that makes it at run time: Scheduler::Probe (the job's
// JobPlan — its one Catalog::Compile and everything derived from it — and
// the admission verdict), BehaviorStore::PeekTier (store residency), the
// pipeline's lane rules (FusesIntoComposite, PairMergeExactness) and
// InspectionSession::ProbeCluster (the coordinator's dispatch decision).
// None of them moves a counter, so a dry run executes zero blocks.

#include "service/explain.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "core/behavior_store.h"
#include "core/block_pipeline.h"
#include "core/inspect_parser.h"
#include "service/scheduler.h"
#include "tensor/matrix_store.h"
#include "tensor/simd.h"
#include "util/failpoint.h"
#include "util/fnv.h"
#include "util/metrics.h"

namespace deepbase {

namespace {

// Fixed-precision float rendering: the determinism contract says the same
// plan renders byte-identically, so every double goes through one format.
std::string FmtSeconds(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

const char* TierName(BehaviorStore::Tier tier) {
  switch (tier) {
    case BehaviorStore::Tier::kMemory:
      return "memory";
    case BehaviorStore::Tier::kDisk:
      return "disk";
    case BehaviorStore::Tier::kMmap:
      return "mmap (out-of-core)";
    case BehaviorStore::Tier::kMiss:
      return "miss (will extract)";
  }
  return "unknown";
}

// Quality rank for picking the weakest merge guarantee across a measure's
// hypotheses (enum declaration order is not quality order).
int ExactnessRank(MergeExactness e) {
  switch (e) {
    case MergeExactness::kNone:
      return 0;
    case MergeExactness::kReassociated:
      return 1;
    case MergeExactness::kExact:
      return 2;
    case MergeExactness::kBitExact:
      return 3;
  }
  return 0;
}

const char* ExactnessLabel(int rank) {
  switch (rank) {
    case 0:
      return "none (sequential lane)";
    case 1:
      return "reassociated";
    case 2:
      return "exact";
    case 3:
      return "bit-exact";
  }
  return "unknown";
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ",";
    out += n;
  }
  return out;
}

void JsonEscapeTo(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  JsonEscapeTo(s, &out);
  out += "\"";
  return out;
}

void RenderFields(
    const std::vector<std::pair<std::string, std::string>>& fields,
    std::string* out) {
  bool first = true;
  for (const auto& [key, value] : fields) {
    *out += first ? " " : " ";
    first = false;
    if (key.empty()) {
      *out += value;
    } else {
      *out += key + "=" + value;
    }
  }
}

void RenderNode(const PlanNode& node, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent), ' ');
  *out += node.name + ":";
  RenderFields(node.fields, out);
  if (!node.actuals.empty()) {
    *out += "  | actual:";
    RenderFields(node.actuals, out);
  }
  *out += "\n";
  for (const std::string& d : node.divergences) {
    out->append(static_cast<size_t>(indent) + 2, ' ');
    *out += "!! " + d + "\n";
  }
  for (const PlanNode& child : node.children) {
    RenderNode(child, indent + 2, out);
  }
}

void NodeJson(const PlanNode& node, std::string* out) {
  *out += "{\"name\":" + JsonStr(node.name) + ",\"fields\":[";
  for (size_t i = 0; i < node.fields.size(); ++i) {
    if (i > 0) *out += ",";
    *out += "[" + JsonStr(node.fields[i].first) + "," +
            JsonStr(node.fields[i].second) + "]";
  }
  *out += "],\"actuals\":[";
  for (size_t i = 0; i < node.actuals.size(); ++i) {
    if (i > 0) *out += ",";
    *out += "[" + JsonStr(node.actuals[i].first) + "," +
            JsonStr(node.actuals[i].second) + "]";
  }
  *out += "],\"divergences\":[";
  for (size_t i = 0; i < node.divergences.size(); ++i) {
    if (i > 0) *out += ",";
    *out += JsonStr(node.divergences[i]);
  }
  *out += "],\"children\":[";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) *out += ",";
    NodeJson(node.children[i], out);
  }
  *out += "]}";
}

void CollectDivergences(const PlanNode& node, std::vector<std::string>* out) {
  for (const std::string& d : node.divergences) out->push_back(d);
  for (const PlanNode& child : node.children) CollectDivergences(child, out);
}

// ---------------------------------------------------------------------------
// Plan assembly (the dry-run half of EXPLAIN).
// ---------------------------------------------------------------------------

// A rendered plan plus the decisions it renders, which ANALYZE compares
// against what the job did.
struct PlannedJob {
  InspectionPlan plan;
  SchedulerProbe scheduler;
  ClusterDispatch cluster;
};

std::string AdmissionVerdict(const Admission& admission) {
  switch (admission.outcome) {
    case Admission::Outcome::kRejected:
      return "reject (" + admission.status.message() + ")";
    case Admission::Outcome::kCacheHit:
      return "admit (result-cache hit)";
    case Admission::Outcome::kWaiter:
      return "admit (dedup waiter)";
    case Admission::Outcome::kLeader:
      return "admit (leader)";
  }
  return "unknown";
}

Result<PlannedJob> BuildPlan(InspectionSession* session,
                             const InspectRequest& request) {
  PlannedJob planned;
  planned.scheduler = session->scheduler().Probe(request);
  const SchedulerProbe& probe = planned.scheduler;
  const JobPlan& job = *probe.plan;
  // A request that does not compile fails as Inspect would.
  DB_RETURN_NOT_OK(job.status);
  const InspectPlan& compiled = job.compiled;
  planned.cluster = session->ProbeCluster(request, compiled);
  const Admission::Outcome outcome = probe.admission.outcome;
  // The admission rule stops at its first deciding stage; the probe never
  // evaluates failpoints, so a probed deadline verdict is the only
  // rejection that precedes the cache.
  const bool rejected_at_deadline =
      outcome == Admission::Outcome::kRejected &&
      probe.admission.status.code() == StatusCode::kDeadlineExceeded;
  BehaviorStore* store = session->store();

  PlanNode& root = planned.plan.root;
  root.name = "inspect";
  {
    std::vector<std::string> model_names;
    for (const auto& m : request.models) {
      model_names.push_back(m.name.empty() ? "<inline>" : m.name);
    }
    root.Add("models", JoinNames(model_names));
    std::string hyp = JoinNames(request.hypothesis_sets);
    if (!request.hypotheses.empty()) {
      if (!hyp.empty()) hyp += ",";
      hyp += "<" + std::to_string(request.hypotheses.size()) + " inline>";
    }
    root.Add("hypothesis_sets", hyp);
    root.Add("dataset", request.dataset == nullptr
                            ? request.dataset_name
                            : request.dataset_name.empty()
                                  ? "<inline>"
                                  : request.dataset_name + " (inline)");
    std::vector<std::string> measure_names;
    for (const auto& f : compiled.measures) measure_names.push_back(f->name());
    root.Add("measures", JoinNames(measure_names));
  }

  // --- admission ---
  {
    PlanNode node;
    node.name = "admission";
    node.Add("", AdmissionVerdict(probe.admission));
    node.Add("est_queued_bytes", std::to_string(job.queued_bytes));
    node.Add("active_jobs", std::to_string(probe.active_jobs));
    node.Add("queued_bytes", std::to_string(probe.queued_bytes));
    root.children.push_back(std::move(node));
  }

  // --- result cache / dedup ---
  {
    PlanNode node;
    node.name = "cache";
    if (!job.fingerprint.has_value()) {
      node.Add("", "not cacheable (inline definitions have no fingerprint)");
    } else if (!job.cacheable) {
      node.Add("", "disabled");
    } else if (outcome == Admission::Outcome::kCacheHit) {
      node.Add("", "hit (" + probe.admission.cache_tier + ")");
    } else if (rejected_at_deadline) {
      node.Add("", "not consulted (rejected at the deadline)");
    } else if (!job.deterministic) {
      node.Add("", "miss (volatile run; result will not be cached)");
    } else {
      node.Add("", "miss (will compute and admit)");
    }
    if (job.fingerprint.has_value()) {
      node.Add("fingerprint", HexU64(*job.fingerprint));
      node.Add("catalog_version", std::to_string(compiled.catalog_version));
    }
    root.children.push_back(std::move(node));
  }
  {
    PlanNode node;
    node.name = "dedup";
    if (!job.fingerprint.has_value()) {
      node.Add("", "not dedupable (inline definitions have no fingerprint)");
    } else if (!job.deterministic) {
      node.Add("", "not dedupable (non-deterministic options)");
    } else if (!job.dedupable) {
      node.Add("", "disabled");
    } else if (outcome == Admission::Outcome::kWaiter) {
      node.Add("", "attach as waiter on in-flight leader");
    } else if (outcome == Admission::Outcome::kCacheHit) {
      node.Add("", "not consulted (served from the result cache)");
    } else if (outcome == Admission::Outcome::kRejected) {
      node.Add("", "no identical job in flight (rejected over quota)");
    } else {
      node.Add("", "leader (no identical job in flight)");
    }
    root.children.push_back(std::move(node));
  }

  // --- shared scan ---
  {
    PlanNode node;
    node.name = "shared-scan";
    if (!probe.shared_scan_enabled) {
      node.Add("", "disabled");
    } else {
      node.Add("", probe.group_exists ? "join existing group" : "new group");
      node.Add("group", job.group_key);
    }
    root.children.push_back(std::move(node));
  }

  // --- input residency (behavior store tiers) ---
  {
    PlanNode node;
    node.name = "inputs";
    if (store == nullptr) {
      node.Add("", "no store (live extraction every run)");
    } else {
      const Dataset& dataset = *compiled.dataset;
      node.Add("records", std::to_string(dataset.num_records()));
      node.Add("ns", std::to_string(dataset.ns()));
      for (const ModelSpec& model : compiled.models) {
        PlanNode unit;
        unit.name = "unit-behaviors";
        unit.Add("model", model.extractor->model_id());
        const std::string key =
            UnitBehaviorKey(model.extractor->model_id(), dataset);
        unit.Add("key", key);
        unit.Add("tier", TierName(store->PeekTier(key)));
        unit.Add("rows",
                 std::to_string(dataset.num_records() * dataset.ns()));
        const size_t cols = model.extractor->num_units();
        unit.Add("cols", std::to_string(cols));
        unit.Add("lda", std::to_string(PaddedLda(cols)));
        node.children.push_back(std::move(unit));
      }
      if (compiled.options.hypothesis_store_tier) {
        for (const HypothesisPtr& hyp : compiled.hypotheses) {
          PlanNode hn;
          hn.name = "hyp-behaviors";
          hn.Add("hypothesis", hyp->name());
          const std::string key = HypothesisBehaviorKey(hyp->name(), dataset);
          hn.Add("key", key);
          hn.Add("tier", TierName(store->PeekTier(key)));
          hn.Add("rows", std::to_string(dataset.num_records()));
          hn.Add("cols", std::to_string(dataset.ns()));
          hn.Add("lda", std::to_string(PaddedLda(dataset.ns())));
          node.children.push_back(std::move(hn));
        }
      }
    }
    root.children.push_back(std::move(node));
  }

  // --- shard partition + per-measure merge lanes ---
  {
    const InspectOptions& options = compiled.options;
    PlanNode node;
    node.name = "partition";
    node.Add("shards", std::to_string(job.resolved_shard_count));
    node.Add("block_size", std::to_string(options.block_size));
    node.Add("passes", std::to_string(options.passes));
    node.Add("streaming", options.streaming ? "on" : "off");
    node.Add("early_stopping", options.early_stopping ? "on" : "off");
    node.Add("model_merging", options.model_merging ? "on" : "off");
    for (const MeasureFactoryPtr& factory : compiled.measures) {
      PlanNode m;
      m.name = "measure";
      m.Add("", factory->name());
      bool merged_composite = false;
      int worst = 3;
      bool any = false;
      for (const HypothesisPtr& hyp : compiled.hypotheses) {
        if (FusesIntoComposite(*factory, *hyp, options.model_merging)) {
          merged_composite = true;
          continue;
        }
        worst = std::min(worst,
                         ExactnessRank(PairMergeExactness(*factory, *hyp)));
        any = true;
      }
      if (merged_composite) {
        m.Add("merge", any ? std::string("merged composite (sequential) + ") +
                                 ExactnessLabel(worst)
                           : "merged composite (sequential)");
      } else {
        m.Add("merge", any ? ExactnessLabel(worst) : "no hypotheses");
      }
      node.children.push_back(std::move(m));
    }
    root.children.push_back(std::move(node));
  }

  // --- cluster placement ---
  {
    const ClusterDispatch& cluster = planned.cluster;
    PlanNode node;
    node.name = "cluster";
    switch (cluster.mode) {
      case ClusterDispatch::Mode::kNone:
        node.Add("", "none (local engine)");
        break;
      case ClusterDispatch::Mode::kLocalFallback:
        node.Add("",
                 "local fallback (inline definitions cannot cross the wire)");
        break;
      case ClusterDispatch::Mode::kNoWorkers:
        node.Add("", cluster.degrade_to_local
                         ? "no live workers (will degrade to local engine)"
                         : "no live workers (will fail kUnavailable)");
        break;
      case ClusterDispatch::Mode::kSliced:
      case ClusterDispatch::Mode::kWhole: {
        const bool sliced = cluster.mode == ClusterDispatch::Mode::kSliced;
        node.Add("", sliced ? "dispatch (sliced)" : "dispatch (whole job)");
        node.Add("workers", JoinNames(cluster.live_workers));
        node.Add("total_shards", std::to_string(cluster.total_shards));
        node.Add("degrade_to_local", cluster.degrade_to_local ? "on" : "off");
        for (const cluster::ShardRange& range : cluster.ranges) {
          PlanNode a;
          a.name = sliced ? "range" : "assignment";
          a.Add("shards", "[" + std::to_string(range.lo) + "," +
                              std::to_string(range.hi) + ")");
          // Sliced ranges spread round-robin over the sorted live set,
          // keyed by a global assignment id the plan cannot predict.
          a.Add("worker", sliced ? "(round-robin)" : cluster.worker);
          node.children.push_back(std::move(a));
        }
        break;
      }
    }
    root.children.push_back(std::move(node));
  }

  // --- kernel build ---
  {
    PlanNode node;
    node.name = "kernel";
#if DEEPBASE_SIMD_ENABLED
    node.Add("", "simd");
#else
    node.Add("", "scalar");
#endif
    node.Add("float_lanes", std::to_string(vec::kFloatLanes));
    node.Add("lda_floats", std::to_string(vec::kLdaFloats));
    root.children.push_back(std::move(node));
  }

  // --- cost estimate from recent job history ---
  {
    PlanNode node;
    node.name = "cost";
    Histogram* latency = MetricsRegistry::Global().GetHistogram(
        "deepbase_job_latency_seconds", DefaultLatencyBounds());
    const Histogram::Snapshot snap = latency->Snap();
    if (outcome == Admission::Outcome::kCacheHit) {
      node.Add("", "cache hit: zero engine phases expected");
    } else if (outcome == Admission::Outcome::kRejected) {
      node.Add("", "rejected at admission: zero engine phases expected");
    } else if (snap.count == 0) {
      node.Add("", "no job history");
    } else {
      node.Add("", "estimated from recent job history");
      node.Add("history_jobs", std::to_string(snap.count));
      node.Add("est_total_s", FmtSeconds(snap.sum / snap.count));
    }
    root.children.push_back(std::move(node));
  }

  return planned;
}

// ---------------------------------------------------------------------------
// Plan-vs-actual reconciliation (EXPLAIN ANALYZE).
// ---------------------------------------------------------------------------

struct DispatchSpan {
  uint64_t assignment = 0;
  std::string worker;
  double seconds = 0;
};

std::vector<DispatchSpan> ParseDispatchSpans(
    const std::vector<TraceSpan>& spans) {
  std::vector<DispatchSpan> out;
  for (const TraceSpan& span : spans) {
    if (span.name != "coord.dispatch") continue;
    DispatchSpan d;
    d.seconds = static_cast<double>(span.duration_ns) * 1e-9;
    size_t pos = 0;
    const std::string& tags = span.tags;
    while (pos < tags.size()) {
      size_t comma = tags.find(',', pos);
      if (comma == std::string::npos) comma = tags.size();
      const std::string kv = tags.substr(pos, comma - pos);
      const size_t eq = kv.find('=');
      if (eq != std::string::npos) {
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        if (key == "assignment") {
          d.assignment = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "worker") {
          d.worker = value;
        }
      }
      pos = comma + 1;
    }
    out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(),
            [](const DispatchSpan& a, const DispatchSpan& b) {
              return a.assignment < b.assignment;
            });
  return out;
}

void AnnotatePlan(PlannedJob* planned, const Result<ResultTable>& result,
                  const RuntimeStats& stats, const JobSummary& summary,
                  const std::vector<TraceSpan>& spans) {
  PlanNode& root = planned->plan.root;
  const Admission::Outcome outcome = planned->scheduler.admission.outcome;
  root.AddActual("status", result.ok()
                               ? (stats.cancelled ? "cancelled" : "ok")
                               : result.status().ToString());
  root.AddActual("total_s", FmtSeconds(summary.total_s));
  root.AddActual("blocks", std::to_string(stats.blocks_processed) + "/" +
                               std::to_string(stats.blocks_total_planned));
  root.AddActual("records", std::to_string(stats.records_processed));

  if (PlanNode* admission = root.Child("admission")) {
    admission->AddActual("queue_s", FmtSeconds(summary.queue_s));
  }

  const bool actual_cache_hit = stats.result_cache_hits > 0;
  if (PlanNode* cache = root.Child("cache")) {
    cache->AddActual("hit", actual_cache_hit ? "yes" : "no");
    const bool predicted_hit = outcome == Admission::Outcome::kCacheHit;
    const bool predicted_miss =
        planned->scheduler.plan->cacheable && !predicted_hit;
    if (predicted_hit && !actual_cache_hit) {
      cache->divergences.push_back(
          "predicted cache hit was not served from the cache");
    }
    if (predicted_miss && actual_cache_hit) {
      cache->divergences.push_back(
          "predicted cache miss was served from the cache");
    }
  }
  if (PlanNode* dedup = root.Child("dedup")) {
    dedup->AddActual("dedup_hits", std::to_string(stats.dedup_hits));
  }
  if (PlanNode* scan = root.Child("shared-scan")) {
    scan->AddActual("scan_extractions", std::to_string(stats.scan_extractions));
    scan->AddActual("scan_shared_hits", std::to_string(stats.scan_shared_hits));
  }
  if (PlanNode* inputs = root.Child("inputs")) {
    inputs->AddActual("unit_extraction_s", FmtSeconds(stats.unit_extraction_s));
    inputs->AddActual("hyp_extraction_s", FmtSeconds(stats.hyp_extraction_s));
    inputs->AddActual(
        "store_hits",
        std::to_string(stats.store_mem_hits) + " mem / " +
            std::to_string(stats.store_disk_hits) + " disk / " +
            std::to_string(stats.store_mmap_hits) + " mmap");
    inputs->AddActual("store_misses", std::to_string(stats.store_misses));
    inputs->AddActual(
        "hyp_store_hits",
        std::to_string(stats.store_hyp_mem_hits) + " mem / " +
            std::to_string(stats.store_hyp_disk_hits) + " disk");
    inputs->AddActual("hyp_store_misses",
                      std::to_string(stats.store_hyp_misses));
  }
  if (PlanNode* partition = root.Child("partition")) {
    partition->AddActual("num_shards", std::to_string(stats.num_shards));
    partition->AddActual("inspection_s", FmtSeconds(stats.inspection_s));
    partition->AddActual("merge_s", FmtSeconds(stats.merge_s));
    partition->AddActual("all_converged",
                         stats.all_converged ? "yes" : "no");
  }

  if (PlanNode* cluster_node = root.Child("cluster")) {
    const ClusterDispatch& cluster = planned->cluster;
    const bool predicted_dispatch =
        cluster.mode == ClusterDispatch::Mode::kSliced ||
        cluster.mode == ClusterDispatch::Mode::kWhole;
    const std::vector<DispatchSpan> dispatches = ParseDispatchSpans(spans);
    if (predicted_dispatch) {
      cluster_node->AddActual("dispatches",
                              std::to_string(dispatches.size()));
      cluster_node->AddActual("worker_hop_s",
                              FmtSeconds(stats.worker_hop_s));
      // Zip dispatch spans (sorted by their globally increasing
      // assignment id — the coordinator allocates them in range order)
      // onto the planned assignments, one child per range.
      const size_t planned = cluster_node->children.size();
      for (size_t i = 0; i < dispatches.size() && i < planned; ++i) {
        const DispatchSpan& d = dispatches[i];
        PlanNode& child = cluster_node->children[i];
        child.AddActual("worker", d.worker);
        child.AddActual("seconds", FmtSeconds(d.seconds));
        if (child.name == "assignment" && cluster.worker != d.worker) {
          child.divergences.push_back(
              "placement differed from rendezvous prediction (planned " +
              cluster.worker + ", ran on " + d.worker + ")");
        }
      }
      if (dispatches.size() > planned) {
        cluster_node->divergences.push_back(
            "shard ranges reassigned mid-run (" +
            std::to_string(dispatches.size()) + " dispatches for " +
            std::to_string(planned) + " planned assignments)");
      }
      // Degradation: the plan said "dispatch", the engine ran blocks,
      // tracing was on — and no dispatch span exists. Cache/dedup serves
      // legitimately skip the cluster, so they are excluded.
      if (dispatches.empty() && !spans.empty() && !actual_cache_hit &&
          stats.dedup_hits == 0 && stats.blocks_processed > 0) {
        cluster_node->divergences.push_back(
            "predicted cluster dispatch ran on the local engine (degraded)");
      }
    }
  }

  if (PlanNode* cost = root.Child("cost")) {
    cost->AddActual("queue_s", FmtSeconds(summary.queue_s));
    cost->AddActual("extract_s", FmtSeconds(summary.extract_s));
    cost->AddActual("score_s", FmtSeconds(summary.score_s));
    cost->AddActual("merge_s", FmtSeconds(summary.merge_s));
    cost->AddActual("worker_hop_s", FmtSeconds(summary.worker_hop_s));
    cost->AddActual("total_s", FmtSeconds(summary.total_s));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PlanNode / InspectionPlan.
// ---------------------------------------------------------------------------

PlanNode* PlanNode::Child(const std::string& child_name) {
  for (PlanNode& child : children) {
    if (child.name == child_name) return &child;
  }
  return nullptr;
}

std::string InspectionPlan::ToText() const {
  std::string out;
  RenderNode(root, 0, &out);
  return out;
}

std::string InspectionPlan::ToJson() const {
  std::string out = "{\"analyzed\":";
  out += analyzed ? "true" : "false";
  out += ",\"plan\":";
  NodeJson(root, &out);
  out += "}";
  return out;
}

std::vector<std::string> InspectionPlan::AllDivergences() const {
  std::vector<std::string> out;
  CollectDivergences(root, &out);
  return out;
}

// ---------------------------------------------------------------------------
// InspectionSession entry points.
// ---------------------------------------------------------------------------

Result<InspectionPlan> InspectionSession::Explain(
    const InspectRequest& request) {
  DB_ASSIGN_OR_RETURN(PlannedJob planned, BuildPlan(this, request));
  return std::move(planned.plan);
}

Result<InspectionPlan> InspectionSession::ExplainAnalyze(
    const InspectRequest& request) {
  // Probe BEFORE running: the plan must reflect the decisions the
  // scheduler is about to make, not the state the job leaves behind.
  DB_ASSIGN_OR_RETURN(PlannedJob planned, BuildPlan(this, request));
  JobHandle job = Submit(request);
  const Result<ResultTable>& result = job.Wait();
  planned.plan.analyzed = true;
  AnnotatePlan(&planned, result, job.Stats(), job.Summary(),
               job.TraceSpans());
  return std::move(planned.plan);
}

void InspectionSession::SetClusterProbe(ClusterProbe probe) {
  std::lock_guard<std::mutex> lock(cluster_probe_mu_);
  cluster_probe_ = std::move(probe);
}

ClusterDispatch InspectionSession::ProbeCluster(
    const InspectRequest& request, const InspectPlan& plan) const {
  ClusterProbe probe;
  {
    std::lock_guard<std::mutex> lock(cluster_probe_mu_);
    probe = cluster_probe_;
  }
  return probe ? probe(request, plan) : ClusterDispatch{};
}

// ---------------------------------------------------------------------------
// Textual frontend.
// ---------------------------------------------------------------------------

bool StripExplainInspectPrefix(std::string* statement, bool* analyze) {
  *analyze = false;
  const std::string& s = *statement;
  size_t pos = 0;
  auto skip_ws = [&] {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])))
      ++pos;
  };
  auto read_word = [&]() -> std::string {
    std::string word;
    while (pos < s.size() &&
           !std::isspace(static_cast<unsigned char>(s[pos]))) {
      word += static_cast<char>(
          std::tolower(static_cast<unsigned char>(s[pos])));
      ++pos;
    }
    return word;
  };
  skip_ws();
  if (read_word() != "explain") return false;
  skip_ws();
  const size_t after_explain = pos;
  if (read_word() == "analyze") {
    *analyze = true;
  } else {
    pos = after_explain;
  }
  skip_ws();
  *statement = s.substr(pos);
  return true;
}

Result<InspectionPlan> ExplainInspectStatement(InspectionSession* session,
                                               const std::string& statement,
                                               bool analyze) {
  // REPL frontends hand statements over with the ';' terminator still
  // attached; the textual INSPECT grammar doesn't use one.
  std::string trimmed = statement;
  while (!trimmed.empty() &&
         (std::isspace(static_cast<unsigned char>(trimmed.back())) ||
          trimmed.back() == ';')) {
    trimmed.pop_back();
  }
  DB_ASSIGN_OR_RETURN(InspectRequest request,
                      ParseInspect(trimmed, session->catalog()));
  return analyze ? session->ExplainAnalyze(request)
                 : session->Explain(request);
}

// ---------------------------------------------------------------------------
// Live introspection (statusz) + store metric export.
// ---------------------------------------------------------------------------

void PublishStoreMetrics(InspectionSession* session) {
  BehaviorStore* store = session->store();
  if (store == nullptr) return;
  MetricsRegistry& reg = MetricsRegistry::Global();
  // Counter sync: the store keeps its own cumulative counts; export the
  // delta so repeated scrapes stay monotonic without double counting.
  Counter* mmap_hits = reg.GetCounter("deepbase_store_mmap_hits_total");
  const uint64_t current = store->mmap_hits();
  const uint64_t exported = mmap_hits->Value();
  if (current > exported) mmap_hits->Inc(current - exported);
  reg.GetGauge("deepbase_store_memory_bytes")
      ->Set(static_cast<int64_t>(store->memory_bytes()));
  reg.GetGauge("deepbase_store_occupancy_bytes{ns=\"unit\"}")
      ->Set(static_cast<int64_t>(store->namespace_bytes("unit")));
  reg.GetGauge("deepbase_store_occupancy_bytes{ns=\"hyp\"}")
      ->Set(static_cast<int64_t>(store->namespace_bytes("hyp")));
  reg.GetGauge("deepbase_store_occupancy_bytes{ns=\"cache\"}")
      ->Set(static_cast<int64_t>(store->blob_namespace_bytes("cache")));
}

namespace {

const char* JobStatusName(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued:
      return "queued";
    case JobStatus::kRunning:
      return "running";
    case JobStatus::kDone:
      return "done";
    case JobStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

}  // namespace

std::string RenderStatusz(InspectionSession* session, bool json) {
  PublishStoreMetrics(session);
  const std::vector<JobHandle> jobs = session->Jobs();
  const SchedulerStats sched = session->scheduler().stats();
  BehaviorStore* store = session->store();
  // Membership only: the probe's live workers do not depend on the request.
  const ClusterDispatch cluster = session->ProbeCluster({}, {});
  const bool cluster_active = cluster.mode != ClusterDispatch::Mode::kNone;
  const std::vector<std::string> armed = failpoint::ArmedSites();

  if (json) {
    std::string out = "{\"jobs\":[";
    for (size_t i = 0; i < jobs.size(); ++i) {
      JobProgress progress;
      const JobStatus status = jobs[i].Poll(&progress);
      if (i > 0) out += ",";
      out += "{\"id\":" + std::to_string(jobs[i].id()) + ",\"status\":" +
             JsonStr(JobStatusName(status)) +
             ",\"blocks_completed\":" + std::to_string(progress.blocks_completed) +
             ",\"blocks_total\":" + std::to_string(progress.blocks_total) +
             ",\"records\":" + std::to_string(progress.records_processed) + "}";
    }
    out += "],\"scheduler\":{";
    out += "\"jobs_scheduled\":" + std::to_string(sched.jobs_scheduled);
    out += ",\"active_jobs\":" + std::to_string(sched.snapshot.active_jobs);
    out += ",\"queued_bytes\":" + std::to_string(sched.snapshot.queued_bytes);
    out += ",\"inflight_jobs\":" + std::to_string(sched.snapshot.inflight_jobs);
    out += ",\"dedup_followers\":" + std::to_string(sched.dedup_followers);
    out += ",\"admission_rejections\":" +
           std::to_string(sched.admission_rejections);
    out += "},\"result_cache\":{";
    out += "\"hits\":" + std::to_string(sched.result_cache_hits);
    out += ",\"misses\":" + std::to_string(sched.result_cache_misses);
    out += ",\"bytes\":" + std::to_string(sched.snapshot.result_cache_bytes);
    out += ",\"entries\":" +
           std::to_string(sched.snapshot.result_cache_entries);
    out += ",\"persistent_hits\":" +
           std::to_string(sched.result_cache_persistent_hits);
    out += "},\"store\":";
    if (store == nullptr) {
      out += "null";
    } else {
      out += "{\"memory_bytes\":" + std::to_string(store->memory_bytes());
      out += ",\"unit_bytes\":" + std::to_string(store->namespace_bytes("unit"));
      out += ",\"hyp_bytes\":" + std::to_string(store->namespace_bytes("hyp"));
      out += ",\"cache_blob_bytes\":" +
             std::to_string(store->blob_namespace_bytes("cache"));
      out += ",\"mem_hits\":" + std::to_string(store->mem_hits());
      out += ",\"disk_hits\":" + std::to_string(store->disk_hits());
      out += ",\"mmap_hits\":" + std::to_string(store->mmap_hits());
      out += ",\"misses\":" + std::to_string(store->misses());
      out += "}";
    }
    out += ",\"cluster\":{\"active\":";
    out += cluster_active ? "true" : "false";
    out += ",\"workers\":[";
    for (size_t i = 0; i < cluster.live_workers.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonStr(cluster.live_workers[i]);
    }
    out += "]},\"failpoints\":[";
    for (size_t i = 0; i < armed.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonStr(armed[i]);
    }
    out += "]}";
    return out;
  }

  std::string out = "statusz\n";
  out += "  jobs: " + std::to_string(jobs.size()) + "\n";
  for (const JobHandle& job : jobs) {
    JobProgress progress;
    const JobStatus status = job.Poll(&progress);
    out += "    job id=" + std::to_string(job.id()) + " status=" +
           JobStatusName(status) + " blocks=" +
           std::to_string(progress.blocks_completed) + "/" +
           std::to_string(progress.blocks_total) + " records=" +
           std::to_string(progress.records_processed) + "\n";
  }
  out += "  scheduler: jobs_scheduled=" + std::to_string(sched.jobs_scheduled) +
         " active_jobs=" + std::to_string(sched.snapshot.active_jobs) +
         " queued_bytes=" + std::to_string(sched.snapshot.queued_bytes) +
         " inflight_jobs=" + std::to_string(sched.snapshot.inflight_jobs) +
         " dedup_followers=" + std::to_string(sched.dedup_followers) +
         " admission_rejections=" +
         std::to_string(sched.admission_rejections) + "\n";
  out += "  result-cache: hits=" + std::to_string(sched.result_cache_hits) +
         " misses=" + std::to_string(sched.result_cache_misses) +
         " bytes=" + std::to_string(sched.snapshot.result_cache_bytes) +
         " entries=" + std::to_string(sched.snapshot.result_cache_entries) +
         " persistent_hits=" +
         std::to_string(sched.result_cache_persistent_hits) + "\n";
  if (store == nullptr) {
    out += "  store: none\n";
  } else {
    out += "  store: memory_bytes=" + std::to_string(store->memory_bytes()) +
           " unit_bytes=" + std::to_string(store->namespace_bytes("unit")) +
           " hyp_bytes=" + std::to_string(store->namespace_bytes("hyp")) +
           " cache_blob_bytes=" +
           std::to_string(store->blob_namespace_bytes("cache")) +
           " mem_hits=" + std::to_string(store->mem_hits()) +
           " disk_hits=" + std::to_string(store->disk_hits()) +
           " mmap_hits=" + std::to_string(store->mmap_hits()) +
           " misses=" + std::to_string(store->misses()) + "\n";
  }
  out += "  cluster: active=" + std::string(cluster_active ? "yes" : "no");
  if (cluster_active) {
    out += " workers=" + JoinNames(cluster.live_workers);
  }
  out += "\n";
  out += "  failpoints: " + (armed.empty() ? "none" : JoinNames(armed)) + "\n";
  return out;
}

}  // namespace deepbase
