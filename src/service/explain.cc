// EXPLAIN / EXPLAIN ANALYZE implementation (see explain.h for the
// contract). The plan renders decisions made elsewhere, each by the
// function that makes it at run time: Scheduler::Probe (the job's
// JobPlan — its one Catalog::Compile, its pinned shard count and its
// PipelinePlan — the admission verdict and the installed engine's
// dispatch decision) and BehaviorStore::PeekTier (store residency). None
// of them moves a counter, so a dry run executes zero blocks, and
// ExplainAnalyze runs the very JobPlan it rendered.

#include "service/explain.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <utility>

#include "core/behavior_store.h"
#include "core/inspect_parser.h"
#include "service/scheduler.h"
#include "tensor/matrix.h"
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

// Merge guarantees, weakest first (enum declaration order is not quality
// order), and their labels: a measure renders its pairs' weakest.
constexpr MergeExactness kWeakestFirst[] = {
    MergeExactness::kNone, MergeExactness::kReassociated,
    MergeExactness::kExact, MergeExactness::kBitExact};
constexpr const char* kExactnessLabels[] = {"none (sequential lane)",
                                            "reassociated", "exact",
                                            "bit-exact"};

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ",";
    out += n;
  }
  return out;
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void RenderFields(
    const std::vector<std::pair<std::string, std::string>>& fields,
    std::string* out) {
  for (const auto& [key, value] : fields) {
    *out += " " + (key.empty() ? value : key + "=" + value);
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
  auto pairs = [out](const char* key, const auto& list) {
    *out += std::string(",\"") + key + "\":[";
    for (size_t i = 0; i < list.size(); ++i) {
      *out += (i > 0 ? ",[" : "[") + JsonStr(list[i].first) + "," +
              JsonStr(list[i].second) + "]";
    }
    *out += "]";
  };
  *out += "{\"name\":" + JsonStr(node.name);
  pairs("fields", node.fields);
  pairs("actuals", node.actuals);
  *out += ",\"divergences\":[";
  for (size_t i = 0; i < node.divergences.size(); ++i) {
    *out += (i > 0 ? "," : "") + JsonStr(node.divergences[i]);
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

// The measure's merge verdict: its composites, then the weakest
// cross-shard guarantee of its pairs. One lane (S == 1) never merges.
std::string MergeLabel(const PipelinePlan& pipeline, size_t score) {
  bool composite = false;
  for (const PlannedComposite& c : pipeline.composites) {
    composite = composite || c.score_i == score;
  }
  size_t worst = std::size(kWeakestFirst);
  for (const PlannedPair& pair : pipeline.pairs) {
    if (pair.score_i != score) continue;
    worst = std::min<size_t>(
        worst, std::find(std::begin(kWeakestFirst), std::end(kWeakestFirst),
                         pair.merge) -
                   std::begin(kWeakestFirst));
  }
  const bool any = worst < std::size(kWeakestFirst);
  const std::string pairs = pipeline.num_shards == 1
                                ? "one lane (no shard merge)"
                                : any ? kExactnessLabels[worst] : "";
  if (!composite) return any ? pairs : "no hypotheses";
  return any ? "merged composite (sequential) + " + pairs
             : "merged composite (sequential)";
}

// The plan tree of a probed job; fails when the request did not compile.
Result<InspectionPlan> BuildPlan(InspectionSession* session,
                                 const SchedulerProbe& probe) {
  InspectionPlan plan;
  const JobPlan& job = *probe.plan;
  const InspectRequest& request = job.request;
  // A request that does not compile fails as Inspect would.
  DB_RETURN_NOT_OK(job.status);
  const InspectPlan& compiled = job.compiled;
  const Admission::Outcome outcome = probe.admission.outcome;
  // The admission rule stops at its first deciding stage; the probe never
  // evaluates failpoints, so a probed deadline verdict is the only
  // rejection that precedes the cache.
  const bool rejected_at_deadline =
      outcome == Admission::Outcome::kRejected &&
      probe.admission.status.code() == StatusCode::kDeadlineExceeded;

  PlanNode& root = plan.root;
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
    PlanNode& node = root.AddChild("admission");
    node.Add("", AdmissionVerdict(probe.admission));
    node.Add("est_queued_bytes", std::to_string(job.queued_bytes));
    node.Add("active_jobs", std::to_string(probe.active_jobs));
    node.Add("queued_bytes", std::to_string(probe.queued_bytes));
  }

  // --- result cache / dedup ---
  {
    PlanNode& node = root.AddChild("cache");
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
  }
  {
    PlanNode& node = root.AddChild("dedup");
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
  }

  // --- shared scan ---
  {
    PlanNode& node = root.AddChild("shared-scan");
    if (!probe.shared_scan_enabled) {
      node.Add("", "disabled");
    } else {
      node.Add("", probe.group_exists ? "join existing group" : "new group");
      node.Add("group", job.group_key);
    }
  }

  // --- inputs: what the run reads — the session's tiers locally (the
  // hypothesis tier unless the request opts out), no tier in a sliced
  // assignment, the worker's for a whole job.
  const ClusterDispatch& cluster = probe.cluster;
  const bool sliced = cluster.mode == ClusterDispatch::Mode::kSliced;
  const bool whole = cluster.mode == ClusterDispatch::Mode::kWhole;
  {
    PlanNode& node = root.AddChild("inputs");
    const bool hyp_tier = compiled.options.hypothesis_store_tier;
    BehaviorStore* const store = session->store();
    BehaviorStore* const hyp_store =
        hyp_tier ? session->hypothesis_store() : nullptr;
    const bool units = sliced || whole || store != nullptr;
    const bool hyps = sliced || (whole ? hyp_tier : hyp_store != nullptr);
    const Dataset& dataset = *compiled.dataset;
    auto add_input = [&](const char* name, const char* subject,
                         const std::string& id, const std::string& key,
                         BehaviorStore* local_store, size_t rows,
                         size_t cols) {
      PlanNode& input = node.AddChild(name);
      input.Add(subject, id);
      input.Add("key", key);
      input.Add("tier", sliced ? "live (sliced assignments read no tier)"
                        : whole ? "worker " + cluster.worker + "'s store"
                                : TierName(local_store->PeekTier(key)));
      input.Add("rows", std::to_string(rows));
      input.Add("cols", std::to_string(cols));
      input.Add("lda", std::to_string(PaddedLda(cols)));
    };
    if (!units && !hyps) {
      node.Add("", "no store (live extraction every run)");
    } else {
      node.Add("records", std::to_string(dataset.num_records()));
      node.Add("ns", std::to_string(dataset.ns()));
      if (!units) node.Add("units", "live (no store)");
      for (size_t m = 0; units && m < compiled.models.size(); ++m) {
        const Extractor& extractor = *compiled.models[m].extractor;
        add_input("unit-behaviors", "model", extractor.model_id(),
                  UnitBehaviorKey(extractor.model_id(),
                                  compiled.dataset_fingerprint),
                  store,
                  dataset.num_records() * dataset.ns(),
                  extractor.num_units());
      }
      for (size_t h = 0; hyps && h < compiled.hypotheses.size(); ++h) {
        const std::string& name = compiled.hypotheses[h]->name();
        add_input("hyp-behaviors", "hypothesis", name,
                  HypothesisBehaviorKey(name, compiled.dataset_fingerprint),
                  hyp_store,
                  dataset.num_records(), dataset.ns());
      }
    }
  }

  // --- shard partition + per-measure merge lanes: the job's PipelinePlan
  {
    const InspectOptions& options = compiled.options;
    PlanNode& node = root.AddChild("partition");
    node.Add("shards", std::to_string(job.pipeline.num_shards));
    node.Add("block_size", std::to_string(options.block_size));
    node.Add("passes", std::to_string(options.passes));
    node.Add("streaming", options.streaming ? "on" : "off");
    node.Add("early_stopping", options.early_stopping ? "on" : "off");
    node.Add("model_merging", options.model_merging ? "on" : "off");
    for (size_t s = 0; s < compiled.measures.size(); ++s) {
      PlanNode& m = node.AddChild("measure");
      m.Add("", compiled.measures[s]->name());
      m.Add("merge", MergeLabel(job.pipeline, s));
    }
  }

  // --- cluster placement ---
  {
    PlanNode& node = root.AddChild("cluster");
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
        node.Add("", sliced ? "dispatch (sliced)" : "dispatch (whole job)");
        node.Add("workers", JoinNames(cluster.live_workers));
        node.Add("total_shards", std::to_string(job.pipeline.num_shards));
        node.Add("degrade_to_local", cluster.degrade_to_local ? "on" : "off");
        for (const cluster::ShardRange& range : cluster.ranges) {
          PlanNode& a = node.AddChild(sliced ? "range" : "assignment");
          a.Add("shards", "[" + std::to_string(range.lo) + "," +
                              std::to_string(range.hi) + ")");
          // Sliced ranges spread round-robin over the sorted live set,
          // keyed by a global assignment id the plan cannot predict.
          a.Add("worker", sliced ? "(round-robin)" : cluster.worker);
        }
        break;
      }
    }
  }

  // --- kernel build ---
  {
    PlanNode& node = root.AddChild("kernel");
#if DEEPBASE_SIMD_ENABLED
    node.Add("", "simd");
#else
    node.Add("", "scalar");
#endif
    node.Add("float_lanes", std::to_string(vec::kFloatLanes));
    node.Add("lda_floats", std::to_string(vec::kLdaFloats));
  }

  // --- cost estimate from recent job history ---
  {
    PlanNode& node = root.AddChild("cost");
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
  }

  return plan;
}

// ---------------------------------------------------------------------------
// Plan-vs-actual reconciliation (EXPLAIN ANALYZE).
// ---------------------------------------------------------------------------

struct DispatchSpan {
  uint64_t assignment = 0;
  std::string worker;
  double seconds = 0;
};

// The coordinator's coord.dispatch spans, tagged
// "assignment=<id>,worker=<id>", in assignment order.
std::vector<DispatchSpan> ParseDispatchSpans(
    const std::vector<TraceSpan>& spans) {
  std::vector<DispatchSpan> out;
  for (const TraceSpan& span : spans) {
    const size_t worker = span.tags.find(",worker=");
    if (span.name != "coord.dispatch" || worker == std::string::npos) {
      continue;
    }
    out.push_back({std::strtoull(span.tags.c_str() + span.tags.find('=') + 1,
                                 nullptr, 10),
                   span.tags.substr(worker + 8),
                   static_cast<double>(span.duration_ns) * 1e-9});
  }
  std::sort(out.begin(), out.end(),
            [](const DispatchSpan& a, const DispatchSpan& b) {
              return a.assignment < b.assignment;
            });
  return out;
}

void AnnotatePlan(InspectionPlan* plan, const SchedulerProbe& probe,
                  const Result<ResultTable>& result, const RuntimeStats& stats,
                  const JobSummary& summary,
                  const std::vector<TraceSpan>& spans) {
  plan->analyzed = true;
  PlanNode& root = plan->root;
  const Admission::Outcome outcome = probe.admission.outcome;
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
    const bool predicted_miss = probe.plan->cacheable && !predicted_hit;
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
    const size_t planned = probe.plan->pipeline.num_shards;
    if (result.ok() && !actual_cache_hit && stats.dedup_hits == 0 &&
        stats.num_shards != planned) {
      partition->divergences.push_back(
          "planned shards=" + std::to_string(planned) + " but the run used " +
          std::to_string(stats.num_shards));
    }
    partition->AddActual("inspection_s", FmtSeconds(stats.inspection_s));
    partition->AddActual("merge_s", FmtSeconds(stats.merge_s));
    partition->AddActual("all_converged",
                         stats.all_converged ? "yes" : "no");
  }

  if (PlanNode* cluster_node = root.Child("cluster")) {
    const ClusterDispatch& cluster = probe.cluster;
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

PlanNode& PlanNode::AddChild(std::string child_name) {
  children.emplace_back().name = std::move(child_name);
  return children.back();
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
  return BuildPlan(this, scheduler_->Probe(request));
}

Result<InspectionPlan> InspectionSession::ExplainAnalyze(
    const InspectRequest& request) {
  // Probe BEFORE running: the plan must reflect the decisions the
  // scheduler is about to make, not the state the job leaves behind. The
  // job then runs the probed JobPlan itself.
  const SchedulerProbe probe = scheduler_->Probe(request);
  DB_ASSIGN_OR_RETURN(InspectionPlan plan, BuildPlan(this, probe));
  JobHandle job = scheduler_->Submit(probe.plan);
  const Result<ResultTable>& result = job.Wait();
  AnnotatePlan(&plan, probe, result, job.Stats(), job.Summary(),
               job.TraceSpans());
  return plan;
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
  const SchedulerStats sched = session->scheduler().stats();
  BehaviorStore* store = session->store();
  // Membership only: the engine's live workers do not depend on the job.
  const ClusterDispatch cluster = session->scheduler().Dispatch(JobPlan{});
  const std::vector<std::string> armed = failpoint::ArmedSites();

  PlanNode root;
  root.name = "statusz";
  const std::vector<JobHandle> jobs = session->Jobs();
  PlanNode& job_list = root.AddChild("jobs");
  job_list.Add("", std::to_string(jobs.size()));
  for (const JobHandle& job : jobs) {
    JobProgress progress;
    const JobStatus status = job.Poll(&progress);
    PlanNode& entry = job_list.AddChild("job");
    entry.Add("id", std::to_string(job.id()));
    entry.Add("status", JobStatusName(status));
    entry.Add("blocks", std::to_string(progress.blocks_completed) + "/" +
                            std::to_string(progress.blocks_total));
    entry.Add("records", std::to_string(progress.records_processed));
  }
  PlanNode& scheduler = root.AddChild("scheduler");
  scheduler.Add("jobs_scheduled", std::to_string(sched.jobs_scheduled));
  scheduler.Add("active_jobs", std::to_string(sched.snapshot.active_jobs));
  scheduler.Add("queued_bytes", std::to_string(sched.snapshot.queued_bytes));
  scheduler.Add("inflight_jobs", std::to_string(sched.snapshot.inflight_jobs));
  scheduler.Add("dedup_followers", std::to_string(sched.dedup_followers));
  scheduler.Add("admission_rejections",
                std::to_string(sched.admission_rejections));
  PlanNode& cache = root.AddChild("result-cache");
  cache.Add("hits", std::to_string(sched.result_cache_hits));
  cache.Add("misses", std::to_string(sched.result_cache_misses));
  cache.Add("bytes", std::to_string(sched.snapshot.result_cache_bytes));
  cache.Add("entries", std::to_string(sched.snapshot.result_cache_entries));
  cache.Add("persistent_hits",
            std::to_string(sched.result_cache_persistent_hits));
  PlanNode& store_node = root.AddChild("store");
  if (store == nullptr) {
    store_node.Add("", "none");
  } else {
    store_node.Add("memory_bytes", std::to_string(store->memory_bytes()));
    store_node.Add("unit_bytes",
                   std::to_string(store->namespace_bytes("unit")));
    store_node.Add("hyp_bytes", std::to_string(store->namespace_bytes("hyp")));
    store_node.Add("cache_blob_bytes",
                   std::to_string(store->blob_namespace_bytes("cache")));
    store_node.Add("mem_hits", std::to_string(store->mem_hits()));
    store_node.Add("disk_hits", std::to_string(store->disk_hits()));
    store_node.Add("mmap_hits", std::to_string(store->mmap_hits()));
    store_node.Add("misses", std::to_string(store->misses()));
  }
  PlanNode& cluster_node = root.AddChild("cluster");
  const bool cluster_active = cluster.mode != ClusterDispatch::Mode::kNone;
  cluster_node.Add("active", cluster_active ? "yes" : "no");
  if (cluster_active) {
    cluster_node.Add("workers", JoinNames(cluster.live_workers));
  }
  root.AddChild("failpoints")
      .Add("", armed.empty() ? "none" : JoinNames(armed));

  std::string out;
  if (json) {
    NodeJson(root, &out);
  } else {
    RenderNode(root, 0, &out);
  }
  return out;
}

}  // namespace deepbase
