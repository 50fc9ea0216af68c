#include "core/engine.h"

#include <algorithm>
#include <memory>

#include "core/behavior_store.h"
#include "core/block_pipeline.h"
#include "core/shared_scan.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace deepbase {

// Drift guards for the X-macro field lists: every scalar is 8 bytes on
// the supported targets, so a field added to the struct but not to the
// macro changes sizeof and fails these asserts instead of silently
// skipping accumulation. The trailing bools pad to one alignment unit.
namespace {
#define DEEPBASE_COUNT_FIELD(type, name) +1
constexpr size_t kShardFieldCount =
    0 DEEPBASE_RUNTIME_STATS_SHARD_FIELDS(DEEPBASE_COUNT_FIELD);
constexpr size_t kScalarFieldCount =
    0 DEEPBASE_RUNTIME_STATS_SCALAR_FIELDS(DEEPBASE_COUNT_FIELD);
#undef DEEPBASE_COUNT_FIELD
static_assert(kShardFieldCount == 5,
              "RuntimeStats::Shard field list changed; update the X-macro "
              "and this count together");
static_assert(kScalarFieldCount == 26,
              "RuntimeStats scalar field list changed; update the X-macro "
              "and this count together");
static_assert(sizeof(RuntimeStats::Shard) == kShardFieldCount * 8,
              "RuntimeStats::Shard has a field missing from "
              "DEEPBASE_RUNTIME_STATS_SHARD_FIELDS");
static_assert(sizeof(RuntimeStats) ==
                  kScalarFieldCount * 8 +
                      sizeof(std::vector<RuntimeStats::Shard>) +
                      /*num_shards*/ 8 + /*bools, padded*/ 8,
              "RuntimeStats has a field missing from "
              "DEEPBASE_RUNTIME_STATS_SCALAR_FIELDS");
}  // namespace

void RuntimeStats::Shard::Accumulate(const Shard& other) {
#define DEEPBASE_SUM_FIELD(type, name) name += other.name;
  DEEPBASE_RUNTIME_STATS_SHARD_FIELDS(DEEPBASE_SUM_FIELD)
#undef DEEPBASE_SUM_FIELD
}

void RuntimeStats::Accumulate(const RuntimeStats& other) {
#define DEEPBASE_SUM_FIELD(type, name) name += other.name;
  DEEPBASE_RUNTIME_STATS_SCALAR_FIELDS(DEEPBASE_SUM_FIELD)
#undef DEEPBASE_SUM_FIELD
  // Per-lane breakdown: shard lanes merge by index; the trailing
  // sequential-lane entry (present when shards.size() > num_shards) merges
  // into our trailing entry, so sequential-lane time is never attributed
  // to a shard lane even across runs with different lane layouts.
  const size_t other_shard_lanes =
      std::min(other.num_shards, other.shards.size());
  const bool other_has_seq = other.shards.size() > other_shard_lanes;
  size_t shard_lanes = std::min(num_shards, shards.size());
  bool has_seq = shards.size() > shard_lanes;
  if (other_shard_lanes > shard_lanes) {
    shards.insert(shards.begin() + shard_lanes,
                  other_shard_lanes - shard_lanes, Shard{});
    shard_lanes = other_shard_lanes;
  }
  for (size_t i = 0; i < other_shard_lanes; ++i) {
    shards[i].Accumulate(other.shards[i]);
  }
  if (other_has_seq) {
    if (!has_seq) shards.push_back(Shard{});
    shards.back().Accumulate(other.shards.back());
  }
  num_shards = std::max(num_shards, other.num_shards);
  all_converged = all_converged && other.all_converged;
  cancelled = cancelled || other.cancelled;
  deadline_exceeded = deadline_exceeded || other.deadline_exceeded;
}

ModelSpec AllUnitsGroup(const Extractor* extractor,
                        const std::string& group_id) {
  ModelSpec spec;
  spec.extractor = extractor;
  UnitGroupSpec group;
  group.group_id = group_id;
  group.unit_ids.resize(extractor->num_units());
  for (size_t u = 0; u < group.unit_ids.size(); ++u) {
    group.unit_ids[u] = static_cast<int>(u);
  }
  spec.groups.push_back(std::move(group));
  return spec;
}

void AppendScoreRows(const std::string& model_id, const UnitGroupSpec& group,
                     const std::string& measure, const std::string& hypothesis,
                     const MeasureScores& scores, ResultTable* table) {
  ResultRow base;
  base.model_id = model_id;
  base.group_id = group.group_id;
  base.measure = measure;
  base.hypothesis = hypothesis;
  base.group_score = scores.group_score;
  if (scores.unit_scores.empty()) {
    table->Add(base);
    return;
  }
  DB_DCHECK(scores.unit_scores.size() == group.unit_ids.size());
  for (size_t u = 0; u < scores.unit_scores.size(); ++u) {
    ResultRow row = base;
    row.unit = group.unit_ids[u];
    row.unit_score = scores.unit_scores[u];
    table->Add(row);
  }
}

ResultTable Inspect(const std::vector<ModelSpec>& models,
                    const Dataset& dataset,
                    const std::vector<MeasureFactoryPtr>& scores,
                    const std::vector<HypothesisPtr>& hypotheses,
                    const InspectOptions& options, RuntimeStats* stats) {
  InspectOptions pinned = options;
  pinned.num_shards = ResolveShardCount(
      options.num_shards,
      options.pool != nullptr ? options.pool->num_threads() : 1);
  // Only a behavior tier reads the fingerprint: hash the dataset for one.
  const bool tiered =
      options.behavior_store != nullptr || options.hypothesis_store != nullptr;
  const PipelinePlan pipeline =
      PlanPipeline(models, dataset, scores, hypotheses, pinned,
                   tiered ? DatasetFingerprint(dataset) : 0);
  return Inspect(pipeline, models, dataset, scores, hypotheses, pinned, stats);
}

ResultTable Inspect(const PipelinePlan& pipeline,
                    const std::vector<ModelSpec>& models_in,
                    const Dataset& dataset,
                    const std::vector<MeasureFactoryPtr>& scores,
                    const std::vector<HypothesisPtr>& hypotheses,
                    const InspectOptions& options, RuntimeStats* stats) {
  Stopwatch total_watch;
  TraceContext trace{options.tracer, options.trace_parent_span};
  DB_SPAN(trace, "engine.inspect");

  auto cancel_requested = [&options] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  // The store is shared across calls (and across concurrent jobs) and
  // carries cumulative counters; snapshot them so this call's
  // RuntimeStats report deltas. Under concurrency the attribution is
  // approximate (another job's evictions can land in this window) but
  // bounded, instead of every job re-reporting the session-lifetime
  // totals.
  size_t store_evictions0 = 0, store_bytes0 = 0, store_evicted_bytes0 = 0;
  if (options.behavior_store != nullptr) {
    store_evictions0 = options.behavior_store->evictions();
    store_evicted_bytes0 = options.behavior_store->evicted_bytes();
    store_bytes0 = options.behavior_store->bytes_written();
  }

  // --- Behavior-store substitution (§5.1.2/§6.3): when a store is
  // attached, each model's full unit behaviors are materialized once per
  // (model, dataset fingerprint) and every block is then served from the
  // store's memory/disk tiers instead of live forward passes. The specs
  // are only copied when substitution actually happens.
  const std::vector<ModelSpec>* models_ptr = &models_in;
  std::vector<ModelSpec> substituted;
  std::vector<std::unique_ptr<PrecomputedExtractor>> stored_extractors;
  size_t store_mem_hits = 0, store_disk_hits = 0, store_mmap_hits = 0;
  size_t store_misses = 0;
  double store_prelude_s = 0;
  if (options.behavior_store != nullptr) {
    Stopwatch prelude_watch;
    DB_SPAN(trace, "engine.store_prelude");
    substituted = models_in;
    models_ptr = &substituted;
    for (ModelSpec& model : substituted) {
      // Materialization is an upfront full-dataset extraction (the §6.3
      // one-time cost) and is not bounded by time_budget_s/max_blocks;
      // honor cancellation between models at least.
      if (cancel_requested()) break;
      bool materialized_now = false;
      Result<std::string> key = options.behavior_store->EnsureUnitBehaviors(
          *model.extractor, dataset, pipeline.dataset_fingerprint,
          &materialized_now);
      if (!key.ok()) {
        DB_LOG(Warn) << "behavior store unavailable for model '"
                     << model.extractor->model_id()
                     << "', extracting live: " << key.status().ToString();
        continue;
      }
      BehaviorStore::Tier tier = BehaviorStore::Tier::kMiss;
      Result<PrecomputedExtractor> stored =
          OpenStoredExtractor(*key, model.extractor->model_id(), dataset,
                              options.behavior_store, &tier);
      if (!stored.ok()) {
        DB_LOG(Warn) << "cannot read stored behaviors for key '" << *key
                     << "', extracting live: " << stored.status().ToString();
        continue;
      }
      if (materialized_now) {
        ++store_misses;  // this call paid the one-time materialization
      } else if (tier == BehaviorStore::Tier::kMemory) {
        ++store_mem_hits;
      } else if (tier == BehaviorStore::Tier::kDisk) {
        ++store_disk_hits;
      } else if (tier == BehaviorStore::Tier::kMmap) {
        ++store_mmap_hits;
      }
      stored_extractors.push_back(
          std::make_unique<PrecomputedExtractor>(std::move(*stored)));
      model.extractor = stored_extractors.back().get();
    }
    store_prelude_s = prelude_watch.Seconds();
  }
  const std::vector<ModelSpec>& models = *models_ptr;

  // --- The block loop: extraction fan-out, shard lanes, and partial-state
  // merging all live in the pipeline (see block_pipeline.h for the
  // determinism contract). The pipeline's spans nest under engine.inspect
  // via the rebased parent in run_options.
  InspectOptions run_options = options;
  run_options.trace_parent_span = trace.parent_span;
  BlockPipeline block_loop(pipeline, models, dataset, scores, hypotheses,
                           run_options);
  BlockPipeline::Totals totals = block_loop.Run(total_watch);

  // --- Assemble the result relation.
  ResultTable results;
  auto emit = [&](size_t m, size_t g, size_t s, size_t h,
                  const MeasureScores& ms) {
    AppendScoreRows(models[m].extractor->model_id(), models[m].groups[g],
                    scores[s]->name(), hypotheses[h]->name(), ms, &results);
  };
  for (const auto& pair : block_loop.pairs()) {
    emit(pair.model_i, pair.group_i, pair.score_i, pair.hyp_i,
         pair.measure->Scores());
  }
  for (const auto& ms : block_loop.merged_states()) {
    for (size_t j = 0; j < ms.hyp_indices.size(); ++j) {
      emit(ms.model_i, ms.group_i, ms.score_i, ms.hyp_indices[j],
           ms.merged->ScoresFor(j));
    }
  }

  if (stats != nullptr) {
    stats->shards = totals.lanes;
    stats->num_shards = pipeline.num_shards;
    // Phase totals are per-lane accumulator sums (CPU-seconds under
    // sharding); the store prelude counts as unit extraction, as before.
    stats->unit_extraction_s = store_prelude_s;
    stats->hyp_extraction_s = 0;
    stats->inspection_s = 0;
    for (const RuntimeStats::Shard& lane : totals.lanes) {
      stats->unit_extraction_s += lane.unit_extraction_s;
      stats->hyp_extraction_s += lane.hyp_extraction_s;
      stats->inspection_s += lane.inspection_s;
    }
    stats->merge_s = totals.merge_s;
    stats->total_s = total_watch.Seconds();
    stats->blocks_processed = totals.blocks_processed;
    stats->records_processed = totals.records_processed;
    stats->blocks_total_planned = pipeline.blocks_planned;
    stats->all_converged = totals.stopped_early || block_loop.AllConverged();
    stats->cancelled = cancel_requested();
    stats->deadline_exceeded = totals.deadline_exceeded;
    stats->cache_hits = totals.cache_hits;
    stats->cache_misses = totals.cache_misses;
    stats->store_mem_hits = store_mem_hits;
    stats->store_disk_hits = store_disk_hits;
    stats->store_mmap_hits = store_mmap_hits;
    stats->store_misses = store_misses;
    stats->store_hyp_mem_hits = totals.store_hyp_mem_hits;
    stats->store_hyp_disk_hits = totals.store_hyp_disk_hits;
    stats->store_hyp_misses = totals.store_hyp_misses;
    if (options.behavior_store != nullptr) {
      stats->store_evictions =
          options.behavior_store->evictions() - store_evictions0;
      stats->store_evicted_bytes =
          options.behavior_store->evicted_bytes() - store_evicted_bytes0;
      stats->store_bytes_written =
          options.behavior_store->bytes_written() - store_bytes0;
    }
    if (options.shared_scan != nullptr) {
      // The client is per-job and this engine call is its one run, so the
      // cumulative client counters are this run's counters.
      stats->scan_extractions = options.shared_scan->extractions();
      stats->scan_shared_hits = options.shared_scan->shared_hits();
    }
  }
  return results;
}

}  // namespace deepbase
