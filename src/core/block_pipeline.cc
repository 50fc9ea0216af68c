#include "core/block_pipeline.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "core/behavior_store.h"
#include "core/shared_scan.h"
#include "util/logging.h"
#include "util/trace.h"

namespace deepbase {

namespace {

// Upper bound on the effective shard count (replica memory is linear in
// shards).
constexpr size_t kMaxShards = 64;

// Error threshold for a measure family (paper §6.2 defaults).
double EpsilonFor(const MeasureFactory& factory, const InspectOptions& opts) {
  const std::string& name = factory.name();
  if (name.rfind("correlation", 0) == 0) return opts.corr_epsilon;
  if (name.rfind("logreg", 0) == 0) return opts.logreg_epsilon;
  return opts.default_epsilon;
}

// Model merging (§5.2.1): the pair is fused into the composite model of a
// mergeable joint measure over binary hypotheses.
bool FusesIntoComposite(const MeasureFactory& factory,
                        const HypothesisFn& hypothesis, bool model_merging) {
  return model_merging && factory.mergeable() &&
         hypothesis.num_classes() == 2;
}

// How the pair's per-shard states combine; kNone when the measure builds
// no state for the hypothesis.
MergeExactness PairMergeExactness(const MeasureFactory& factory,
                                  const HypothesisFn& hypothesis) {
  const std::unique_ptr<Measure> probe =
      factory.Create(1, hypothesis.num_classes());
  return probe == nullptr ? MergeExactness::kNone : probe->merge_exactness();
}

// The calibration wave's leader rule: a pair whose measure calibrates from
// the units alone adopts the calibration of the first pair with its
// (model, group, measure, class count); every other pair is its own
// leader. Returns each pair's leader index.
std::vector<size_t> CalibrationLeaders(
    const std::vector<PipelinePair>& pairs,
    const std::vector<HypothesisPtr>& hypotheses) {
  std::map<std::tuple<size_t, size_t, size_t, int>, size_t> leader_of;
  std::vector<size_t> leaders(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const PipelinePair& pair = pairs[i];
    leaders[i] = i;
    if (pair.measure->calibration_reads_units_only()) {
      const auto key = std::make_tuple(pair.model_i, pair.group_i, pair.score_i,
                                       hypotheses[pair.hyp_i]->num_classes());
      leaders[i] = leader_of.emplace(key, i).first->second;
    }
  }
  return leaders;
}

// Block dispatches of a full run over `num_records` records.
size_t PlannedBlockDispatches(const InspectOptions& options,
                              size_t num_records) {
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  const size_t block_size = std::max<size_t>(1, options.block_size);
  const size_t per_pass = (num_records + block_size - 1) / block_size;
  const size_t passes = std::max<size_t>(1, options.passes);
  if (options.streaming) {
    // Every pass re-extracts; max_blocks caps the whole run.
    if (per_pass != 0 && passes > kMax / per_pass) return options.max_blocks;
    return std::min(per_pass * passes, options.max_blocks);
  }
  // max_blocks caps the resident set, which every pass re-dispatches.
  const size_t resident = std::min(per_pass, options.max_blocks);
  if (resident != 0 && passes > kMax / resident) return kMax;
  return resident * passes;
}

}  // namespace

std::vector<int> UnitUnion(const ModelSpec& model) {
  std::vector<int> units;
  for (const UnitGroupSpec& group : model.groups) {
    units.insert(units.end(), group.unit_ids.begin(), group.unit_ids.end());
  }
  std::sort(units.begin(), units.end());
  units.erase(std::unique(units.begin(), units.end()), units.end());
  return units;
}

size_t ResolveShardCount(size_t requested, size_t fallback) {
  const size_t shards =
      std::clamp<size_t>(requested != 0 ? requested : fallback, 1, kMaxShards);
  if (requested > shards) {
    // Clamping changes the effective shard count and therefore the
    // (seed, shards)-keyed determinism contract — say so out loud.
    DB_LOG(Warn) << "num_shards " << requested << " clamped to " << shards
                 << " (see InspectOptions::num_shards); scores follow the "
                 << "clamped count";
  }
  return shards;
}

PipelinePlan PlanPipeline(const std::vector<ModelSpec>& models,
                          const Dataset& dataset,
                          const std::vector<MeasureFactoryPtr>& measures,
                          const std::vector<HypothesisPtr>& hypotheses,
                          const InspectOptions& options,
                          uint64_t dataset_fingerprint) {
  DB_DCHECK(options.num_shards >= 1 && options.num_shards <= kMaxShards);
  PipelinePlan plan;
  plan.num_shards = options.num_shards;
  plan.dataset_fingerprint = dataset_fingerprint;
  plan.blocks_planned =
      PlannedBlockDispatches(options, dataset.num_records());

  // The lane rule, probed once per (measure, hypothesis): fused into a
  // composite, or — at S > 1, where shard-lane states merge — how its
  // states merge. One lane never merges, so S == 1 probes nothing.
  const size_t num_h = hypotheses.size();
  std::vector<char> fused(measures.size() * num_h);
  std::vector<MergeExactness> merge(fused.size(), MergeExactness::kNone);
  for (size_t s = 0; s < measures.size(); ++s) {
    for (size_t h = 0; h < num_h; ++h) {
      const size_t i = s * num_h + h;
      fused[i] = FusesIntoComposite(*measures[s], *hypotheses[h],
                                    options.model_merging);
      if (!fused[i] && plan.num_shards > 1) {
        merge[i] = PairMergeExactness(*measures[s], *hypotheses[h]);
      }
    }
  }

  // Pairs in emit order; a group's fused hypotheses form one composite
  // per measure, emitted after every pair.
  for (size_t m = 0; m < models.size(); ++m) {
    for (size_t g = 0; g < models[m].groups.size(); ++g) {
      for (size_t s = 0; s < measures.size(); ++s) {
        PlannedComposite composite{m, g, s, {}};
        for (size_t h = 0; h < num_h; ++h) {
          const size_t i = s * num_h + h;
          if (fused[i]) {
            composite.hyp_indices.push_back(h);
          } else {
            plan.pairs.push_back(
                {m, g, s, h, merge[i] != MergeExactness::kNone, merge[i]});
          }
        }
        if (!composite.hyp_indices.empty()) {
          plan.composites.push_back(std::move(composite));
        }
      }
    }
  }
  const bool sequential_work =
      !plan.composites.empty() ||
      std::any_of(plan.pairs.begin(), plan.pairs.end(),
                  [](const PlannedPair& pair) { return !pair.shard_lane; });
  plan.sequential_lane = plan.num_shards > 1 && sequential_work;
  plan.sliceable =
      plan.num_shards > 1 && !options.streaming && !sequential_work;
  return plan;
}

BlockPipeline::BlockPipeline(const PipelinePlan& plan,
                             const std::vector<ModelSpec>& models,
                             const Dataset& dataset,
                             const std::vector<MeasureFactoryPtr>& scores,
                             const std::vector<HypothesisPtr>& hypotheses,
                             const InspectOptions& options)
    : plan_(plan),
      models_(models),
      dataset_(dataset),
      hypotheses_(hypotheses),
      options_(options),
      num_shards_(plan.num_shards) {
  // One lane runs inline; S lanes fan out over the pool.
  if (num_shards_ > 1) {
    pool_ = options.pool;
    if (pool_ == nullptr) {
      owned_pool_ =
          std::make_unique<ThreadPool>(std::min<size_t>(num_shards_, 16));
      pool_ = owned_pool_.get();
    }
  }

  // --- Extraction: per model, the union of its groups' units, and per
  // group the column indices into that union. Groups that cover the whole
  // extracted union in order are flagged for the zero-copy fast path (no
  // per-block gather at all — the block matrix is used directly).
  model_units_.resize(models_.size());
  group_cols_.resize(models_.size());
  group_identity_.resize(models_.size());
  for (size_t m = 0; m < models_.size(); ++m) {
    model_units_[m] = UnitUnion(models_[m]);
    const std::vector<int>& units = model_units_[m];
    group_cols_[m].resize(models_[m].groups.size());
    group_identity_[m].resize(models_[m].groups.size());
    for (size_t g = 0; g < models_[m].groups.size(); ++g) {
      for (int uid : models_[m].groups[g].unit_ids) {
        auto it = std::lower_bound(units.begin(), units.end(), uid);
        DB_DCHECK(it != units.end() && *it == uid);
        group_cols_[m][g].push_back(static_cast<size_t>(it - units.begin()));
      }
      const auto& cols = group_cols_[m][g];
      bool identity = cols.size() == units.size();
      for (size_t j = 0; identity && j < cols.size(); ++j) {
        identity = cols[j] == j;
      }
      group_identity_[m][g] = identity;
    }
  }

  // --- Measure states, one per planned pair and composite.
  auto group_units = [&](size_t m, size_t g) {
    return models_[m].groups[g].unit_ids.size();
  };
  pairs_.reserve(plan.pairs.size());
  for (const PlannedPair& planned : plan.pairs) {
    const MeasureFactory& factory = *scores[planned.score_i];
    PipelinePair pair{planned};
    pair.measure =
        factory.Create(group_units(planned.model_i, planned.group_i),
                       hypotheses_[planned.hyp_i]->num_classes());
    pair.epsilon = EpsilonFor(factory, options_);
    if (pair.shard_lane) pair.shard_converged.assign(num_shards_, 0);
    pairs_.push_back(std::move(pair));
  }
  merged_.reserve(plan.composites.size());
  for (const PlannedComposite& planned : plan.composites) {
    const MeasureFactory& factory = *scores[planned.score_i];
    PipelineMerged ms{planned};
    ms.merged =
        factory.CreateMerged(group_units(planned.model_i, planned.group_i),
                             planned.hyp_indices.size());
    DB_DCHECK(ms.merged != nullptr);
    ms.head_converged.assign(planned.hyp_indices.size(), false);
    ms.epsilon = EpsilonFor(factory, options_);
    merged_.push_back(std::move(ms));
  }

  seq_lane_ = num_shards_ == 1 ? 0 : num_shards_;

  // --- The calibration wave's deal: each round (the pairs that calibrate,
  // then those that adopt) deals its shardable primaries over the shard
  // lanes in pair order; sequential pairs stay on the sequential lane.
  const std::vector<size_t> leaders = CalibrationLeaders(pairs_, hypotheses_);
  size_t dealt[2] = {0, 0};
  for (size_t i = 0; i < pairs_.size(); ++i) {
    PipelinePair& pair = pairs_[i];
    pair.calibration_leader = leaders[i];
    size_t& next = dealt[leaders[i] == i ? 0 : 1];
    pair.calibration_lane =
        pair.shard_lane ? next++ % num_shards_ : seq_lane_;
  }

  warned_bad_size_ =
      std::make_unique<std::atomic<bool>[]>(hypotheses_.size());

  // --- Hypothesis store tier: materialize/load each hypothesis's full
  // behaviors once per (hypothesis name, dataset fingerprint); blocks are
  // then served by row copies instead of HypothesisFn::Eval — reused
  // across jobs sharing the store and, for a disk-backed store, across
  // restarts, like the unit tier. Any store failure falls back to live
  // evaluation.
  hyp_stored_.resize(hypotheses_.size());
  BehaviorStore* const store = options_.hypothesis_store;
  if (store != nullptr && options_.hypothesis_store_tier) {
    Stopwatch prelude_watch;
    for (size_t h = 0; h < hypotheses_.size(); ++h) {
      if (CancelRequested() || DeadlinePassed()) break;
      bool materialized_now = false;
      Result<std::string> key = store->EnsureHypothesisBehaviors(
          *hypotheses_[h], dataset_, plan_.dataset_fingerprint,
          &materialized_now);
      if (!key.ok()) {
        // kResourceExhausted: a memory-only store declined a matrix its
        // tier cannot hold; live evaluation is the designed path.
        if (key.status().code() != StatusCode::kResourceExhausted) {
          DB_LOG(Warn) << "hypothesis store tier unavailable for '"
                       << hypotheses_[h]->name()
                       << "', evaluating live: " << key.status().ToString();
        }
        continue;
      }
      BehaviorStore::Tier tier = BehaviorStore::Tier::kMiss;
      Result<std::shared_ptr<const Matrix>> stored =
          store->GetShared(*key, &tier);
      if (!stored.ok() || (*stored)->rows() != dataset_.num_records() ||
          (*stored)->cols() != dataset_.ns()) {
        DB_LOG(Warn) << "cannot serve stored hypothesis behaviors for '"
                     << hypotheses_[h]->name() << "', evaluating live";
        continue;
      }
      hyp_stored_[h] = std::move(*stored);
      ++hyp_tier_served_;
      if (materialized_now) {
        ++store_hyp_misses_;
        hyp_tier_evals_ += dataset_.num_records();
      } else if (tier == BehaviorStore::Tier::kMemory) {
        ++store_hyp_mem_hits_;
      } else if (tier == BehaviorStore::Tier::kDisk ||
                 tier == BehaviorStore::Tier::kMmap) {
        // Hypothesis matrices are small (records × ns); an mmap handout
        // is still a disk-tier serve for the hyp counter pair.
        ++store_hyp_disk_hits_;
      }
    }
    hyp_tier_prelude_s_ = prelude_watch.Seconds();
  }
}

BlockPipeline::~BlockPipeline() = default;

Status BlockPipeline::RestrictShards(size_t shard_lo, size_t shard_hi) {
  if (!plan_.sliceable) {
    return Status::Invalid(
        "slice mode requires a materialized run over num_shards > 1 with "
        "no sequential-lane measures; run the job whole on a single worker "
        "instead");
  }
  if (shard_lo >= shard_hi || shard_hi > num_shards_) {
    return Status::Invalid("shard range [" + std::to_string(shard_lo) + ", " +
                           std::to_string(shard_hi) + ") out of bounds for " +
                           std::to_string(num_shards_) + " shards");
  }
  sliced_ = true;
  slice_lo_ = shard_lo;
  slice_hi_ = shard_hi;
  return Status::OK();
}

std::vector<std::unique_ptr<Measure>> BlockPipeline::TakeShardStates() {
  DB_DCHECK(sliced_);
  std::vector<std::unique_ptr<Measure>> out;
  out.reserve(pairs_.size());
  for (auto& pair : pairs_) {
    std::unique_ptr<Measure> state;
    if (slice_lo_ == 0 || pair.replicas.empty()) {
      // Range owners starting at shard 0 hand out the primary (it carries
      // block 0's accumulation plus shard 0's blocks). A pair with no
      // replicas (run cancelled before cloning) degrades the same way.
      state = std::move(pair.measure);
    } else {
      state = std::move(pair.replicas[slice_lo_]);
    }
    if (state != nullptr) {
      // Fold the rest of the owned range in ascending shard order — the
      // same order the coordinator then applies across ranges, so the
      // global merge order is shard 0..S-1 exactly as in-process.
      for (size_t s = std::max<size_t>(slice_lo_, 1);
           s < slice_hi_ && s < pair.replicas.size(); ++s) {
        if (pair.replicas[s] != nullptr) state->MergeFrom(*pair.replicas[s]);
      }
    }
    pair.replicas.clear();
    out.push_back(std::move(state));
  }
  return out;
}

bool BlockPipeline::CancelRequested() const {
  return options_.cancel != nullptr &&
         options_.cancel->load(std::memory_order_relaxed);
}

bool BlockPipeline::OverBudget(const Stopwatch& watch) const {
  // The deadline rides every budget check: both stop the loop at the
  // next block boundary, but a deadline stop is latched (deadline_hit_)
  // so the run surfaces as kDeadlineExceeded instead of a partial table.
  if (DeadlinePassed()) return true;
  return watch.Seconds() >= options_.time_budget_s;
}

bool BlockPipeline::DeadlinePassed() const {
  if (options_.deadline == std::chrono::steady_clock::time_point::max()) {
    return false;
  }
  if (deadline_hit_.load(std::memory_order_relaxed)) return true;
  if (std::chrono::steady_clock::now() < options_.deadline) return false;
  deadline_hit_.store(true, std::memory_order_relaxed);
  return true;
}

void BlockPipeline::ParallelDo(size_t n,
                               const std::function<void(size_t)>& fn) {
  if (pool_ != nullptr) {
    pool_->ParallelFor(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

BlockPipeline::LaneScratch BlockPipeline::MakeScratch() const {
  LaneScratch scratch;
  scratch.buf.resize(models_.size());
  scratch.tag.resize(models_.size());
  for (size_t m = 0; m < models_.size(); ++m) {
    scratch.buf[m].resize(models_[m].groups.size());
    scratch.tag[m].assign(models_[m].groups.size(), 0);
  }
  return scratch;
}

// Extraction of one block: unit behaviors for every model, then hypothesis
// behaviors in column-major layout (tier row copies or live Eval). Output
// formats are checked during execution (paper §4.1): a hypothesis emitting
// the wrong number of behaviors is normalized (zero-pad / truncate) with a
// one-time warning, so a misbehaving user function cannot silently corrupt
// neighboring rows. CheckHypothesisOutputFormat (core/catalog.h) rejects
// such a hypothesis before every local or distributed run.
void BlockPipeline::ExtractInto(const std::vector<size_t>& block,
                                size_t serial, BlockData* data) {
  const size_t ns = dataset_.ns();
  data->serial = serial;
  data->records = block.size();
  data->rows = block.size() * ns;
  Stopwatch watch;
  data->unit_behaviors.clear();
  data->unit_behaviors.reserve(models_.size());
  for (size_t m = 0; m < models_.size(); ++m) {
    const Extractor* extractor = models_[m].extractor;
    auto extract = [&] {
      return extractor->ExtractBlock(dataset_, block, model_units_[m]);
    };
    if (options_.shared_scan != nullptr) {
      // Fused job group: the first member to need this block extracts it;
      // everyone else shares the same immutable matrix.
      data->unit_behaviors.push_back(options_.shared_scan->GetOrExtract(
          extractor->model_id(), model_units_[m], block, extract));
    } else {
      data->unit_behaviors.push_back(
          std::make_shared<const Matrix>(extract()));
    }
  }
  data->unit_s = watch.Seconds();
  watch.Restart();
  data->hyp_cols.Resize(hypotheses_.size(), data->rows);
  for (size_t h = 0; h < hypotheses_.size(); ++h) {
    const HypothesisFn& hyp = *hypotheses_[h];
    float* const out = data->hyp_cols.row_data(h);
    if (hyp_stored_[h] != nullptr) {
      // Hypothesis store tier: row copies from the stored matrix (already
      // normalized to ns behaviors per record).
      const Matrix& stored = *hyp_stored_[h];
      for (size_t i = 0; i < block.size(); ++i) {
        const float* const src = stored.row_data(block[i]);
        std::copy(src, src + ns, out + i * ns);
      }
      continue;
    }
    for (size_t i = 0; i < block.size(); ++i) {
      std::vector<float> behaviors = hyp.Eval(dataset_.record(block[i]));
      if (behaviors.size() != ns) {
        if (!warned_bad_size_[h].exchange(true, std::memory_order_relaxed)) {
          DB_LOG(Warn) << "hypothesis '" << hyp.name() << "' emitted "
                       << behaviors.size() << " behaviors for a record of "
                       << ns << " symbols; normalizing (zero-pad/truncate)";
        }
        behaviors.resize(ns, 0.0f);
      }
      std::copy(behaviors.begin(), behaviors.end(), out + i * ns);
    }
  }
  data->hyp_s = watch.Seconds();
}

const Matrix& BlockPipeline::GroupMatrix(const BlockData& data, size_t m,
                                         size_t g, LaneScratch* scratch) {
  if (group_identity_[m][g]) return *data.unit_behaviors[m];
  Matrix& buf = scratch->buf[m][g];
  if (scratch->tag[m][g] != data.serial + 1) {
    const Matrix& src = *data.unit_behaviors[m];
    const auto& cols = group_cols_[m][g];
    buf.Resize(src.rows(), cols.size());
    for (size_t r = 0; r < src.rows(); ++r) {
      const float* const srow = src.row_data(r);
      float* const drow = buf.row_data(r);
      for (size_t j = 0; j < cols.size(); ++j) drow[j] = srow[cols[j]];
    }
    scratch->tag[m][g] = data.serial + 1;
  }
  return buf;
}

std::span<const float> BlockPipeline::HypSpan(const BlockData& data,
                                              size_t h) const {
  return {data.hyp_cols.row_data(h), data.hyp_cols.cols()};
}

void BlockPipeline::InspectPair(PipelinePair& pair, size_t shard,
                                const BlockData& data, LaneScratch* scratch) {
  Measure* measure = (shard == 0 || pair.replicas.empty())
                         ? pair.measure.get()
                         : pair.replicas[shard].get();
  const Matrix& units = GroupMatrix(data, pair.model_i, pair.group_i, scratch);
  // The serial is shard-count-invariant (shuffle position), so the
  // (occurrence, serial) keys a kBitExact measure derives from it are
  // identical no matter which lane or worker consumed the block.
  measure->BeginBlock(data.serial);
  measure->ProcessBlock(units, HypSpan(data, pair.hyp_i));
  if (options_.early_stopping && measure->SupportsConvergence() &&
      measure->ErrorEstimate() < pair.epsilon) {
    if (pair.shard_lane) {
      pair.shard_converged[shard] = 1;
    } else {
      pair.converged = true;
    }
  }
}

void BlockPipeline::InspectShardBlock(const BlockData& data, size_t shard,
                                      LaneScratch* scratch) {
  for (auto& pair : pairs_) {
    if (pair.shard_lane && !pair.shard_converged[shard]) {
      InspectPair(pair, shard, data, scratch);
    }
  }
}

void BlockPipeline::InspectSequentialBlock(const BlockData& data,
                                           LaneScratch* scratch) {
  for (auto& pair : pairs_) {
    if (!pair.shard_lane && !pair.converged) {
      InspectPair(pair, 0, data, scratch);
    }
  }
  InspectComposites(data, scratch);
}

void BlockPipeline::InspectComposites(const BlockData& data,
                                      LaneScratch* scratch) {
  for (auto& ms : merged_) {
    if (ms.all_converged) continue;
    const Matrix& units = GroupMatrix(data, ms.model_i, ms.group_i, scratch);
    // Reused head-column gather (one buffer per merged state, resized in
    // place — no per-block allocation, satellite of the zero-copy rework).
    Matrix& hyp_sub = ms.hyp_sub_buf;
    hyp_sub.Resize(data.rows, ms.hyp_indices.size());
    float* const dst0 = hyp_sub.row_data(0);
    const size_t stride = hyp_sub.lda();
    for (size_t j = 0; j < ms.hyp_indices.size(); ++j) {
      const float* const src = data.hyp_cols.row_data(ms.hyp_indices[j]);
      float* const dst = dst0 + j;
      for (size_t r = 0; r < data.rows; ++r) dst[r * stride] = src[r];
    }
    ms.merged->ProcessBlock(units, hyp_sub);
    if (options_.early_stopping) {
      bool all_heads = true;
      for (size_t j = 0; j < ms.hyp_indices.size(); ++j) {
        if (!ms.head_converged[j]) {
          ms.head_converged[j] = ms.merged->ErrorEstimate(j) < ms.epsilon;
        }
        all_heads = all_heads && ms.head_converged[j];
      }
      ms.all_converged = all_heads;
    }
  }
}

bool BlockPipeline::SequentialLaneConverged() const {
  for (const auto& pair : pairs_) {
    if (!pair.shard_lane && !pair.converged) return false;
  }
  for (const auto& ms : merged_) {
    if (!ms.all_converged) return false;
  }
  return true;
}

bool BlockPipeline::ShardLaneConverged(size_t shard) const {
  for (const auto& pair : pairs_) {
    if (pair.shard_lane && !pair.shard_converged[shard]) return false;
  }
  return true;
}

bool BlockPipeline::AllConverged() const {
  for (const auto& pair : pairs_) {
    if (!pair.FullyConverged()) return false;
  }
  for (const auto& ms : merged_) {
    if (!ms.all_converged) return false;
  }
  return !pairs_.empty() || !merged_.empty();
}

void BlockPipeline::EnsureReplicas() {
  for (auto& pair : pairs_) {
    if (!pair.shard_lane || !pair.replicas.empty()) continue;
    pair.replicas.resize(num_shards_);  // [0] stays null: primary stands in
    for (size_t s = 1; s < num_shards_; ++s) {
      if (!OwnsShard(s)) continue;  // slice mode: clone only owned shards
      pair.replicas[s] = pair.measure->CloneState();
      DB_DCHECK(pair.replicas[s] != nullptr);
    }
  }
}

void BlockPipeline::MergeReplicas() {
  for (auto& pair : pairs_) {
    if (pair.replicas.empty()) continue;
    // Ascending shard order: deterministic for a fixed shard count.
    for (size_t s = 1; s < pair.replicas.size(); ++s) {
      pair.measure->MergeFrom(*pair.replicas[s]);
    }
    pair.replicas.clear();
  }
}

std::vector<std::vector<size_t>> BlockPipeline::Pull(
    BlockIterator* it, size_t max, const Stopwatch& watch) const {
  std::vector<std::vector<size_t>> idx;
  while (idx.size() < max && it->HasNext() && !OverBudget(watch) &&
         !CancelRequested()) {
    idx.push_back(it->NextBlock());
  }
  return idx;
}

void BlockPipeline::Extract(const std::vector<std::vector<size_t>>& idx,
                            size_t first, size_t serial, BlockData* out,
                            const Stopwatch& watch, Totals* totals) {
  // Budget and cancellation are re-checked per block; a skipped block
  // stays empty and every lane passes over it.
  ParallelDo(idx.size(), [&](size_t i) {
    if (OwnsBlock(first + i) && !OverBudget(watch) && !CancelRequested()) {
      ExtractInto(idx[i], serial + i, &out[i]);
    } else {
      out[i].rows = out[i].records = 0;
      out[i].unit_s = out[i].hyp_s = 0;
    }
  });
  for (size_t i = 0; i < idx.size(); ++i) {
    const size_t shard = ShardOf(first + i);
    lanes_[shard].stats.unit_extraction_s += out[i].unit_s;
    lanes_[shard].stats.hyp_extraction_s += out[i].hyp_s;
    if (OwnsShard(shard)) totals->records_processed += out[i].records;
    totals->cache_hits += out[i].records * hyp_tier_served_;
    totals->cache_misses +=
        out[i].records * (hypotheses_.size() - hyp_tier_served_);
  }
}

void BlockPipeline::InspectOnLane(size_t lane, size_t block, BlockData* data,
                                  Round round) {
  Lane& state = lanes_[lane];
  Stopwatch watch;
  if (round == Round::kEveryPair) {
    if (lane == ShardOf(block)) InspectShardBlock(*data, lane, &state.scratch);
    if (lane == seq_lane_) InspectSequentialBlock(*data, &state.scratch);
  } else {
    // The calibration wave feeds each pair's primary on its dealt lane.
    for (size_t i = 0; i < pairs_.size(); ++i) {
      PipelinePair& pair = pairs_[i];
      if (pair.calibration_lane == lane &&
          (pair.calibration_leader != i) == (round == Round::kAdopt)) {
        InspectPair(pair, 0, *data, &state.scratch);
      }
    }
    if (lane == seq_lane_ && round == Round::kCalibrate) {
      InspectComposites(*data, &state.scratch);
    }
  }
  state.stats.inspection_s += watch.Seconds();
  // A lane dealt pairs of another shard's block books only its seconds.
  if (round == Round::kAdopt || (lane != ShardOf(block) && lane != seq_lane_)) {
    return;
  }
  state.stats.blocks_processed += 1;
  state.stats.records_processed += data->records;
  if (!OwnsShard(ShardOf(block)) ||
      data->counted.exchange(true, std::memory_order_relaxed)) {
    return;
  }
  state.blocks_counted += 1;
  if (options_.progress != nullptr) {
    options_.progress->blocks_done.fetch_add(1, std::memory_order_relaxed);
    options_.progress->records_done.fetch_add(data->records,
                                              std::memory_order_relaxed);
  }
}

void BlockPipeline::RunLane(size_t lane, const Wave& wave,
                            const Stopwatch& watch, Round round) {
  if (round != Round::kEveryPair) {
    // The calibration wave: block 0 alone, checked once before the wave.
    InspectOnLane(lane, wave.first, &wave.blocks[0], round);
    return;
  }
  const bool seq = lane == seq_lane_;
  for (size_t i = 0; i < wave.size; ++i) {
    const size_t block = wave.first + i;
    if (!seq && lane != ShardOf(block)) continue;
    if (options_.early_stopping && (!seq || SequentialLaneConverged()) &&
        (lane >= num_shards_ || ShardLaneConverged(lane))) {
      return;
    }
    if (OverBudget(watch) || CancelRequested()) return;
    if (wave.blocks[i].rows == 0) continue;  // not extracted here
    InspectOnLane(lane, block, &wave.blocks[i], round);
  }
}

void BlockPipeline::RunWave(const Wave& wave, const Stopwatch& watch,
                            bool lane_spans) {
  for (size_t i = 0; i < wave.size; ++i) {
    wave.blocks[i].counted.store(false, std::memory_order_relaxed);
  }
  // Block 0 of pass 0 calibrates the primaries every replica is cloned
  // from, so in slice mode every worker runs it, on all its lanes.
  const bool calibration = wave.pass == 0 && wave.first == 0;
  auto run_lanes = [&](Round round) {
    ParallelDo(lanes_.size(), [&](size_t lane) {
      if (lane < num_shards_ && !OwnsShard(lane) && !calibration) return;
      // Each lane carries a private TraceContext (the shared Tracer's ring
      // is internally locked) so lane spans parent to the pipeline caller
      // without racing on a shared parent cursor.
      TraceContext trace{lane_spans ? options_.tracer : nullptr,
                         options_.trace_parent_span};
      DB_SPAN_NAMED(lane_span, trace,
                    lane < num_shards_ ? "pipeline.lane" : "pipeline.seq_lane");
      if (lane < num_shards_) {
        lane_span.Tag("shard", static_cast<uint64_t>(lane));
      }
      RunLane(lane, wave, watch, round);
    });
  };
  if (!calibration) {
    run_lanes(Round::kEveryPair);
    return;
  }
  // Block 0 is atomic: one budget, deadline and cancel check for both
  // rounds, so every pair consumes it or none does.
  if (wave.blocks[0].rows == 0 || OverBudget(watch) || CancelRequested()) {
    return;
  }
  run_lanes(Round::kCalibrate);
  // Adopt before any lane reads an adopter's state.
  bool adopters = false;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    PipelinePair& pair = pairs_[i];
    if (pair.calibration_leader == i) continue;
    pair.measure = pairs_[pair.calibration_leader].measure->CloneState();
    DB_DCHECK(pair.measure != nullptr);
    adopters = true;
  }
  if (adopters) run_lanes(Round::kAdopt);
}

BlockPipeline::Totals BlockPipeline::Run(const Stopwatch& watch) {
  Totals totals;
  if (options_.progress != nullptr) {
    // Set before any block runs, so pollers see the denominator while the
    // loop is in flight.
    options_.progress->blocks_done.store(0, std::memory_order_relaxed);
    options_.progress->records_done.store(0, std::memory_order_relaxed);
    options_.progress->blocks_total.store(plan_.blocks_planned,
                                          std::memory_order_relaxed);
  }
  totals.store_hyp_mem_hits = store_hyp_mem_hits_;
  totals.store_hyp_disk_hits = store_hyp_disk_hits_;
  totals.store_hyp_misses = store_hyp_misses_;
  totals.cache_misses = hyp_tier_evals_;
  lanes_.resize(num_shards_ == 1 ? 1
                                 : num_shards_ + (plan_.sequential_lane ? 1 : 0));
  for (Lane& lane : lanes_) lane.scratch = MakeScratch();
  lanes_[0].stats.hyp_extraction_s += hyp_tier_prelude_s_;

  // A materialized run extracts every owned block once, in parallel, and
  // keeps it resident for every pass.
  TraceContext trace{options_.tracer, options_.trace_parent_span};
  std::vector<std::vector<size_t>> resident_idx;
  if (!options_.streaming) {
    BlockIterator it(&dataset_, options_.block_size, options_.shuffle_seed);
    resident_idx = Pull(&it, options_.max_blocks, watch);
  }
  std::vector<BlockData> resident(resident_idx.size());
  if (!resident.empty()) {
    DB_SPAN_NAMED(extract_span, trace, "pipeline.extract");
    extract_span.Tag("blocks", static_cast<uint64_t>(resident.size()));
    Extract(resident_idx, 0, 0, resident.data(), watch, &totals);
  }

  {
    // Streaming extracts at most S blocks at a time. One span covers the
    // whole loop: per-wave spans would flood the trace ring on long runs
    // without adding timeline structure.
    TraceContext stream_trace{options_.streaming ? options_.tracer : nullptr,
                              options_.trace_parent_span};
    DB_SPAN_NAMED(stream_span, stream_trace, "pipeline.stream");
    std::vector<BlockData> fresh(options_.streaming ? num_shards_ : 0);
    size_t pulled = 0;  // streaming blocks extracted so far (= next serial)
    const size_t passes = std::max<size_t>(1, options_.passes);
    bool stop = false;
    for (size_t pass = 0; pass < passes && !stop; ++pass) {
      std::optional<BlockIterator> it;
      if (options_.streaming) {
        it.emplace(&dataset_, options_.block_size,
                   options_.shuffle_seed + pass);
      }
      // Every pass opens with block 0 alone, then waves of the rest.
      for (size_t first = 0; !stop;) {
        if (OverBudget(watch) || CancelRequested()) {
          stop = true;
          break;
        }
        Wave wave{pass, first};
        if (options_.streaming) {
          const size_t want = first == 0 ? 1 : num_shards_;
          const std::vector<std::vector<size_t>> idx = Pull(
              &*it, std::min(want, options_.max_blocks - pulled), watch);
          Extract(idx, first, pulled, fresh.data(), watch, &totals);
          pulled += idx.size();
          stop = pulled == options_.max_blocks;
          wave.blocks = fresh.data();
          wave.size = idx.size();
        } else if (first < resident.size()) {
          wave.blocks = resident.data() + first;
          wave.size = first == 0 ? 1 : resident.size() - first;
        }
        if (wave.size == 0) break;  // the pass is over
        RunWave(wave, watch, /*lane_spans=*/!options_.streaming && first > 0);
        if (pass == 0 && first == 0) {
          if (wave.blocks[0].rows == 0) {  // cancelled before calibrating
            stop = true;
            break;
          }
          EnsureReplicas();
        }
        first += wave.size;
        stop = stop || (options_.early_stopping && AllConverged());
      }
    }
    stream_span.Tag("blocks", static_cast<uint64_t>(pulled));
  }

  totals.lanes.resize(lanes_.size());
  for (size_t t = 0; t < lanes_.size(); ++t) {
    totals.lanes[t] = lanes_[t].stats;
    totals.blocks_processed += lanes_[t].blocks_counted;
  }
  totals.stopped_early = options_.early_stopping && AllConverged();
  if (num_shards_ > 1 && !sliced_) {
    // Slice mode skips the merge: the owned range's states leave through
    // TakeShardStates() and recombine on the coordinator. Merge time is
    // its own phase (Totals::merge_s), not block inspection.
    DB_SPAN(trace, "pipeline.merge");
    Stopwatch merge_watch;
    MergeReplicas();
    totals.merge_s = merge_watch.Seconds();
  }
  totals.deadline_exceeded = deadline_hit_.load(std::memory_order_relaxed);
  return totals;
}

}  // namespace deepbase
