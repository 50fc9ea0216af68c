// Bench-side tracing for bench_paper: per-layer counters and spans
// recorded from outside the program, around calls into each layer's
// public interface. The program's own tracer stays at its default; this
// file only observes.
//
// A traced run registers the decorators below in the catalog under the
// names of the objects they wrap (same model id, hypothesis name, measure
// name), so requests, fingerprints, store keys and result rows are
// unchanged — `bench_paper --selfcheck` asserts the result tables are
// byte-identical with and without them.
//
// Spans are coalesced per thread and layer: a call that starts within
// kCoalesceNs of the previous span's end on the same thread and job
// extends that span instead of opening a new one. Per-call counters
// (calls, items, busy time, bytes) are exact; the span timeline is what
// coverage is computed from, and what --trace-out writes as JSONL.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/extractor.h"
#include "hypothesis/hypothesis.h"
#include "measures/measure.h"
#include "util/codec.h"
#include "util/trace.h"

namespace deepbase {
namespace paperbench {

/// Layer boundaries the bench records. kJob is the op itself (the span
/// around Submit..Wait or the client RPCs); every other layer counts
/// toward a job's trace coverage. The layers after kClientRegister are
/// imported from the program's own per-job trace (JobHandle::TraceSpans),
/// for boundaries the bench cannot wrap from outside.
enum class Layer : int {
  kJob,
  kExtractUnit,         ///< Extractor::ExtractBlock / ExtractRecord
  kExtractHyp,          ///< HypothesisFn::Eval
  kProcessBlock,        ///< Measure::ProcessBlock
  kMergedProcessBlock,  ///< MergedMeasure::ProcessBlock (logreg SGD)
  kScores,              ///< Measure::Scores / MergedMeasure::ScoresFor
  kMerge,               ///< Measure::MergeFrom
  kSerialize,           ///< Measure::SerializeState
  kMadlib,              ///< baselines: one MadlibBase query pair
  kClientSubmit,        ///< InspectionClient::Submit RPC
  kClientRegister,      ///< InspectionClient::RegisterHypotheses RPC
  kWireResult,          ///< server job done -> result at the client
  kAdmit,               ///< sched.admit
  kQueue,               ///< sched.queue
  kCacheHit,            ///< sched.job of a job the result cache answered
  kDedupWait,           ///< sched.job of a job parked on an identical one
  kEngine,              ///< engine.inspect
  kStorePrelude,        ///< engine.store_prelude
  kPipeline,            ///< pipeline.extract / lane / seq_lane / stream
  kPipelineMerge,       ///< pipeline.merge
  kCoordRun,            ///< coord.run
  kCoordDispatch,       ///< coord.dispatch
  kCoordMerge,          ///< coord.merge
  kWorkerAssign,        ///< worker.assign
  kCount,
};

inline const char* LayerName(Layer layer) {
  static const char* const kNames[] = {
      "job",
      "extract.unit",
      "extract.hyp",
      "measure.process_block",
      "measure.merged.process_block",
      "measure.scores",
      "measure.merge",
      "measure.serialize",
      "baseline.madlib",
      "client.submit",
      "client.register",
      "wire.result",
      "sched.admit",
      "sched.queue",
      "sched.cache_hit",
      "sched.dedup_wait",
      "engine.inspect",
      "engine.store_prelude",
      "pipeline",
      "pipeline.merge",
      "coord.run",
      "coord.dispatch",
      "coord.merge",
      "worker.assign"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(Layer::kCount));
  return kNames[static_cast<int>(layer)];
}

/// The layer of one of the program's own span names; false for spans
/// that do not mark a layer boundary the bench reports (sched.job roots
/// are mapped by the caller, which knows how the job was served).
inline bool ProgramLayer(const std::string& name, Layer* layer) {
  static const std::pair<const char*, Layer> kMap[] = {
      {"sched.admit", Layer::kAdmit},
      {"sched.queue", Layer::kQueue},
      {"engine.inspect", Layer::kEngine},
      {"engine.store_prelude", Layer::kStorePrelude},
      {"pipeline.extract", Layer::kPipeline},
      {"pipeline.lane", Layer::kPipeline},
      {"pipeline.seq_lane", Layer::kPipeline},
      {"pipeline.stream", Layer::kPipeline},
      {"pipeline.merge", Layer::kPipelineMerge},
      {"coord.run", Layer::kCoordRun},
      {"coord.dispatch", Layer::kCoordDispatch},
      {"coord.merge", Layer::kCoordMerge},
      {"worker.assign", Layer::kWorkerAssign}};
  for (const auto& [n, l] : kMap) {
    if (name == n) {
      *layer = l;
      return true;
    }
  }
  return false;
}

/// One recorded interval. `job` is the op the span belongs to (0 when
/// the recording thread could not know, e.g. server threads under
/// concurrent clients); a layer span's parent is its job's kJob span.
struct Span {
  Layer layer = Layer::kJob;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t job = 0;
  uint64_t thread = 0;
};

/// Exact per-layer totals over every timed call.
struct LayerTotals {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> items{0};
  std::atomic<uint64_t> busy_ns{0};
  std::atomic<uint64_t> bytes{0};
};

/// Process-wide recorder (the decorators are shared by every thread the
/// program runs them on).
class Recorder {
 public:
  static constexpr int64_t kCoalesceNs = 2000;
  static constexpr size_t kMaxSpansPerThread = size_t{1} << 20;

  static Recorder& Get() {
    static Recorder recorder;
    return recorder;
  }

  /// While off, decorators forward without timing (one relaxed load).
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  /// The op a single-client loop is running; decorators stamp it on
  /// their spans. 0 = unattributed.
  void set_job(uint64_t job) { job_.store(job, std::memory_order_relaxed); }
  uint64_t job() const { return job_.load(std::memory_order_relaxed); }

  void Record(Layer layer, int64_t start_ns, int64_t end_ns,
              uint64_t items = 1, uint64_t bytes = 0) {
    LayerTotals& t = totals_[static_cast<int>(layer)];
    t.calls.fetch_add(1, std::memory_order_relaxed);
    t.items.fetch_add(items, std::memory_order_relaxed);
    t.busy_ns.fetch_add(static_cast<uint64_t>(end_ns - start_ns),
                        std::memory_order_relaxed);
    t.bytes.fetch_add(bytes, std::memory_order_relaxed);
    AddSpan(Span{layer, start_ns, end_ns, job(), 0});
  }

  /// Record a span without touching the per-call totals (job spans and
  /// intervals imported from the program's own trace).
  void AddSpan(Span span) {
    ThreadLog* log = Local();
    span.thread = log->thread;
    std::lock_guard<std::mutex> lock(log->mu);
    Span& open = log->open[static_cast<int>(span.layer)];
    if (open.end_ns != 0 && open.job == span.job &&
        span.start_ns >= open.start_ns &&
        span.start_ns - open.end_ns <= kCoalesceNs) {
      open.end_ns = std::max(open.end_ns, span.end_ns);
      return;
    }
    if (open.end_ns != 0) Flush(log, open);
    open = span;
  }

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<int>(layer)];
  }

  /// Every span recorded so far (open spans flushed), in no particular
  /// order. Call once recording threads are quiescent.
  std::vector<Span> Collect() {
    std::vector<Span> all;
    std::lock_guard<std::mutex> lock(logs_mu_);
    for (const auto& log : logs_) {
      std::lock_guard<std::mutex> log_lock(log->mu);
      for (Span& open : log->open) {
        if (open.end_ns != 0) Flush(log.get(), open);
        open = Span{};
      }
      all.insert(all.end(), log->done.begin(), log->done.end());
    }
    return all;
  }

  /// Spans dropped because a thread hit kMaxSpansPerThread.
  uint64_t dropped() const { return dropped_.load(); }

 private:
  struct ThreadLog {
    uint64_t thread = 0;
    std::mutex mu;
    std::vector<Span> done;
    Span open[static_cast<int>(Layer::kCount)];
  };

  void Flush(ThreadLog* log, const Span& span) {
    if (log->done.size() >= kMaxSpansPerThread) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    log->done.push_back(span);
  }

  ThreadLog* Local() {
    thread_local ThreadLog* log = nullptr;
    if (log == nullptr) {
      std::lock_guard<std::mutex> lock(logs_mu_);
      logs_.push_back(std::make_unique<ThreadLog>());
      log = logs_.back().get();
      log->thread = logs_.size();
    }
    return log;
  }

  std::atomic<bool> on_{false};
  std::atomic<uint64_t> job_{0};
  LayerTotals totals_[static_cast<int>(Layer::kCount)];
  std::atomic<uint64_t> dropped_{0};
  std::mutex logs_mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by logs_mu_
};

/// Times one call into `layer` when the recorder is on.
class ScopedLayer {
 public:
  explicit ScopedLayer(Layer layer, uint64_t items = 1)
      : layer_(layer),
        items_(items),
        start_ns_(Recorder::Get().on() ? TraceNowNs() : 0) {}
  ~ScopedLayer() {
    if (start_ns_ != 0) {
      Recorder::Get().Record(layer_, start_ns_, TraceNowNs(), items_,
                             bytes_);
    }
  }
  ScopedLayer(const ScopedLayer&) = delete;
  ScopedLayer& operator=(const ScopedLayer&) = delete;

  void set_bytes(uint64_t bytes) { bytes_ = bytes; }

 private:
  Layer layer_;
  uint64_t items_;
  int64_t start_ns_;
  uint64_t bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Decorators. Each forwards every virtual of the wrapped object.
// ---------------------------------------------------------------------------

class TimedExtractor : public Extractor {
 public:
  explicit TimedExtractor(const Extractor* inner)
      : Extractor(inner->model_id()), inner_(inner) {}

  size_t num_units() const override { return inner_->num_units(); }
  Matrix ExtractRecord(const Record& rec,
                       const std::vector<int>& unit_ids) const override {
    ScopedLayer timer(Layer::kExtractUnit);
    return inner_->ExtractRecord(rec, unit_ids);
  }
  Matrix ExtractBlock(const Dataset& dataset,
                      const std::vector<size_t>& record_idx,
                      const std::vector<int>& unit_ids) const override {
    ScopedLayer timer(Layer::kExtractUnit, record_idx.size());
    return inner_->ExtractBlock(dataset, record_idx, unit_ids);
  }

 private:
  const Extractor* inner_;
};

class TimedHypothesis : public HypothesisFn {
 public:
  explicit TimedHypothesis(HypothesisPtr inner)
      : HypothesisFn(inner->name()), inner_(std::move(inner)) {}

  std::vector<float> Eval(const Record& rec) const override {
    ScopedLayer timer(Layer::kExtractHyp);
    return inner_->Eval(rec);
  }
  int num_classes() const override { return inner_->num_classes(); }

 private:
  HypothesisPtr inner_;
};

inline std::vector<HypothesisPtr> TimedHypotheses(
    const std::vector<HypothesisPtr>& hyps) {
  std::vector<HypothesisPtr> out;
  out.reserve(hyps.size());
  for (const HypothesisPtr& h : hyps) {
    out.push_back(std::make_shared<TimedHypothesis>(h));
  }
  return out;
}

class TimedMeasure : public Measure {
 public:
  explicit TimedMeasure(std::unique_ptr<Measure> inner)
      : inner_(std::move(inner)) {}

  void BeginBlock(uint64_t serial) override { inner_->BeginBlock(serial); }
  void ProcessBlock(const Matrix& units, std::span<const float> hyp) override {
    ScopedLayer timer(Layer::kProcessBlock, units.rows());
    inner_->ProcessBlock(units, hyp);
  }
  MeasureScores Scores() const override {
    ScopedLayer timer(Layer::kScores);
    return inner_->Scores();
  }
  double ErrorEstimate() const override { return inner_->ErrorEstimate(); }
  bool SupportsConvergence() const override {
    return inner_->SupportsConvergence();
  }
  MergeExactness merge_exactness() const override {
    return inner_->merge_exactness();
  }
  std::unique_ptr<Measure> CloneState() const override {
    std::unique_ptr<Measure> clone = inner_->CloneState();
    if (clone == nullptr) return nullptr;
    return std::make_unique<TimedMeasure>(std::move(clone));
  }
  void MergeFrom(const Measure& other) override {
    ScopedLayer timer(Layer::kMerge);
    // Replicas come from CloneState()/the factory, so the peer is wrapped
    // too; the wrapped measure's own checked downcast sees its own type.
    const auto* timed = dynamic_cast<const TimedMeasure*>(&other);
    inner_->MergeFrom(timed != nullptr ? *timed->inner_ : other);
  }
  bool SerializeState(codec::Writer* w) const override {
    ScopedLayer timer(Layer::kSerialize);
    const size_t before = w->bytes().size();
    const bool ok = inner_->SerializeState(w);
    timer.set_bytes(w->bytes().size() - before);
    return ok;
  }
  bool DeserializeState(codec::Reader* r) override {
    return inner_->DeserializeState(r);
  }

 private:
  std::unique_ptr<Measure> inner_;
};

class TimedMergedMeasure : public MergedMeasure {
 public:
  explicit TimedMergedMeasure(std::unique_ptr<MergedMeasure> inner)
      : inner_(std::move(inner)) {}

  void ProcessBlock(const Matrix& units, const Matrix& hyps) override {
    ScopedLayer timer(Layer::kMergedProcessBlock, units.rows());
    inner_->ProcessBlock(units, hyps);
  }
  MeasureScores ScoresFor(size_t hyp_index) const override {
    ScopedLayer timer(Layer::kScores);
    return inner_->ScoresFor(hyp_index);
  }
  double ErrorEstimate(size_t hyp_index) const override {
    return inner_->ErrorEstimate(hyp_index);
  }

 private:
  std::unique_ptr<MergedMeasure> inner_;
};

class TimedMeasureFactory : public MeasureFactory {
 public:
  explicit TimedMeasureFactory(MeasureFactoryPtr inner)
      : MeasureFactory(inner->name()), inner_(std::move(inner)) {}

  bool is_joint() const override { return inner_->is_joint(); }
  bool mergeable() const override { return inner_->mergeable(); }
  std::unique_ptr<Measure> Create(size_t num_units,
                                  int num_classes) const override {
    return std::make_unique<TimedMeasure>(
        inner_->Create(num_units, num_classes));
  }
  std::unique_ptr<MergedMeasure> CreateMerged(size_t num_units,
                                              size_t num_hyps) const override {
    std::unique_ptr<MergedMeasure> merged =
        inner_->CreateMerged(num_units, num_hyps);
    if (merged == nullptr) return nullptr;
    return std::make_unique<TimedMergedMeasure>(std::move(merged));
  }

 private:
  MeasureFactoryPtr inner_;
};

}  // namespace paperbench
}  // namespace deepbase
