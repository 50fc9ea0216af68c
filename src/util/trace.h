// Lightweight span tracing for end-to-end job diagnostics.
//
// A Tracer is a per-job ring buffer of TraceSpans. Every span carries the
// 64-bit id of its parent, so the recorded set reassembles into a tree:
// scheduler queue/admission phases, engine extract/score lanes,
// coordinator dispatch hops, and worker-side pipeline spans all hang off
// one root, under one trace id that travels across the wire (Submit and
// Assign frames). Span ids are process-unique and seeded per process, so
// spans imported from a worker cannot collide with the coordinator's.
//
// Timestamps are steady_clock nanoseconds (TraceNowNs) — the same
// relative-time philosophy as deadline propagation: clocks never cross
// hosts. Import() re-anchors a remote process's spans with a caller-
// computed offset before stitching them into the local tree.
//
// Instrumentation sites use the DB_SPAN RAII macro on a local
// TraceContext. The scope rebinds ctx.parent_span to itself for its
// lifetime, so nested DB_SPANs in the same call tree parent naturally:
//
//   TraceContext ctx{options.tracer, options.trace_parent_span};
//   DB_SPAN(ctx, "engine.inspect");
//   ...                           // children recorded under this span
//
// A null tracer disables everything at runtime (the scope records
// nothing).

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace deepbase {

/// \brief One recorded span. start_ns is steady_clock time of the
/// recording process (re-anchored by Tracer::Import when crossing hosts).
struct TraceSpan {
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 = root of the trace
  std::string name;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  /// Free-form "key=value" pairs, comma-separated (shard=3,worker=w1).
  std::string tags;
};

/// \brief steady_clock now, in nanoseconds (the internal clock unit of
/// every timing in the stack; seconds exist only at render time).
int64_t TraceNowNs();

/// \brief Fresh nonzero 64-bit trace id (process-seeded, collision-safe
/// across processes for any realistic job count).
uint64_t NewTraceId();

/// \brief Fresh process-unique span id. Seeded per process so worker
/// spans imported into a coordinator trace cannot collide.
uint64_t NewSpanId();

/// \brief Per-job span sink: a bounded ring buffer (oldest spans are
/// dropped once capacity is hit — a trace is a diagnostic, not an audit
/// log). Thread-safe: lanes and the scheduler record concurrently.
class Tracer {
 public:
  explicit Tracer(uint64_t trace_id, size_t capacity = 256);

  uint64_t trace_id() const { return trace_id_; }

  /// \brief Append one finished span (ring semantics at capacity).
  void Record(TraceSpan span);

  /// \brief Stitch spans recorded by another process into this trace,
  /// shifting their timestamps by `offset_ns` (remote clocks never cross
  /// hosts raw; the caller anchors the remote root to a local event).
  void Import(const std::vector<TraceSpan>& spans, int64_t offset_ns);

  /// \brief Snapshot of the recorded spans, ordered by start time.
  std::vector<TraceSpan> Spans() const;

  /// \brief Spans lost to the ring bound (0 in any healthy trace).
  size_t dropped() const;

 private:
  const uint64_t trace_id_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;  ///< ring; next_ is the overwrite cursor
  size_t next_ = 0;
  size_t dropped_ = 0;
};

/// \brief The propagation unit: who records, and under which parent.
/// Carried by InspectOptions through the scheduler, engine, and cluster
/// layers; both fields are local-only (never serialized — the wire
/// carries trace/parent *ids*, and each process owns its Tracer).
struct TraceContext {
  Tracer* tracer = nullptr;
  uint64_t parent_span = 0;

  bool enabled() const { return tracer != nullptr; }
};

/// \brief RAII span: binds itself as ctx.parent_span for its lifetime
/// (restoring on destruction) and records the finished span into the
/// tracer. No-op when ctx.tracer is null.
class SpanScope {
 public:
  SpanScope(TraceContext* ctx, const char* name)
      : ctx_(ctx->tracer != nullptr ? ctx : nullptr) {
    if (ctx_ == nullptr) return;
    span_.span_id = NewSpanId();
    span_.parent_id = ctx_->parent_span;
    span_.name = name;
    span_.start_ns = TraceNowNs();
    saved_parent_ = ctx_->parent_span;
    ctx_->parent_span = span_.span_id;
  }

  ~SpanScope() {
    if (ctx_ == nullptr) return;
    span_.duration_ns = TraceNowNs() - span_.start_ns;
    ctx_->parent_span = saved_parent_;
    ctx_->tracer->Record(std::move(span_));
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// \brief Attach a "key=value" tag to the span.
  void Tag(const char* key, const std::string& value) {
    if (ctx_ == nullptr) return;
    if (!span_.tags.empty()) span_.tags += ',';
    span_.tags += key;
    span_.tags += '=';
    span_.tags += value;
  }
  void Tag(const char* key, uint64_t value) {
    Tag(key, std::to_string(value));
  }

  uint64_t id() const { return ctx_ != nullptr ? span_.span_id : 0; }

 private:
  TraceContext* ctx_;
  uint64_t saved_parent_ = 0;
  TraceSpan span_;
};

#define DB_SPAN_CONCAT_INNER(a, b) a##b
#define DB_SPAN_CONCAT(a, b) DB_SPAN_CONCAT_INNER(a, b)

/// \brief Open an RAII span named `name` under `ctx` for the rest of the
/// enclosing scope. `ctx` must be a mutable TraceContext lvalue.
#define DB_SPAN(ctx, name) \
  ::deepbase::SpanScope DB_SPAN_CONCAT(db_span_, __LINE__)(&(ctx), (name))

/// \brief Same, but names the scope variable so tags can be attached:
/// DB_SPAN_NAMED(span, ctx, "coord.dispatch"); span.Tag("worker", id);
#define DB_SPAN_NAMED(var, ctx, name) \
  ::deepbase::SpanScope var(&(ctx), (name))

/// \brief Render one span as the structured "key=value" log line the
/// slow-job log emits (span= parent= name= start_ms= dur_ms= tags=).
std::string FormatSpanLogLine(uint64_t trace_id, const TraceSpan& span,
                              int64_t trace_start_ns);

}  // namespace deepbase
