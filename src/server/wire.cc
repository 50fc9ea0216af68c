#include "server/wire.h"

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

#include "hypothesis/iterators.h"
#include "util/failpoint.h"

namespace deepbase {
namespace wire {

// Writer / Reader live in util/codec.{h,cc}; wire.h re-exports them.

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

std::string EncodeFrame(MsgType type, uint64_t request_id,
                        const std::string& payload) {
  Writer w;
  w.U32(kMagic);
  w.U16(kProtocolVersion);
  w.U16(static_cast<uint16_t>(type));
  w.U64(request_id);
  w.U32(static_cast<uint32_t>(payload.size()));
  std::string out = w.Take();
  out.append(payload);
  return out;
}

namespace {

/// Full read of `n` bytes; false on EOF/error. `*clean_eof` reports an
/// EOF that arrived exactly on a frame boundary (a normal hangup).
bool ReadFully(int fd, char* buf, size_t n, bool* clean_eof) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) {
      if (clean_eof != nullptr) *clean_eof = (got == 0);
      return false;
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (clean_eof != nullptr) *clean_eof = false;
      return false;
    }
    got += static_cast<size_t>(r);
  }
  return true;
}

}  // namespace

Status ReadFrame(int fd, Frame* frame, size_t max_frame_bytes) {
  DB_FAILPOINT("wire.read_frame");
  char header[kHeaderBytes];
  bool clean_eof = false;
  if (!ReadFully(fd, header, kHeaderBytes, &clean_eof)) {
    return clean_eof ? Status::IOError("connection closed")
                     : Status::IOError("truncated frame header");
  }
  const std::string header_str(header, kHeaderBytes);
  Reader r(header_str);
  const uint32_t magic = r.U32();
  const uint16_t version = r.U16();
  const uint16_t type = r.U16();
  frame->request_id = r.U64();
  const uint32_t payload_len = r.U32();
  if (magic != kMagic) {
    return Status::DataLoss("bad frame magic");
  }
  if (version != kProtocolVersion) {
    return Status::DataLoss("unsupported protocol version " +
                            std::to_string(version));
  }
  if (payload_len > max_frame_bytes) {
    return Status::DataLoss("frame payload of " +
                            std::to_string(payload_len) +
                            " bytes exceeds the frame limit");
  }
  frame->type = static_cast<MsgType>(type);
  // Grow the payload as its bytes arrive (doubling from 64 KiB), so a
  // header that lies about its length costs at most twice what the peer
  // actually sent, never the full claim up front.
  frame->payload.clear();
  while (frame->payload.size() < payload_len) {
    const size_t have = frame->payload.size();
    const size_t chunk =
        std::min<size_t>(payload_len - have, std::max<size_t>(have, 64 << 10));
    frame->payload.resize(have + chunk);
    if (!ReadFully(fd, frame->payload.data() + have, chunk, nullptr)) {
      return Status::IOError("truncated frame payload");
    }
  }
  return Status::OK();
}

Status WriteFrame(int fd, MsgType type, uint64_t request_id,
                  const std::string& payload) {
  DB_FAILPOINT("wire.write_frame");
  if (payload.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::Invalid("frame payload too large");
  }
  const std::string bytes = EncodeFrame(type, request_id, payload);
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t r =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send failed: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(r);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Status payload.
// ---------------------------------------------------------------------------

void EncodeStatus(const Status& status, Writer* w) {
  w->U16(StatusCodeToWire(status.code()));
  w->Str(status.message());
}

Status DecodeStatus(Reader* r) {
  const StatusCode code = StatusCodeFromWire(r->U16());
  std::string message = r->Str();
  if (!r->ok()) return Status::DataLoss("truncated status payload");
  if (code == StatusCode::kOk) return Status::OK();
  // Rebuild through the code so unknown wire values degrade uniformly.
  switch (code) {
    case StatusCode::kInvalidArgument:
      return Status::Invalid(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case StatusCode::kNotImplemented:
      return Status::NotImplemented(std::move(message));
    case StatusCode::kIOError:
      return Status::IOError(std::move(message));
    case StatusCode::kDataLoss:
      return Status::DataLoss(std::move(message));
    case StatusCode::kCancelled:
      return Status::Cancelled(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    default:
      return Status::Internal(std::move(message));
  }
}

// ---------------------------------------------------------------------------
// InspectRequest payload.
// ---------------------------------------------------------------------------

namespace {

void EncodeOptions(const InspectOptions& o, Writer* w) {
  w->U64(o.block_size);
  w->U64(o.shuffle_seed);
  w->U64(o.passes);
  w->U8(o.streaming ? 1 : 0);
  w->U8(o.early_stopping ? 1 : 0);
  w->U8(o.model_merging ? 1 : 0);
  w->F64(o.corr_epsilon);
  w->F64(o.logreg_epsilon);
  w->F64(o.default_epsilon);
  w->U64(o.num_shards);
  w->F64(o.time_budget_s);
  w->U64(o.max_blocks);
  // Deadlines travel as *relative* remaining budget, never as absolute
  // time: steady_clock epochs are per-host and wall clocks may be
  // skewed, so the receiver re-anchors the budget on its own clock at
  // decode time. +inf = no deadline. An already-expired deadline
  // encodes as a non-positive budget and decodes as already expired.
  double deadline_budget_s = std::numeric_limits<double>::infinity();
  if (o.deadline != std::chrono::steady_clock::time_point::max()) {
    deadline_budget_s =
        std::chrono::duration<double>(o.deadline -
                                      std::chrono::steady_clock::now())
            .count();
  }
  w->F64(deadline_budget_s);
}

void DecodeOptions(Reader* r, InspectOptions* o) {
  o->block_size = r->U64();
  o->shuffle_seed = r->U64();
  o->passes = r->U64();
  o->streaming = r->U8() != 0;
  o->early_stopping = r->U8() != 0;
  o->model_merging = r->U8() != 0;
  o->corr_epsilon = r->F64();
  o->logreg_epsilon = r->F64();
  o->default_epsilon = r->F64();
  o->num_shards = r->U64();
  o->time_budget_s = r->F64();
  o->max_blocks = r->U64();
  const double deadline_budget_s = r->F64();
  if (std::isinf(deadline_budget_s) && deadline_budget_s > 0) {
    o->deadline = std::chrono::steady_clock::time_point::max();
  } else {
    // Re-anchor on the local clock; a budget that went non-positive in
    // transit stays expired (clamped to "now").
    o->deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(std::max(0.0, deadline_budget_s)));
  }
}

}  // namespace

Status EncodeInspectRequest(const InspectRequest& request, Writer* w) {
  // Only name-resolved requests can travel: a pointer has no identity in
  // another process.
  for (const InspectRequest::ModelRef& ref : request.models) {
    if (ref.extractor != nullptr || ref.name.empty()) {
      return Status::Invalid(
          "remote requests must reference models by catalog name");
    }
  }
  if (!request.hypotheses.empty()) {
    return Status::Invalid(
        "remote requests cannot carry inline hypothesis objects; use "
        "hypothesis_sets (RegisterHypotheses)");
  }
  if (!request.measures.empty()) {
    return Status::Invalid(
        "remote requests cannot carry inline measure objects; use "
        "measure_names");
  }
  if (request.dataset != nullptr) {
    return Status::Invalid(
        "remote requests cannot carry inline datasets; use dataset_name "
        "(RegisterDataset)");
  }
  if (request.dataset_name.empty()) {
    return Status::Invalid("remote requests must name a dataset");
  }
  w->U32(static_cast<uint32_t>(request.models.size()));
  for (const InspectRequest::ModelRef& ref : request.models) {
    w->Str(ref.name);
    w->U64(ref.group_by_layer);
    w->U32(static_cast<uint32_t>(ref.groups.size()));
    for (const UnitGroupSpec& group : ref.groups) {
      w->Str(group.group_id);
      w->U32(static_cast<uint32_t>(group.unit_ids.size()));
      for (int id : group.unit_ids) w->U32(static_cast<uint32_t>(id));
    }
  }
  w->StrList(request.hypothesis_sets);
  w->StrList(request.hypothesis_filter);
  w->Str(request.dataset_name);
  w->StrList(request.measure_names);
  w->U8(request.min_abs_unit_score.has_value() ? 1 : 0);
  if (request.min_abs_unit_score.has_value()) {
    w->F32(*request.min_abs_unit_score);
  }
  w->U8(request.options.has_value() ? 1 : 0);
  if (request.options.has_value()) EncodeOptions(*request.options, w);
  return Status::OK();
}

bool DecodeInspectRequest(Reader* r, InspectRequest* request) {
  const uint32_t n_models = r->U32();
  for (uint32_t m = 0; m < n_models && r->ok(); ++m) {
    InspectRequest::ModelRef ref;
    ref.name = r->Str();
    ref.group_by_layer = r->U64();
    const uint32_t n_groups = r->U32();
    for (uint32_t g = 0; g < n_groups && r->ok(); ++g) {
      UnitGroupSpec group;
      group.group_id = r->Str();
      const uint32_t n_units = r->U32();
      for (uint32_t u = 0; u < n_units && r->ok(); ++u) {
        group.unit_ids.push_back(static_cast<int>(r->U32()));
      }
      ref.groups.push_back(std::move(group));
    }
    request->models.push_back(std::move(ref));
  }
  request->hypothesis_sets = r->StrList();
  request->hypothesis_filter = r->StrList();
  request->dataset_name = r->Str();
  request->measure_names = r->StrList();
  if (r->U8() != 0) request->min_abs_unit_score = r->F32();
  if (r->U8() != 0) {
    InspectOptions options;
    DecodeOptions(r, &options);
    request->options = options;
  }
  return r->ok();
}

// ---------------------------------------------------------------------------
// Dataset payload.
// ---------------------------------------------------------------------------

void EncodeDataset(const Dataset& dataset, Writer* w) {
  w->U64(dataset.ns());
  w->U32(static_cast<uint32_t>(dataset.num_records()));
  for (const Record& rec : dataset.records()) {
    w->StrList(rec.tokens);
    w->U32(static_cast<uint32_t>(rec.annotations.size()));
    for (const auto& [track, values] : rec.annotations) {
      w->Str(track);
      w->StrList(values);
    }
  }
}

bool DecodeDataset(Reader* r, Dataset* dataset) {
  const uint64_t ns = r->U64();
  if (!r->ok() || ns == 0 || ns > (1u << 20)) return false;
  *dataset = Dataset(Vocab(), ns);
  // Every encoded record and annotation track holds exactly ns symbols
  // (Dataset::Add pads them), so anything else is malformed — and
  // rejecting it keeps Add from padding a few payload bytes out to ns.
  const uint32_t n_records = r->U32();
  for (uint32_t i = 0; i < n_records && r->ok(); ++i) {
    Record rec;
    rec.tokens = r->StrList();
    if (rec.tokens.size() != ns) return false;
    rec.ids.reserve(rec.tokens.size());
    for (const std::string& tok : rec.tokens) {
      rec.ids.push_back(dataset->mutable_vocab()->Add(tok));
    }
    const uint32_t n_tracks = r->U32();
    for (uint32_t t = 0; t < n_tracks && r->ok(); ++t) {
      std::string track = r->Str();
      std::vector<std::string> values = r->StrList();
      if (r->ok() && values.size() != ns) return false;
      rec.annotations[std::move(track)] = std::move(values);
    }
    if (r->ok()) dataset->Add(std::move(rec));
  }
  return r->ok();
}

// ---------------------------------------------------------------------------
// Hypothesis specs.
// ---------------------------------------------------------------------------

void EncodeHypothesisSpec(const HypothesisSpec& spec, Writer* w) {
  w->U8(static_cast<uint8_t>(spec.kind));
  w->Str(spec.a);
  w->Str(spec.b);
  w->StrList(spec.labels);
}

bool DecodeHypothesisSpec(Reader* r, HypothesisSpec* spec) {
  const uint8_t kind = r->U8();
  if (kind > static_cast<uint8_t>(HypothesisSpec::Kind::kCharClass)) {
    return false;
  }
  spec->kind = static_cast<HypothesisSpec::Kind>(kind);
  spec->a = r->Str();
  spec->b = r->Str();
  spec->labels = r->StrList();
  return r->ok();
}

Result<HypothesisPtr> BuildHypothesis(const HypothesisSpec& spec) {
  switch (spec.kind) {
    case HypothesisSpec::Kind::kKeyword:
      if (spec.a.empty()) return Status::Invalid("keyword spec: empty keyword");
      return HypothesisPtr(std::make_shared<KeywordHypothesis>(spec.a));
    case HypothesisSpec::Kind::kAnnotation:
      if (spec.a.empty()) return Status::Invalid("annotation spec: no track");
      return HypothesisPtr(
          std::make_shared<AnnotationHypothesis>(spec.a, spec.b));
    case HypothesisSpec::Kind::kMultiClassAnnotation:
      if (spec.a.empty() || spec.labels.empty()) {
        return Status::Invalid("multi-class spec: track and labels required");
      }
      return HypothesisPtr(std::make_shared<MultiClassAnnotationHypothesis>(
          spec.a, spec.labels));
    case HypothesisSpec::Kind::kCharClass:
      if (spec.a.empty() || spec.b.empty()) {
        return Status::Invalid("char-class spec: name and chars required");
      }
      return HypothesisPtr(
          std::make_shared<CharClassHypothesis>(spec.a, spec.b));
  }
  return Status::Invalid("unknown hypothesis spec kind");
}

// ---------------------------------------------------------------------------
// Progress / result summary / stats payloads.
// ---------------------------------------------------------------------------

void EncodeJobProgress(const JobProgressWire& progress, Writer* w) {
  w->U8(progress.status);
  w->U64(progress.blocks_completed);
  w->U64(progress.blocks_total);
  w->U64(progress.records_processed);
}

bool DecodeJobProgress(Reader* r, JobProgressWire* progress) {
  progress->status = r->U8();
  progress->blocks_completed = r->U64();
  progress->blocks_total = r->U64();
  progress->records_processed = r->U64();
  return r->ok();
}

void EncodeResultSummary(const ResultSummaryWire& summary, Writer* w) {
  w->U64(summary.blocks_processed);
  w->U64(summary.dedup_hits);
  w->U64(summary.result_cache_hits);
  w->U64(summary.scan_shared_hits);
  w->F64(summary.total_s);
  w->U64(summary.trace_id);
  w->F64(summary.queue_s);
  w->F64(summary.extract_s);
  w->F64(summary.score_s);
  w->F64(summary.merge_s);
  w->F64(summary.wire_s);
  w->F64(summary.worker_hop_s);
}

bool DecodeResultSummary(Reader* r, ResultSummaryWire* summary) {
  summary->blocks_processed = r->U64();
  summary->dedup_hits = r->U64();
  summary->result_cache_hits = r->U64();
  summary->scan_shared_hits = r->U64();
  summary->total_s = r->F64();
  summary->trace_id = r->U64();
  summary->queue_s = r->F64();
  summary->extract_s = r->F64();
  summary->score_s = r->F64();
  summary->merge_s = r->F64();
  summary->wire_s = r->F64();
  summary->worker_hop_s = r->F64();
  return r->ok();
}

void EncodeServerStats(const ServerStatsWire& stats, Writer* w) {
  w->U64(stats.jobs_scheduled);
  w->U64(stats.groups_formed);
  w->U64(stats.jobs_coscheduled);
  w->U64(stats.scan_extractions);
  w->U64(stats.scan_shared_hits);
  w->U64(stats.dedup_followers);
  w->U64(stats.admission_rejections);
  w->U64(stats.result_cache_hits);
  w->U64(stats.result_cache_misses);
  w->U64(stats.result_cache_persistent_hits);
  w->U64(stats.inflight_jobs);
  w->U64(stats.active_jobs);
  w->U64(stats.connections_accepted);
  w->U64(stats.connections_active);
  w->U64(stats.frames_received);
  w->U64(stats.frames_sent);
  w->U64(stats.protocol_errors);
  w->U64(stats.submits);
  w->U64(stats.catalog_version);
  w->U8(stats.draining);
}

bool DecodeServerStats(Reader* r, ServerStatsWire* stats) {
  stats->jobs_scheduled = r->U64();
  stats->groups_formed = r->U64();
  stats->jobs_coscheduled = r->U64();
  stats->scan_extractions = r->U64();
  stats->scan_shared_hits = r->U64();
  stats->dedup_followers = r->U64();
  stats->admission_rejections = r->U64();
  stats->result_cache_hits = r->U64();
  stats->result_cache_misses = r->U64();
  stats->result_cache_persistent_hits = r->U64();
  stats->inflight_jobs = r->U64();
  stats->active_jobs = r->U64();
  stats->connections_accepted = r->U64();
  stats->connections_active = r->U64();
  stats->frames_received = r->U64();
  stats->frames_sent = r->U64();
  stats->protocol_errors = r->U64();
  stats->submits = r->U64();
  stats->catalog_version = r->U64();
  stats->draining = r->U8();
  return r->ok();
}

// ---------------------------------------------------------------------------
// Cluster payloads.
// ---------------------------------------------------------------------------

void EncodeWorkerHello(const WorkerHelloWire& hello, Writer* w) {
  w->U16(hello.protocol_version);
  w->Str(hello.worker_id);
  w->U64(hello.catalog_version);
  w->U32(hello.num_threads);
}

bool DecodeWorkerHello(Reader* r, WorkerHelloWire* hello) {
  hello->protocol_version = r->U16();
  hello->worker_id = r->Str();
  hello->catalog_version = r->U64();
  hello->num_threads = r->U32();
  return r->ok() && !hello->worker_id.empty();
}

Status EncodeAssignment(const AssignmentWire& assignment, Writer* w) {
  w->U64(assignment.assignment_id);
  w->U8(static_cast<uint8_t>(assignment.mode));
  w->U32(assignment.total_shards);
  w->U32(assignment.shard_lo);
  w->U32(assignment.shard_hi);
  w->U64(assignment.trace_id);
  w->U64(assignment.parent_span);
  return EncodeInspectRequest(assignment.request, w);
}

bool DecodeAssignment(Reader* r, AssignmentWire* assignment) {
  assignment->assignment_id = r->U64();
  const uint8_t mode = r->U8();
  if (mode > static_cast<uint8_t>(AssignmentWire::Mode::kWhole)) return false;
  assignment->mode = static_cast<AssignmentWire::Mode>(mode);
  assignment->total_shards = r->U32();
  assignment->shard_lo = r->U32();
  assignment->shard_hi = r->U32();
  assignment->trace_id = r->U64();
  assignment->parent_span = r->U64();
  if (!DecodeInspectRequest(r, &assignment->request)) return false;
  return r->ok() && assignment->total_shards > 0 &&
         (assignment->mode == AssignmentWire::Mode::kWhole ||
          (assignment->shard_lo < assignment->shard_hi &&
           assignment->shard_hi <= assignment->total_shards));
}

void EncodeTraceSpans(const std::vector<TraceSpan>& spans, Writer* w) {
  w->U32(static_cast<uint32_t>(spans.size()));
  for (const TraceSpan& span : spans) {
    w->U64(span.span_id);
    w->U64(span.parent_id);
    w->Str(span.name);
    w->U64(static_cast<uint64_t>(span.start_ns));
    w->U64(static_cast<uint64_t>(span.duration_ns));
    w->Str(span.tags);
  }
}

bool DecodeTraceSpans(Reader* r, std::vector<TraceSpan>* spans) {
  const uint32_t n = r->U32();
  spans->clear();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    TraceSpan span;
    span.span_id = r->U64();
    span.parent_id = r->U64();
    span.name = r->Str();
    span.start_ns = static_cast<int64_t>(r->U64());
    span.duration_ns = static_cast<int64_t>(r->U64());
    span.tags = r->Str();
    spans->push_back(std::move(span));
  }
  return r->ok();
}

void EncodeAssignResult(const AssignResultWire& result, Writer* w) {
  w->U64(result.assignment_id);
  EncodeStatus(result.status, w);
  w->U8(static_cast<uint8_t>(result.mode));
  if (result.status.ok()) {
    if (result.mode == AssignmentWire::Mode::kSliced) {
      w->StrList(result.pair_states);
    } else {
      w->Str(result.table_bytes);
    }
  }
  w->U64(result.blocks_processed);
  w->U64(result.records_processed);
  w->U8(result.all_converged);
  w->U64(static_cast<uint64_t>(result.run_ns));
  EncodeTraceSpans(result.spans, w);
}

bool DecodeAssignResult(Reader* r, AssignResultWire* result) {
  result->assignment_id = r->U64();
  result->status = DecodeStatus(r);
  const uint8_t mode = r->U8();
  if (mode > static_cast<uint8_t>(AssignmentWire::Mode::kWhole)) return false;
  result->mode = static_cast<AssignmentWire::Mode>(mode);
  if (result->status.ok()) {
    if (result->mode == AssignmentWire::Mode::kSliced) {
      result->pair_states = r->StrList();
    } else {
      result->table_bytes = r->Str();
    }
  }
  result->blocks_processed = r->U64();
  result->records_processed = r->U64();
  result->all_converged = r->U8();
  result->run_ns = static_cast<int64_t>(r->U64());
  if (!DecodeTraceSpans(r, &result->spans)) return false;
  return r->ok();
}

void EncodeWorkerProgress(const WorkerProgressWire& progress, Writer* w) {
  w->U64(progress.assignment_id);
  w->U64(progress.blocks_processed);
  w->U64(progress.records_processed);
}

bool DecodeWorkerProgress(Reader* r, WorkerProgressWire* progress) {
  progress->assignment_id = r->U64();
  progress->blocks_processed = r->U64();
  progress->records_processed = r->U64();
  return r->ok();
}

}  // namespace wire
}  // namespace deepbase
