// DeepBase wire protocol (the serving layer's message format). Every
// frame on the socket is length-prefixed binary:
//
//   +--------+---------+--------+------------+-------------+---------+
//   | magic  | version | type   | request_id | payload_len | payload |
//   | u32    | u16     | u16    | u64        | u32         | bytes   |
//   +--------+---------+--------+------------+-------------+---------+
//
// All integers are little-endian. `request_id` is chosen by the client
// and echoed in the response; server-push frames (progress events and the
// final result of a submitted job) carry the originating Submit's
// request_id so the client can demultiplex one socket across many
// concurrent jobs. Status codes travel as the stable values of
// StatusCodeToWire (util/status.h), never raw enum values.
//
// The payload vocabulary is deliberately name-based: a remote
// InspectRequest references models/hypothesis sets/datasets/measures by
// their catalog names (inline extractor/hypothesis/measure pointers
// cannot cross a process boundary and are rejected at encode time).
// Clients may populate the server catalog with RegisterDataset (records
// travel inline) and RegisterHypotheses (a declarative spec subset:
// keyword / annotation / multi-class annotation / char-class — arbitrary
// code does not travel).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/catalog.h"
#include "data/dataset.h"
#include "util/codec.h"
#include "util/status.h"
#include "util/trace.h"

namespace deepbase {
namespace wire {

inline constexpr uint32_t kMagic = 0x44425731;  // "DBW1"
/// Version 2: the kStatsOk payload dropped the promoted-waiter counter.
inline constexpr uint16_t kProtocolVersion = 2;
inline constexpr size_t kHeaderBytes = 20;
/// Frames above this are rejected as malformed before any allocation.
inline constexpr size_t kDefaultMaxFrameBytes = 64ull << 20;

/// \brief Frame types. Requests < 64, responses in [64, 128), server-push
/// events >= 128. Values are protocol constants — append, never renumber.
enum class MsgType : uint16_t {
  // Requests (client -> server).
  kHello = 1,
  kSubmit = 2,
  kPoll = 3,
  kCancel = 4,
  kWait = 5,
  kRegisterDataset = 6,
  kRegisterHypotheses = 7,
  kStats = 8,
  kMetrics = 9,  ///< metrics-registry scrape (payload: one format byte)

  // Cluster requests (worker -> coordinator, and coordinator -> worker
  // for kAssign; same framing, same band). 19 is retired (it carried a
  // store keymap no peer read); never reuse it.
  kWorkerHello = 16,      ///< worker registration (id + catalog version)
  kWorkerHeartbeat = 17,  ///< liveness tick (worker -> coordinator)
  kAssign = 18,           ///< block-range assignment (coordinator -> worker)

  // Introspection requests (client -> server).
  kExplain = 20,  ///< EXPLAIN [ANALYZE]: flags byte + encoded InspectRequest
  kStatusz = 21,  ///< live system introspection dump (one format byte)

  // Responses (server -> client, request_id echoed).
  kHelloOk = 64,
  kSubmitOk = 65,
  kPollOk = 66,
  kCancelOk = 67,
  kRegisterOk = 68,
  kStatsOk = 69,
  kResult = 70,  ///< terminal status + (on OK) a serialized ResultTable
  kError = 71,   ///< request-level failure: wire status code + message

  // Cluster responses.
  kWorkerHelloOk = 72,  ///< coordinator ack: assigned worker index
  kAssignResult = 73,   ///< terminal assignment outcome + partial states
  kMetricsOk = 74,      ///< rendered metrics text (Prometheus or JSON)
  kExplainOk = 75,      ///< rendered plan (flags byte echoed + text)
  kStatuszOk = 76,      ///< rendered statusz (format byte echoed + text)

  // Server-push events (request_id = the originating Submit's).
  kEventProgress = 128,
  // Cluster push (worker -> coordinator): in-flight assignment progress.
  kEventWorkerProgress = 129,
};

/// \brief One decoded frame.
struct Frame {
  MsgType type = MsgType::kError;
  uint64_t request_id = 0;
  std::string payload;
};

// ---------------------------------------------------------------------------
// Payload primitives: bounds-checked little-endian encode/decode.
// The implementations live in util/codec.h so layers below the serving
// stack (measure-state serialization) share the exact byte format.
// ---------------------------------------------------------------------------

using Writer = ::deepbase::codec::Writer;
using Reader = ::deepbase::codec::Reader;

// ---------------------------------------------------------------------------
// Framing over a socket.
// ---------------------------------------------------------------------------

/// \brief Serialize one frame (header + payload) into a byte string.
std::string EncodeFrame(MsgType type, uint64_t request_id,
                        const std::string& payload);

/// \brief Blocking full-frame read from `fd`. Returns kIOError on EOF /
/// socket failure (including EOF mid-frame = truncated frame) and
/// kDataLoss on malformed input (bad magic, unsupported version, payload
/// above `max_frame_bytes`).
Status ReadFrame(int fd, Frame* frame,
                 size_t max_frame_bytes = kDefaultMaxFrameBytes);

/// \brief Blocking full write of one frame to `fd` (SIGPIPE-safe).
Status WriteFrame(int fd, MsgType type, uint64_t request_id,
                  const std::string& payload);

// ---------------------------------------------------------------------------
// Typed payloads.
// ---------------------------------------------------------------------------

/// \brief Status payload (kError, and the leading section of kResult).
void EncodeStatus(const Status& status, Writer* w);
Status DecodeStatus(Reader* r);

/// \brief The name-resolved InspectRequest subset that can travel.
/// Rejects requests holding inline extractor/dataset/hypothesis/measure
/// pointers (no stable identity across the wire).
Status EncodeInspectRequest(const InspectRequest& request, Writer* w);
bool DecodeInspectRequest(Reader* r, InspectRequest* request);

/// \brief Full dataset content: ns, records (tokens + annotation tracks).
/// The decoder rebuilds vocab ids server-side.
void EncodeDataset(const Dataset& dataset, Writer* w);
bool DecodeDataset(Reader* r, Dataset* dataset);

/// \brief Declarative hypothesis constructors that can travel (arbitrary
/// HypothesisFn code cannot).
struct HypothesisSpec {
  enum class Kind : uint8_t {
    kKeyword = 0,     ///< KeywordHypothesis(a)
    kAnnotation = 1,  ///< AnnotationHypothesis(track=a, label=b)
    kMultiClassAnnotation = 2,  ///< MultiClassAnnotationHypothesis(a, labels)
    kCharClass = 3,   ///< CharClassHypothesis(name=a, chars=b)
  };
  Kind kind = Kind::kKeyword;
  std::string a;
  std::string b;
  std::vector<std::string> labels;
};

void EncodeHypothesisSpec(const HypothesisSpec& spec, Writer* w);
bool DecodeHypothesisSpec(Reader* r, HypothesisSpec* spec);
/// \brief Instantiate a spec (server side).
Result<HypothesisPtr> BuildHypothesis(const HypothesisSpec& spec);

/// \brief kPollOk / kEventProgress payload: job lifecycle + the progress
/// counters of JobHandle::Poll, so remote polling reports exactly the
/// numbers a local handle would.
struct JobProgressWire {
  uint8_t status = 0;  ///< JobStatus enumerator index
  uint64_t blocks_completed = 0;
  uint64_t blocks_total = 0;
  uint64_t records_processed = 0;
};

void EncodeJobProgress(const JobProgressWire& progress, Writer* w);
bool DecodeJobProgress(Reader* r, JobProgressWire* progress);

/// \brief Per-job summary appended to every OK kResult, so a client can
/// observe scheduler effects (dedup, caching, shared scans) end-to-end.
/// The phase fields are the server-side critical-path breakdown (wire_s
/// is the server's serialization time for this response; the remaining
/// gap to client-observed latency is network + client decode).
struct ResultSummaryWire {
  uint64_t blocks_processed = 0;
  uint64_t dedup_hits = 0;
  uint64_t result_cache_hits = 0;
  uint64_t scan_shared_hits = 0;
  double total_s = 0;
  uint64_t trace_id = 0;
  double queue_s = 0;
  double extract_s = 0;
  double score_s = 0;
  double merge_s = 0;
  double wire_s = 0;
  double worker_hop_s = 0;
};

void EncodeResultSummary(const ResultSummaryWire& summary, Writer* w);
bool DecodeResultSummary(Reader* r, ResultSummaryWire* summary);

/// \brief kStatsOk payload: scheduler counters + serving-layer gauges.
struct ServerStatsWire {
  // Scheduler (service/scheduler.h SchedulerStats, flattened).
  uint64_t jobs_scheduled = 0;
  uint64_t groups_formed = 0;
  uint64_t jobs_coscheduled = 0;
  uint64_t scan_extractions = 0;
  uint64_t scan_shared_hits = 0;
  uint64_t dedup_followers = 0;
  uint64_t admission_rejections = 0;
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  uint64_t result_cache_persistent_hits = 0;
  uint64_t inflight_jobs = 0;
  uint64_t active_jobs = 0;
  // Serving layer.
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t protocol_errors = 0;
  uint64_t submits = 0;
  uint64_t catalog_version = 0;
  uint8_t draining = 0;
};

void EncodeServerStats(const ServerStatsWire& stats, Writer* w);
bool DecodeServerStats(Reader* r, ServerStatsWire* stats);

// ---------------------------------------------------------------------------
// Cluster payloads (coordinator <-> worker). Same framing, same append-only
// discipline as the client protocol.
// ---------------------------------------------------------------------------

/// \brief kWorkerHello payload: a worker announcing itself. The catalog
/// version is informational (the determinism contract requires workers to
/// hold catalogs equivalent to the coordinator's; mismatches surface as
/// per-assignment errors, not registration failures).
struct WorkerHelloWire {
  uint16_t protocol_version = kProtocolVersion;
  std::string worker_id;
  uint64_t catalog_version = 0;
  uint32_t num_threads = 0;  ///< worker-side pool size (informational)
};

void EncodeWorkerHello(const WorkerHelloWire& hello, Writer* w);
bool DecodeWorkerHello(Reader* r, WorkerHelloWire* hello);

/// \brief kAssign payload: one unit of distributed work. In sliced mode
/// the worker runs the request through BlockPipeline restricted to shards
/// [shard_lo, shard_hi) of `total_shards` and returns serialized partial
/// measure states; in whole mode (sequential-lane measures pinned to one
/// worker) it runs the full request and returns a serialized ResultTable.
/// The request carries its InspectOptions inline (num_shards is pinned to
/// total_shards by the coordinator so scores depend only on
/// (seed, total_shards), never on worker count).
struct AssignmentWire {
  enum class Mode : uint8_t { kSliced = 0, kWhole = 1 };
  uint64_t assignment_id = 0;
  Mode mode = Mode::kSliced;
  uint32_t total_shards = 1;
  uint32_t shard_lo = 0;  ///< inclusive; unused in whole mode
  uint32_t shard_hi = 1;  ///< exclusive; unused in whole mode
  // Trace propagation: the worker opens its local spans under this trace
  // id, parented to the coordinator's dispatch span, so the coordinator
  // can stitch one cross-host timeline. 0 = tracing off.
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  InspectRequest request;
};

Status EncodeAssignment(const AssignmentWire& assignment, Writer* w);
bool DecodeAssignment(Reader* r, AssignmentWire* assignment);

/// \brief kAssignResult payload: terminal outcome of one assignment.
/// On OK, sliced mode carries one serialized measure state per pipeline
/// pair in the pipeline's deterministic pair order; whole mode carries a
/// serialized ResultTable.
struct AssignResultWire {
  uint64_t assignment_id = 0;
  Status status;
  AssignmentWire::Mode mode = AssignmentWire::Mode::kSliced;
  std::vector<std::string> pair_states;  ///< sliced mode
  std::string table_bytes;               ///< whole mode
  uint64_t blocks_processed = 0;
  uint64_t records_processed = 0;
  uint8_t all_converged = 0;
  // Observability: the worker's wall time for the assignment (its local
  // root span duration) and its recorded spans. Timestamps are in the
  // worker's steady_clock domain; the coordinator re-anchors them against
  // its own dispatch span when importing (clocks are per-host).
  int64_t run_ns = 0;
  std::vector<TraceSpan> spans;
};

void EncodeAssignResult(const AssignResultWire& result, Writer* w);
bool DecodeAssignResult(Reader* r, AssignResultWire* result);

/// \brief Span list codec shared by kAssignResult (worker -> coordinator
/// stitching). Tags travel as flat key/value string pairs.
void EncodeTraceSpans(const std::vector<TraceSpan>& spans, Writer* w);
bool DecodeTraceSpans(Reader* r, std::vector<TraceSpan>* spans);

/// \brief kEventWorkerProgress payload: absolute (not delta) in-flight
/// counters for one assignment, so lost/duplicated ticks cannot skew the
/// coordinator's aggregate.
struct WorkerProgressWire {
  uint64_t assignment_id = 0;
  uint64_t blocks_processed = 0;
  uint64_t records_processed = 0;
};

void EncodeWorkerProgress(const WorkerProgressWire& progress, Writer* w);
bool DecodeWorkerProgress(Reader* r, WorkerProgressWire* progress);

}  // namespace wire
}  // namespace deepbase
