// Seeded, deterministic mutation fuzzing of everything a TCP peer decodes
// from socket bytes: the frame header (wire::ReadFrame over a socketpair),
// every wire::Decode*, ResultTable::DeserializeFromString, and every
// mergeable measure's DeserializeState (the partial states a worker sends
// its coordinator).
//
// Each case starts from a valid encoding, checks that it decodes, then
// decodes mutants of it: every truncation, seeded bit flips, and hostile
// values written over every 4- and 8-byte window (where the length fields
// and counts live). A decode must return an error or a value — no crash,
// no sanitizer report, and no allocation sized by a length field before
// the remaining bytes are known to hold it. A measure state that decodes
// then takes one more block and scores it. scripts/check.sh runs this
// suite under ASan+UBSan.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/result_table.h"
#include "measures/multivariate_mi.h"
#include "measures/scores.h"
#include "server/wire.h"
#include "tensor/matrix.h"
#include "util/codec.h"
#include "util/rng.h"

namespace deepbase {
namespace {

// A decoder under test: true when `bytes` decoded to a value.
using Decode = std::function<bool(const std::string& bytes)>;

std::vector<std::string> Mutants(const std::string& seed) {
  std::vector<std::string> out;
  for (size_t n = 0; n < seed.size(); ++n) out.push_back(seed.substr(0, n));
  Rng rng(seed.size());  // deterministic per seed encoding
  for (int i = 0; i < 256 && !seed.empty(); ++i) {
    std::string m = seed;
    const uint64_t flips = 1 + rng.UniformInt(4);
    for (uint64_t f = 0; f < flips; ++f) {
      m[rng.UniformInt(m.size())] ^= static_cast<char>(1u << rng.UniformInt(8));
    }
    out.push_back(std::move(m));
  }
  const uint32_t hostile32[] = {0xFFFFFFFFu, 0x7FFFFFFFu, 0x80000000u,
                                0x00100000u,
                                static_cast<uint32_t>(seed.size() + 1)};
  const uint64_t hostile64[] = {~0ull, 1ull << 40};
  for (size_t off = 0; off + 4 <= seed.size(); ++off) {
    for (uint32_t v : hostile32) {
      std::string m = seed;
      std::memcpy(m.data() + off, &v, sizeof(v));
      out.push_back(std::move(m));
    }
    if (off + 8 > seed.size()) continue;
    for (uint64_t v : hostile64) {
      std::string m = seed;
      std::memcpy(m.data() + off, &v, sizeof(v));
      out.push_back(std::move(m));
    }
  }
  return out;
}

// The seed must decode (or the mutants prove nothing); every mutant must
// come back, value or error.
void Fuzz(const std::string& name, const std::string& seed,
          const Decode& decode) {
  ASSERT_TRUE(decode(seed)) << name << ": the seed encoding does not decode";
  for (const std::string& mutant : Mutants(seed)) decode(mutant);
}

// A typed payload decoder that must consume its payload exactly.
template <typename T>
Decode Payload(bool (*decode)(wire::Reader*, T*)) {
  return [decode](const std::string& bytes) {
    wire::Reader r(bytes);
    T value{};
    return decode(&r, &value) && r.exhausted();
  };
}

InspectRequest SampleRequest() {
  InspectRequest request;
  request.models.push_back({.name = "m1",
                            .groups = {{"layer0", {0, 1, 2}}, {"g", {7}}},
                            .group_by_layer = 0});
  request.models.push_back({.name = "m2", .group_by_layer = 8});
  request.hypothesis_sets = {"setA", "setB"};
  request.hypothesis_filter = {"is_a"};
  request.dataset_name = "ds";
  request.measure_names = {"pearson", "jaccard"};
  request.min_abs_unit_score = 0.25f;
  InspectOptions options;
  options.block_size = 16;
  options.num_shards = 3;
  request.options = options;
  return request;
}

std::vector<TraceSpan> SampleSpans() {
  return {{.span_id = 1, .parent_id = 0, .name = "worker.assign",
           .start_ns = 10, .duration_ns = 90, .tags = "worker=w1"},
          {.span_id = 2, .parent_id = 1, .name = "extract",
           .start_ns = 20, .duration_ns = 30, .tags = ""}};
}

ResultTable SampleTable() {
  ResultTable table;
  table.Add({.model_id = "m1", .group_id = "layer0", .measure = "pearson",
             .hypothesis = "is_a", .unit = 3, .unit_score = 0.5f,
             .group_score = 0.25f});
  table.Add({.model_id = "m1", .group_id = "layer0", .measure = "pearson",
             .hypothesis = "is_a", .unit = -1, .unit_score = 0.0f,
             .group_score = 0.75f});
  return table;
}

TEST(WireFuzzTest, FrameHeaderOverASocketpair) {
  const Decode read_frame = [](const std::string& bytes) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      ADD_FAILURE() << "socketpair failed";
      return false;
    }
    // Every mutant fits the socket buffer; EOF follows it.
    const bool written =
        ::write(fds[0], bytes.data(), bytes.size()) ==
        static_cast<ssize_t>(bytes.size());
    ::shutdown(fds[0], SHUT_WR);
    wire::Frame frame;
    const bool ok = written && wire::ReadFrame(fds[1], &frame).ok();
    ::close(fds[0]);
    ::close(fds[1]);
    return ok;
  };
  Fuzz("frame", wire::EncodeFrame(wire::MsgType::kSubmit, 7, "payload!"),
       read_frame);
  Fuzz("empty_frame", wire::EncodeFrame(wire::MsgType::kStats, 9, ""),
       read_frame);
}

TEST(WireFuzzTest, StatusAndRequests) {
  wire::Writer status;
  wire::EncodeStatus(Status::DataLoss("bad block"), &status);
  Fuzz("status", status.bytes(), [](const std::string& bytes) {
    wire::Reader r(bytes);
    const Status st = wire::DecodeStatus(&r);
    return r.exhausted() && st.code() == StatusCode::kDataLoss;
  });

  wire::Writer request;
  ASSERT_TRUE(wire::EncodeInspectRequest(SampleRequest(), &request).ok());
  Fuzz("inspect_request", request.bytes(),
       Payload<InspectRequest>(&wire::DecodeInspectRequest));

  Dataset dataset(Vocab::FromChars("ab"), 4);
  dataset.AddText("abba");
  dataset.AddText("ba");
  Record annotated;
  annotated.tokens = {"a", "b"};
  annotated.ids = {0, 1};
  annotated.annotations["pos"] = {"NN", "VB"};
  dataset.Add(annotated);
  wire::Writer data;
  wire::EncodeDataset(dataset, &data);
  Fuzz("dataset", data.bytes(), Payload<Dataset>(&wire::DecodeDataset));

  wire::Writer spec;
  wire::EncodeHypothesisSpec(
      {.kind = wire::HypothesisSpec::Kind::kMultiClassAnnotation,
       .a = "pos",
       .b = "",
       .labels = {"NN", "VB", "JJ"}},
      &spec);
  Fuzz("hypothesis_spec", spec.bytes(),
       Payload<wire::HypothesisSpec>(&wire::DecodeHypothesisSpec));
}

TEST(WireFuzzTest, ServingPayloads) {
  wire::Writer progress;
  wire::EncodeJobProgress({.status = 1, .blocks_completed = 3,
                           .blocks_total = 9, .records_processed = 48},
                          &progress);
  Fuzz("job_progress", progress.bytes(),
       Payload<wire::JobProgressWire>(&wire::DecodeJobProgress));

  wire::Writer summary;
  wire::EncodeResultSummary({.blocks_processed = 4, .total_s = 0.5}, &summary);
  Fuzz("result_summary", summary.bytes(),
       Payload<wire::ResultSummaryWire>(&wire::DecodeResultSummary));

  wire::Writer stats;
  wire::EncodeServerStats({.jobs_scheduled = 5, .frames_sent = 17}, &stats);
  Fuzz("server_stats", stats.bytes(),
       Payload<wire::ServerStatsWire>(&wire::DecodeServerStats));

  Fuzz("result_table", SampleTable().SerializeToString(),
       [](const std::string& bytes) {
         return ResultTable::DeserializeFromString(bytes).ok();
       });
}

TEST(WireFuzzTest, ClusterPayloads) {
  wire::Writer hello;
  wire::EncodeWorkerHello({.worker_id = "w1", .catalog_version = 3,
                           .num_threads = 4},
                          &hello);
  Fuzz("worker_hello", hello.bytes(),
       Payload<wire::WorkerHelloWire>(&wire::DecodeWorkerHello));

  wire::AssignmentWire assignment;
  assignment.assignment_id = 12;
  assignment.total_shards = 8;
  assignment.shard_lo = 2;
  assignment.shard_hi = 5;
  assignment.trace_id = 99;
  assignment.parent_span = 7;
  assignment.request = SampleRequest();
  wire::Writer assign;
  ASSERT_TRUE(wire::EncodeAssignment(assignment, &assign).ok());
  Fuzz("assignment", assign.bytes(),
       Payload<wire::AssignmentWire>(&wire::DecodeAssignment));

  wire::AssignResultWire sliced;
  sliced.assignment_id = 12;
  sliced.pair_states = {"state-one", "state-two"};
  sliced.blocks_processed = 6;
  sliced.run_ns = 1000;
  sliced.spans = SampleSpans();
  wire::Writer sliced_bytes;
  wire::EncodeAssignResult(sliced, &sliced_bytes);
  Fuzz("assign_result_sliced", sliced_bytes.bytes(),
       Payload<wire::AssignResultWire>(&wire::DecodeAssignResult));

  wire::AssignResultWire whole;
  whole.mode = wire::AssignmentWire::Mode::kWhole;
  whole.table_bytes = SampleTable().SerializeToString();
  wire::Writer whole_bytes;
  wire::EncodeAssignResult(whole, &whole_bytes);
  Fuzz("assign_result_whole", whole_bytes.bytes(),
       Payload<wire::AssignResultWire>(&wire::DecodeAssignResult));

  wire::Writer spans;
  wire::EncodeTraceSpans(SampleSpans(), &spans);
  Fuzz("trace_spans", spans.bytes(),
       Payload<std::vector<TraceSpan>>(&wire::DecodeTraceSpans));

  wire::Writer worker_progress;
  wire::EncodeWorkerProgress({.assignment_id = 12, .blocks_processed = 2,
                              .records_processed = 32},
                             &worker_progress);
  Fuzz("worker_progress", worker_progress.bytes(),
       Payload<wire::WorkerProgressWire>(&wire::DecodeWorkerProgress));
}

TEST(WireFuzzTest, MergeableMeasureStates) {
  constexpr size_t kUnits = 3;
  constexpr size_t kRows = 24;
  const std::vector<std::pair<MeasureFactoryPtr, int>> measures = {
      {std::make_shared<CorrelationScore>("pearson"), 2},
      {std::make_shared<CorrelationScore>("pearson"), 0},
      {std::make_shared<DiffMeansScore>(), 2},
      {std::make_shared<JaccardScore>(), 2},
      {std::make_shared<MutualInfoScore>(), 3},
      {std::make_shared<MultivariateMiScore>(), 2},
      {std::make_shared<RandomBaselineScore>(), 2},
      {std::make_shared<MajorityBaselineScore>(), 2},
  };
  Rng rng(5);
  for (const auto& [factory, num_classes] : measures) {
    std::unique_ptr<Measure> state = factory->Create(kUnits, num_classes);
    ASSERT_NE(state, nullptr) << factory->name();
    ASSERT_NE(state->merge_exactness(), MergeExactness::kNone)
        << factory->name();
    std::vector<Matrix> blocks;
    std::vector<std::vector<float>> hyps;
    for (uint64_t block = 0; block < 3; ++block) {
      Matrix units(kRows, kUnits);
      std::vector<float> hyp(kRows);
      for (size_t r = 0; r < kRows; ++r) {
        for (size_t c = 0; c < kUnits; ++c) {
          units(r, c) = static_cast<float>(rng.Uniform()) * 2.0f - 1.0f;
        }
        hyp[r] = num_classes > 0
                     ? static_cast<float>(rng.UniformInt(
                           static_cast<uint64_t>(num_classes)))
                     : static_cast<float>(rng.Uniform());
      }
      blocks.push_back(std::move(units));
      hyps.push_back(std::move(hyp));
    }
    for (uint64_t block = 0; block < 2; ++block) {
      state->BeginBlock(block);
      state->ProcessBlock(blocks[block], hyps[block]);
    }
    codec::Writer w;
    ASSERT_TRUE(state->SerializeState(&w)) << factory->name();
    const MeasureFactory& f = *factory;
    const int classes = num_classes;
    // A state that decodes must also take a further block and score: the
    // decoder may not accept what the block kernels cannot count.
    const Matrix& next = blocks[2];
    const std::vector<float>& next_hyp = hyps[2];
    Fuzz(factory->name() + "_state", w.bytes(),
         [&f, classes, &next, &next_hyp](const std::string& bytes) {
           std::unique_ptr<Measure> restored = f.Create(kUnits, classes);
           codec::Reader r(bytes);
           if (!restored->DeserializeState(&r) || !r.exhausted()) {
             return false;
           }
           restored->BeginBlock(2);
           restored->ProcessBlock(next, next_hyp);
           (void)restored->Scores();
           return true;
         });
  }
}

}  // namespace
}  // namespace deepbase
