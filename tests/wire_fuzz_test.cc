// Seeded, deterministic mutation fuzzing of everything the program decodes
// from bytes it did not just write: what a TCP peer sends (the frame
// header over a socketpair, every wire::Decode*,
// ResultTable::DeserializeFromString, and every mergeable measure's
// DeserializeState — the partial states a worker sends its coordinator),
// the files it reads back (the behavior store's .behaviors and .blob files
// and the model files), and the statement parsers (ParseSql, ParseSqlExpr,
// ParseInspect, StripExplainInspectPrefix).
//
// Each case starts from a valid encoding, checks that it decodes, then
// decodes mutants of it: every truncation, seeded bit flips, and hostile
// values written over every 4- and 8-byte window (where the length fields
// and counts live). A decode must return an error or a value — no crash,
// no sanitizer report, and no allocation sized by a length field before
// the remaining bytes are known to hold it. A measure state that decodes
// then takes one more block and scores it; a model that loads runs; a
// matrix the store serves is read to its last element. Each file format
// is also pinned as the bytes an earlier release wrote, and those bytes
// seed its mutants. scripts/check.sh runs this suite under ASan+UBSan.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/behavior_store.h"
#include "core/inspect_parser.h"
#include "core/result_table.h"
#include "measures/multivariate_mi.h"
#include "measures/scores.h"
#include "nn/lstm_lm.h"
#include "nn/seq2seq.h"
#include "relational/sql_parser.h"
#include "server/wire.h"
#include "service/explain.h"
#include "tensor/matrix.h"
#include "util/codec.h"
#include "util/fnv.h"
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

// ---------------------------------------------------------------------------
// Files. Each format is pinned as the bytes an earlier release wrote for a
// fixed input; this build must write the same bytes and read them back.
// ---------------------------------------------------------------------------

constexpr char kBehaviorsKey[] = "hyp:kw:00000000000000a1";
// BehaviorStore::Put(kBehaviorsKey, {{1.5, -2, 0.25}, {4, 5, 6}}).
constexpr char kBehaviorsHex[] =
    "3253424417000000000000006879703a6b773a30303030303030303030303030"
    "306131a59808eccf07048a020000000000000003000000000000000000000000"
    "0000c03f000000c00000803e000080400000a0400000c040";

constexpr char kBlobKey[] = "cache:1:2:3";
// BehaviorStore::PutBlob(kBlobKey, "table").
constexpr char kBlobHex[] =
    "425342440b0000000000000063616368653a313a323a33258e38a5089de0b905"
    "000000000000007461626c65";

// LstmLm(/*vocab=*/2, /*hidden=*/1, /*layers=*/1, /*seed=*/7).Save().
constexpr char kLstmLmHex[] =
    "4d4c424402000000000000000100000000000000010000000000000002000000"
    "000000000400000000000000ec63cd3e0a8fe2bea7e32d3f7152763f0a527b3f"
    "3adc3e3f1ae560bf64874abf010000000000000004000000000000001c0858be"
    "014943bf349db93db50a023f0100000000000000040000000000000000000000"
    "0000803f0000000000000000010000000000000002000000000000002aec9e3f"
    "f9e1893f010000000000000002000000000000000000000000000000";

// Seq2Seq(/*src=*/2, /*tgt=*/2, /*hidden=*/1, /*seed=*/7).Save().
constexpr char kSeq2SeqHex[] =
    "3253424402000000000000000200000000000000010000000000000002000000"
    "000000000400000000000000ec63cd3e0a8fe2bea7e32d3f7152763f0a527b3f"
    "3adc3e3f1ae560bf64874abf010000000000000004000000000000001c0858be"
    "014943bf349db93db50a023f0100000000000000040000000000000000000000"
    "0000803f000000000000000001000000000000000400000000000000a433763f"
    "639b553f2efad9bda094083e01000000000000000400000000000000d67508bf"
    "cf6597bd7fa840bfea714dbf0100000000000000040000000000000000000000"
    "0000803f000000000000000002000000000000000400000000000000cb3a28bf"
    "24fd9a3eda78ab3e7b2de0bea599ff3eaf123ebfeb0c6bbfeb4a393e01000000"
    "000000000400000000000000e6ff35bfa6d335bd115167bfaa8b4bbf01000000"
    "000000000400000000000000000000000000803f000000000000000002000000"
    "000000000200000000000000d1d34a3ffae1973fd438833f35913cbe01000000"
    "0000000002000000000000000000000000000000";

std::string HexOf(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 15];
  }
  return hex;
}

std::string BytesOfHex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return bytes;
}

std::string FileBytes(const std::string& path) {
  Result<codec::MappedFile> file = codec::MapFile(path);
  return file.ok() ? std::string(file->bytes) : std::string();
}

const Matrix& PinnedBehaviors() {
  static const Matrix m{{1.5f, -2.0f, 0.25f}, {4.0f, 5.0f, 6.0f}};
  return m;
}

// A scratch store directory per test, removed with it.
class FileFormatTest : public ::testing::Test {
 protected:
  FileFormatTest()
      : dir_(std::filesystem::temp_directory_path() /
             ("deepbase_file_format_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name())) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~FileFormatTest() override { std::filesystem::remove_all(dir_); }

  // Where the store keeps `key` (BehaviorStore::PathForKey/PathForBlob).
  std::string StorePath(const std::string& key, const char* ext) const {
    return (dir_ / (HexU64(Fnv1a(key.data(), key.size())) + ext)).string();
  }
  std::string Write(const std::string& path, const std::string& bytes) const {
    EXPECT_TRUE(codec::WriteFile(path, bytes).ok()) << path;
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(FileFormatTest, BehaviorsFileBytesArePinned) {
  const std::string path = StorePath(kBehaviorsKey, ".behaviors");
  {
    BehaviorStore store(dir_.string());
    ASSERT_TRUE(store.Put(kBehaviorsKey, PinnedBehaviors()).ok());
  }
  EXPECT_EQ(HexOf(FileBytes(path)), kBehaviorsHex);
  // The pinned bytes read back at the disk tier and as an mmap handout
  // (a 16-byte budget is below the 24-byte payload).
  for (const size_t budget : {size_t{0}, size_t{16}}) {
    Write(path, BytesOfHex(kBehaviorsHex));
    BehaviorStore store(dir_.string(), budget);
    BehaviorStore::Tier tier = BehaviorStore::Tier::kMiss;
    Result<std::shared_ptr<const Matrix>> back =
        store.GetShared(kBehaviorsKey, &tier);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(tier, budget == 0 ? BehaviorStore::Tier::kDisk
                                : BehaviorStore::Tier::kMmap);
    ASSERT_TRUE((*back)->SameShape(PinnedBehaviors()));
    EXPECT_EQ(MaxAbsDiff(**back, PinnedBehaviors()), 0.0f);
    EXPECT_EQ(store.Keys(), std::vector<std::string>{kBehaviorsKey});
  }
}

TEST_F(FileFormatTest, BlobFileBytesArePinned) {
  const std::string path = StorePath(kBlobKey, ".blob");
  {
    BehaviorStore store(dir_.string());
    ASSERT_TRUE(store.PutBlob(kBlobKey, "table").ok());
  }
  EXPECT_EQ(HexOf(FileBytes(path)), kBlobHex);
  Write(path, BytesOfHex(kBlobHex));
  BehaviorStore store(dir_.string());
  EXPECT_EQ(store.BlobKeys(), std::vector<std::string>{kBlobKey});
  Result<std::string> back = store.GetBlob(kBlobKey);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, "table");
}

TEST_F(FileFormatTest, LstmLmFileBytesArePinned) {
  const std::string path = (dir_ / "lm.bin").string();
  const LstmLm model(2, 1, 1, 7);
  ASSERT_TRUE(model.Save(path).ok());
  EXPECT_EQ(HexOf(FileBytes(path)), kLstmLmHex);
  Result<LstmLm> loaded = LstmLm::Load(Write(path, BytesOfHex(kLstmLmHex)));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<int> ids = {0, 1, 1, 0};
  EXPECT_EQ(MaxAbsDiff(loaded->Logits(ids), model.Logits(ids)), 0.0f);
  ASSERT_TRUE(loaded->Save(path).ok());
  EXPECT_EQ(HexOf(FileBytes(path)), kLstmLmHex);
}

TEST_F(FileFormatTest, Seq2SeqFileBytesArePinned) {
  const std::string path = (dir_ / "s2s.bin").string();
  const Seq2Seq model(2, 2, 1, 7);
  ASSERT_TRUE(model.Save(path).ok());
  EXPECT_EQ(HexOf(FileBytes(path)), kSeq2SeqHex);
  Result<Seq2Seq> loaded =
      Seq2Seq::Load(Write(path, BytesOfHex(kSeq2SeqHex)));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<int> ids = {0, 1, 1, 0};
  EXPECT_EQ(
      MaxAbsDiff(loaded->EncoderStates(ids), model.EncoderStates(ids)), 0.0f);
  ASSERT_TRUE(loaded->Save(path).ok());
  EXPECT_EQ(HexOf(FileBytes(path)), kSeq2SeqHex);
}

// Every mutant of a store file reads back or is quarantined as a miss. A
// matrix that reads back is no bigger than the bytes that hold it, and is
// read to its last element (a mapping shorter than its shape faults).
TEST_F(FileFormatTest, BehaviorsFilesFuzz) {
  const std::string path = StorePath(kBehaviorsKey, ".behaviors");
  const std::string seed = BytesOfHex(kBehaviorsHex);
  auto get_shared = [&](size_t budget) -> Decode {
    return [&, budget](const std::string& bytes) {
      Write(path, bytes);
      BehaviorStore store(dir_.string(), budget);
      Result<std::shared_ptr<const Matrix>> m = store.GetShared(kBehaviorsKey);
      if (!m.ok()) {
        EXPECT_EQ(m.status().code(), StatusCode::kNotFound);
        EXPECT_EQ(store.quarantines(), 1u);
        return false;
      }
      const Matrix& read = **m;
      if (read.size() > bytes.size() / sizeof(float)) {
        ADD_FAILURE() << read.rows() << "x" << read.cols() << " read from "
                      << bytes.size() << " bytes";
      } else if (read.size() > 0) {
        const volatile float last = read(read.rows() - 1, read.cols() - 1);
        (void)last;
      }
      return true;
    };
  };
  Fuzz("behaviors_disk", seed, get_shared(0));
  Fuzz("behaviors_mmap", seed, get_shared(16));
  Fuzz("behaviors_keys", seed, [&](const std::string& bytes) {
    Write(path, bytes);
    return !BehaviorStore(dir_.string()).Keys().empty();
  });
}

TEST_F(FileFormatTest, BlobFilesFuzz) {
  const std::string path = StorePath(kBlobKey, ".blob");
  const std::string seed = BytesOfHex(kBlobHex);
  Fuzz("blob_get", seed, [&](const std::string& bytes) {
    Write(path, bytes);
    BehaviorStore store(dir_.string());
    Result<std::string> blob = store.GetBlob(kBlobKey);
    if (!blob.ok()) {
      EXPECT_EQ(blob.status().code(), StatusCode::kNotFound);
      EXPECT_EQ(store.quarantines(), 1u);
    }
    return blob.ok();
  });
  Fuzz("blob_keys", seed, [&](const std::string& bytes) {
    Write(path, bytes);
    return !BehaviorStore(dir_.string()).BlobKeys().empty();
  });
}

// Every mutant of a model file loads or is refused; a model that loads
// runs.
TEST_F(FileFormatTest, ModelFilesFuzz) {
  const std::string path = (dir_ / "model.bin").string();
  Fuzz("lstm_lm", BytesOfHex(kLstmLmHex), [&](const std::string& bytes) {
    Result<LstmLm> model = LstmLm::Load(Write(path, bytes));
    if (!model.ok()) return false;
    (void)model->Logits({0, 1});
    return true;
  });
  Fuzz("seq2seq", BytesOfHex(kSeq2SeqHex), [&](const std::string& bytes) {
    Result<Seq2Seq> model = Seq2Seq::Load(Write(path, bytes));
    if (!model.ok()) return false;
    (void)model->EncoderStates({0, 1});
    return true;
  });
}

// ---------------------------------------------------------------------------
// Statement parsers: user text from the SQL shell, the INSPECT front-end
// and EXPLAIN.
// ---------------------------------------------------------------------------

TEST(ParserFuzzTest, SqlStatements) {
  Fuzz("sql",
       "SELECT DISTINCT M.epoch, count(*) AS n, -S.unit_score * 2 "
       "INSPECT U.uid AND H.h USING corr, logreg_l1 OVER D.seq AS S "
       "FROM models M, units U, hypotheses H, inputs D "
       "WHERE M.mid = U.mid AND NOT (U.layer IN (0, 1) OR H.name LIKE 'k%') "
       "GROUP BY M.epoch HAVING S.unit_score > 0.8 "
       "ORDER BY n DESC LIMIT 5;",
       [](const std::string& bytes) { return ParseSql(bytes).ok(); });
  Fuzz("sql_expr", "abs(x - (y + 1)) >= 2 AND name NOT IN ('a', 'b')",
       [](const std::string& bytes) { return ParseSqlExpr(bytes).ok(); });
}

TEST(ParserFuzzTest, InspectStatements) {
  const Catalog catalog;
  Fuzz("inspect",
       "INSPECT units OF lm AND keywords USING pearson, jaccard OVER ds "
       "GROUP BY LAYER(16) HAVING unit_score > 0.5",
       [&catalog](const std::string& bytes) {
         return ParseInspect(bytes, catalog).ok();
       });
  Fuzz("explain_prefix", "EXPLAIN ANALYZE INSPECT units OF lm AND kw OVER ds",
       [](const std::string& bytes) {
         std::string statement = bytes;
         bool analyze = false;
         return StripExplainInspectPrefix(&statement, &analyze);
       });
}

}  // namespace
}  // namespace deepbase
