// Tests for the network serving layer: wire round-trips, loopback
// end-to-end parity (4 concurrent remote clients submitting one identical
// query = 1 extraction pass, tables bit-identical to an in-process
// Inspect()), streamed progress events (strictly increasing to
// completion, same numbers as local JobHandle::Poll), malformed/truncated
// frame rejection, client cancel mid-job, admission backpressure as
// protocol-level RESOURCE_EXHAUSTED, graceful drain, and client
// auto-reconnect.

#include "server/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/extractors.h"
#include "server/client.h"
#include "service/scheduler.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace deepbase {
namespace {

// Deterministic planted model (unit 0 tracks 'a') counting its
// ExtractBlock calls — the extraction-pass counter the scheduler and the
// serving layer are supposed to minimize. The optional per-block delay
// keeps jobs in flight long enough for concurrent clients to overlap on
// the 1-core CI.
class CountingExtractor : public Extractor {
 public:
  explicit CountingExtractor(size_t units = 4, int delay_us = 0)
      : Extractor("planted"), units_(units), delay_us_(delay_us) {}
  size_t num_units() const override { return units_; }

  size_t block_calls() const {
    return block_calls_.load(std::memory_order_relaxed);
  }

  Matrix ExtractBlock(const Dataset& dataset,
                      const std::vector<size_t>& record_idx,
                      const std::vector<int>& unit_ids) const override {
    block_calls_.fetch_add(1, std::memory_order_relaxed);
    if (delay_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
    }
    return Extractor::ExtractBlock(dataset, record_idx, unit_ids);
  }

  Matrix ExtractRecord(const Record& rec,
                       const std::vector<int>& unit_ids) const override {
    Matrix out(rec.size(), unit_ids.size());
    for (size_t t = 0; t < rec.size(); ++t) {
      const bool is_a = rec.tokens[t] == "a";
      for (size_t c = 0; c < unit_ids.size(); ++c) {
        const int uid = unit_ids[c];
        if (uid == 0) {
          out(t, c) = (is_a ? 1.0f : 0.0f) +
                      0.01f * static_cast<float>((rec.ids[t] + t) % 7);
        } else {
          out(t, c) =
              static_cast<float>(
                  (rec.ids[t] * 2654435761u + t * 40503u + uid * 97u) %
                  997) /
                  498.5f -
              1.0f;
        }
      }
    }
    return out;
  }

 private:
  size_t units_;
  int delay_us_;
  mutable std::atomic<size_t> block_calls_{0};
};

HypothesisPtr IsAHypothesis() {
  return std::make_shared<FunctionHypothesis>("is_a", [](const Record& rec) {
    std::vector<float> out(rec.size(), 0.0f);
    for (size_t i = 0; i < rec.size(); ++i) {
      if (rec.tokens[i] == "a") out[i] = 1.0f;
    }
    return out;
  });
}

Dataset MakeAbDataset(size_t records = 240, size_t ns = 8) {
  Dataset dataset(Vocab::FromChars("ab"), ns);
  Rng rng(3);
  for (size_t i = 0; i < records; ++i) {
    std::string text;
    for (size_t t = 0; t < ns; ++t) text += rng.Bernoulli(0.4) ? 'a' : 'b';
    dataset.AddText(text);
  }
  return dataset;
}

InspectRequest PlantedRequest(size_t block_size = 16, size_t num_shards = 1) {
  InspectRequest request;
  request.models.push_back({.name = "planted"});
  request.hypothesis_sets = {"keywords"};
  request.dataset_name = "ab";
  request.measure_names = {"pearson"};
  InspectOptions options;
  options.block_size = block_size;
  options.early_stopping = false;  // fixed, deterministic work per job
  options.num_shards = num_shards;
  request.options = options;
  return request;
}

/// Session + server + one planted world, on a loopback ephemeral port.
/// Member order matters for teardown: the server drains first, then the
/// session joins its jobs, and only then the extractor/dataset the
/// catalog points at go away.
struct ServerWorld {
  explicit ServerWorld(int delay_us = 0, SessionConfig config = {}) {
    if (config.num_threads == 0) config.num_threads = 4;
    extractor = std::make_unique<CountingExtractor>(4, delay_us);
    dataset = MakeAbDataset();
    session = std::make_unique<InspectionSession>(std::move(config));
    session->catalog().RegisterModel("planted", extractor.get());
    session->catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
    session->catalog().RegisterDataset("ab", &dataset);
    ServerConfig server_config;
    server = std::make_unique<InspectionServer>(session.get(),
                                                server_config);
    DB_CHECK_OK(server->Start());
  }

  ClientConfig client_config() const {
    ClientConfig config;
    config.port = server->port();
    return config;
  }

  std::unique_ptr<CountingExtractor> extractor;
  Dataset dataset;
  std::unique_ptr<InspectionSession> session;
  std::unique_ptr<InspectionServer> server;
};

// ---------------------------------------------------------------------------
// Wire round-trips.
// ---------------------------------------------------------------------------

TEST(WireTest, InspectRequestRoundTrip) {
  InspectRequest request;
  request.models.push_back(
      {.name = "m1", .groups = {{"layer0", {0, 1, 2}}}, .group_by_layer = 0});
  request.models.push_back({.name = "m2", .group_by_layer = 8});
  request.hypothesis_sets = {"setA", "setB"};
  request.hypothesis_filter = {"is_a"};
  request.dataset_name = "ds";
  request.measure_names = {"pearson", "jaccard"};
  request.min_abs_unit_score = 0.25f;
  InspectOptions options;
  options.block_size = 77;
  options.shuffle_seed = 123;
  options.early_stopping = false;
  options.num_shards = 3;
  request.options = options;

  wire::Writer w;
  ASSERT_TRUE(wire::EncodeInspectRequest(request, &w).ok());
  wire::Reader r(w.bytes());
  InspectRequest decoded;
  ASSERT_TRUE(wire::DecodeInspectRequest(&r, &decoded));
  EXPECT_TRUE(r.exhausted());
  ASSERT_EQ(decoded.models.size(), 2u);
  EXPECT_EQ(decoded.models[0].name, "m1");
  ASSERT_EQ(decoded.models[0].groups.size(), 1u);
  EXPECT_EQ(decoded.models[0].groups[0].group_id, "layer0");
  EXPECT_EQ(decoded.models[0].groups[0].unit_ids, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(decoded.models[1].group_by_layer, 8u);
  EXPECT_EQ(decoded.hypothesis_sets, request.hypothesis_sets);
  EXPECT_EQ(decoded.hypothesis_filter, request.hypothesis_filter);
  EXPECT_EQ(decoded.dataset_name, "ds");
  EXPECT_EQ(decoded.measure_names, request.measure_names);
  ASSERT_TRUE(decoded.min_abs_unit_score.has_value());
  EXPECT_FLOAT_EQ(*decoded.min_abs_unit_score, 0.25f);
  ASSERT_TRUE(decoded.options.has_value());
  EXPECT_EQ(decoded.options->block_size, 77u);
  EXPECT_EQ(decoded.options->shuffle_seed, 123u);
  EXPECT_FALSE(decoded.options->early_stopping);
  EXPECT_EQ(decoded.options->num_shards, 3u);
}

TEST(WireTest, RejectsInlineObjects) {
  CountingExtractor extractor;
  Dataset dataset = MakeAbDataset(8);
  wire::Writer w;
  {
    InspectRequest request;
    request.models.push_back({.extractor = &extractor});
    request.dataset_name = "ds";
    EXPECT_FALSE(wire::EncodeInspectRequest(request, &w).ok());
  }
  {
    InspectRequest request;
    request.models.push_back({.name = "m"});
    request.dataset = &dataset;  // inline dataset cannot travel
    EXPECT_FALSE(wire::EncodeInspectRequest(request, &w).ok());
  }
  {
    InspectRequest request;
    request.models.push_back({.name = "m"});
    request.dataset_name = "ds";
    request.hypotheses = {IsAHypothesis()};
    EXPECT_FALSE(wire::EncodeInspectRequest(request, &w).ok());
  }
}

TEST(WireTest, DatasetRoundTrip) {
  Dataset dataset(Vocab::FromChars("abc"), 4);
  dataset.AddText("abca");
  Record rec;
  rec.tokens = {"c", "b"};
  rec.ids = {dataset.vocab().Lookup("c"), dataset.vocab().Lookup("b")};
  rec.annotations["pos"] = {"X", "Y"};
  dataset.Add(rec);

  wire::Writer w;
  wire::EncodeDataset(dataset, &w);
  wire::Reader r(w.bytes());
  Dataset decoded;
  ASSERT_TRUE(wire::DecodeDataset(&r, &decoded));
  EXPECT_TRUE(r.exhausted());
  ASSERT_EQ(decoded.num_records(), 2u);
  EXPECT_EQ(decoded.ns(), 4u);
  EXPECT_EQ(decoded.record(0).tokens, dataset.record(0).tokens);
  EXPECT_EQ(decoded.record(1).tokens, dataset.record(1).tokens);
  EXPECT_EQ(decoded.record(1).annotations.at("pos"),
            dataset.record(1).annotations.at("pos"));
  // Ids are rebuilt against the decoder's vocab: token identity must
  // survive even though id numbering may differ.
  for (size_t i = 0; i < decoded.num_records(); ++i) {
    for (size_t t = 0; t < decoded.ns(); ++t) {
      EXPECT_EQ(
          decoded.vocab().Token(decoded.record(i).ids[t]),
          dataset.record(i).tokens[t]);
    }
  }
}

TEST(WireTest, TruncatedPayloadLatchesReaderError) {
  wire::Writer w;
  w.Str("hello");
  std::string bytes = w.Take();
  bytes.resize(bytes.size() - 2);  // cut the string short
  wire::Reader r(bytes);
  (void)r.Str();
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// The acceptance scenario: 4 concurrent remote clients, one identical
// query -> exactly 1 extraction pass, tables bit-identical to in-process.
// ---------------------------------------------------------------------------

TEST(InspectionServerTest, FourClientsOneExtractionPassBitIdentical) {
  ServerWorld world(/*delay_us=*/500);
  const InspectRequest request = PlantedRequest();
  constexpr size_t kClients = 4;

  std::vector<std::string> tables(kClients);
  std::vector<Status> statuses(kClients, Status::OK());
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      InspectionClient client(world.client_config());
      Status st = client.Connect();
      if (!st.ok()) {
        statuses[c] = st;
        return;
      }
      Result<ResultTable> result = client.Inspect(request);
      statuses[c] = result.status();
      if (result.ok()) tables[c] = result->SerializeToString();
    });
  }
  for (auto& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_TRUE(statuses[c].ok()) << "client " << c << ": "
                                  << statuses[c].ToString();
    EXPECT_FALSE(tables[c].empty());
    EXPECT_EQ(tables[c], tables[0]) << "client " << c;
  }

  // Exactly one extraction pass across all four remote submissions.
  const size_t blocks_per_pass = (world.dataset.num_records() + 15) / 16;
  EXPECT_EQ(world.extractor->block_calls(), blocks_per_pass);

  // The scheduler served the other three via dedup and/or the result
  // cache — observable through the server-side stats RPC.
  InspectionClient observer(world.client_config());
  ASSERT_TRUE(observer.Connect().ok());
  Result<wire::ServerStatsWire> stats = observer.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->dedup_followers + stats->result_cache_hits, kClients - 1)
      << "dedup=" << stats->dedup_followers
      << " cache=" << stats->result_cache_hits;
  EXPECT_GE(stats->submits, kClients);

  // In-process parity: the same request through the session facade yields
  // the byte-identical relation.
  Result<ResultTable> local = world.session->Inspect(request);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->SerializeToString(), tables[0]);
  // And still one extraction pass in total (the local run was a cache hit).
  EXPECT_EQ(world.extractor->block_calls(), blocks_per_pass);
}

// ---------------------------------------------------------------------------
// Streamed progress.
// ---------------------------------------------------------------------------

TEST(InspectionServerTest, ProgressEventsStrictlyIncreaseToCompletion) {
  ServerWorld world(/*delay_us=*/2000);
  // 240 records / block_size 12 = 20 planned blocks; no early stopping.
  const InspectRequest request = PlantedRequest(/*block_size=*/12);
  const size_t planned = (world.dataset.num_records() + 11) / 12;

  InspectionClient client(world.client_config());
  ASSERT_TRUE(client.Connect().ok());

  std::mutex mu;
  std::vector<RemoteProgress> events;
  Result<RemoteJob> job =
      client.Submit(request, [&](const RemoteProgress& p) {
        std::lock_guard<std::mutex> lock(mu);
        events.push_back(p);
      });
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  const Result<ResultTable>& result = job->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_GE(events.size(), 2u)
        << "a 20-block run at 2ms/block with the 2ms watcher should stream "
           "several events";
    uint64_t prev = 0;
    for (const RemoteProgress& p : events) {
      EXPECT_GT(p.blocks_completed, prev) << "progress must be strictly "
                                             "increasing";
      prev = p.blocks_completed;
      EXPECT_EQ(p.blocks_total, planned);
      EXPECT_LE(p.blocks_completed, planned);
    }
  }

  // Remote Poll after completion reports the full sweep.
  Result<RemoteProgress> final_progress = job->Poll();
  ASSERT_TRUE(final_progress.ok());
  EXPECT_EQ(final_progress->status, JobStatus::kDone);
  EXPECT_EQ(final_progress->blocks_completed, planned);
  EXPECT_EQ(final_progress->blocks_total, planned);
  EXPECT_EQ(final_progress->records_processed,
            world.dataset.num_records());

  // Local/remote parity: a fresh in-process session running the identical
  // request reports the same numbers through JobHandle::Poll.
  InspectionSession local_session({.num_threads = 2});
  CountingExtractor local_extractor(4, 0);
  Dataset local_dataset = MakeAbDataset();
  local_session.catalog().RegisterModel("planted", &local_extractor);
  local_session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  local_session.catalog().RegisterDataset("ab", &local_dataset);
  JobHandle local_job = local_session.Submit(request);
  ASSERT_TRUE(local_job.Wait().ok());
  JobProgress local_progress;
  EXPECT_EQ(local_job.Poll(&local_progress), JobStatus::kDone);
  EXPECT_EQ(local_progress.blocks_completed,
            final_progress->blocks_completed);
  EXPECT_EQ(local_progress.blocks_total, final_progress->blocks_total);
  EXPECT_EQ(local_progress.records_processed,
            final_progress->records_processed);
}

// ---------------------------------------------------------------------------
// Protocol robustness.
// ---------------------------------------------------------------------------

int ConnectRaw(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(InspectionServerTest, MalformedFramesAreRejectedServerSurvives) {
  ServerWorld world;

  // 1. Garbage bytes: the server answers with an error frame (or just
  // hangs up) and closes; it must not crash.
  {
    const int fd = ConnectRaw(world.server->port());
    ASSERT_GE(fd, 0);
    const std::string garbage(64, 'x');
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(garbage.size()));
    char buf[256];
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }  // drain until the server closes
    ::close(fd);
  }

  // 2. Truncated frame: half a valid header, then hangup.
  {
    const int fd = ConnectRaw(world.server->port());
    ASSERT_GE(fd, 0);
    const std::string frame = wire::EncodeFrame(wire::MsgType::kStats, 7, "");
    ASSERT_EQ(::send(fd, frame.data(), 10, MSG_NOSIGNAL), 10);
    ::close(fd);
  }

  // 3. Oversized payload length: rejected before allocation.
  {
    const int fd = ConnectRaw(world.server->port());
    ASSERT_GE(fd, 0);
    wire::Writer w;
    w.U32(wire::kMagic);
    w.U16(wire::kProtocolVersion);
    w.U16(static_cast<uint16_t>(wire::MsgType::kStats));
    w.U64(9);
    w.U32(0xFFFFFFF0u);  // ~4 GB payload claim
    const std::string& header = w.bytes();
    ASSERT_EQ(::send(fd, header.data(), header.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(header.size()));
    char buf[256];
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }
    ::close(fd);
  }

  // The server survived all three: a well-formed client still works.
  InspectionClient client(world.client_config());
  ASSERT_TRUE(client.Connect().ok());
  Result<wire::ServerStatsWire> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->protocol_errors, 2u);
  Result<ResultTable> result = client.Inspect(PlantedRequest());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST(InspectionServerTest, UnknownFrameTypeGetsTypedErrorConnectionLives) {
  ServerWorld world;

  const int fd = ConnectRaw(world.server->port());
  ASSERT_GE(fd, 0);

  // A frame type from a future protocol revision: well-formed framing,
  // unknown meaning. Forward compatibility demands a typed
  // kNotImplemented error on the SAME request id — and the connection
  // must stay usable, not be torn down.
  const std::string unknown =
      wire::EncodeFrame(static_cast<wire::MsgType>(4242), 99, "payload");
  ASSERT_EQ(::send(fd, unknown.data(), unknown.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(unknown.size()));

  wire::Frame reply;
  ASSERT_TRUE(wire::ReadFrame(fd, &reply).ok());
  EXPECT_EQ(reply.type, wire::MsgType::kError);
  EXPECT_EQ(reply.request_id, 99u);
  wire::Reader r(reply.payload);
  const Status status = wire::DecodeStatus(&r);
  EXPECT_EQ(status.code(), StatusCode::kNotImplemented);

  // Same connection, next frame: a normal request still works.
  const std::string stats_req =
      wire::EncodeFrame(wire::MsgType::kStats, 100, "");
  ASSERT_EQ(::send(fd, stats_req.data(), stats_req.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(stats_req.size()));
  ASSERT_TRUE(wire::ReadFrame(fd, &reply).ok());
  EXPECT_EQ(reply.type, wire::MsgType::kStatsOk);
  EXPECT_EQ(reply.request_id, 100u);
  ::close(fd);
}

TEST(InspectionServerTest, CancelMidJobYieldsCancelled) {
  ServerWorld world(/*delay_us=*/3000);
  // Plenty of blocks so the cancel lands mid-run.
  const InspectRequest request = PlantedRequest(/*block_size=*/4);

  InspectionClient client(world.client_config());
  ASSERT_TRUE(client.Connect().ok());
  Result<RemoteJob> job = client.Submit(request);
  ASSERT_TRUE(job.ok());
  // Wait until the engine has demonstrably started.
  for (int i = 0; i < 2000; ++i) {
    Result<RemoteProgress> p = job->Poll();
    ASSERT_TRUE(p.ok());
    if (p->blocks_completed > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(job->Cancel().ok());
  const Result<ResultTable>& result = job->Wait();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(InspectionServerTest, AdmissionQuotaSurfacesAsResourceExhausted) {
  SessionConfig config;
  config.max_concurrent_jobs = 1;
  ServerWorld world(/*delay_us=*/3000, std::move(config));

  InspectionClient client(world.client_config());
  ASSERT_TRUE(client.Connect().ok());
  // Occupy the single slot with a slow job.
  Result<RemoteJob> slow = client.Submit(PlantedRequest(/*block_size=*/4));
  ASSERT_TRUE(slow.ok());
  for (int i = 0; i < 2000; ++i) {
    Result<RemoteProgress> p = slow->Poll();
    ASSERT_TRUE(p.ok());
    if (p->blocks_completed > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A *different* request (identical ones would attach as dedup waiters,
  // which rightly bypass admission) is rejected at the protocol level.
  InspectRequest other = PlantedRequest();
  other.measure_names = {"jaccard"};
  Result<RemoteJob> rejected = client.Submit(other);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  ASSERT_TRUE(slow->Cancel().ok());
  (void)slow->Wait();
}

TEST(InspectionServerTest, WaitRpcReDeliversResult) {
  ServerWorld world;
  InspectionClient client(world.client_config());
  ASSERT_TRUE(client.Connect().ok());
  Result<RemoteJob> job = client.Submit(PlantedRequest());
  ASSERT_TRUE(job.ok());
  const Result<ResultTable>& pushed = job->Wait();
  ASSERT_TRUE(pushed.ok());
  // Explicit kWait after the push was already consumed: the server
  // re-serves the terminal result.
  Result<ResultTable> asked = client.WaitResult(*job);
  ASSERT_TRUE(asked.ok()) << asked.status().ToString();
  EXPECT_EQ(asked->SerializeToString(), pushed->SerializeToString());
}

// ---------------------------------------------------------------------------
// Remote registration.
// ---------------------------------------------------------------------------

TEST(InspectionServerTest, RemoteRegisterDatasetAndHypotheses) {
  ServerWorld world;
  InspectionClient client(world.client_config());
  ASSERT_TRUE(client.Connect().ok());

  Dataset remote = MakeAbDataset(96);
  ASSERT_TRUE(client.RegisterDataset("remote_ab", remote).ok());
  wire::HypothesisSpec keyword;
  keyword.kind = wire::HypothesisSpec::Kind::kKeyword;
  keyword.a = "a";
  wire::HypothesisSpec char_class;
  char_class.kind = wire::HypothesisSpec::Kind::kCharClass;
  char_class.a = "is_b";
  char_class.b = "b";
  ASSERT_TRUE(
      client.RegisterHypotheses("remote_hyps", {keyword, char_class}).ok());

  InspectRequest request;
  request.models.push_back({.name = "planted"});
  request.hypothesis_sets = {"remote_hyps"};
  request.dataset_name = "remote_ab";
  request.measure_names = {"pearson"};
  Result<ResultTable> result = client.Inspect(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->empty());
  // Both registered hypotheses scored.
  bool saw_keyword = false, saw_char_class = false;
  for (const ResultRow& row : result->rows()) {
    if (row.hypothesis == "keyword:a") saw_keyword = true;
    if (row.hypothesis == "is_b") saw_char_class = true;
  }
  EXPECT_TRUE(saw_keyword);
  EXPECT_TRUE(saw_char_class);
}

TEST(InspectionServerTest, RemoteDatasetOutsideTheVocabularyIsAnError) {
  // The server numbers a remote dataset's tokens in order of first
  // appearance, so a client can send more distinct tokens than a served
  // LSTM has symbols. The request fails with a typed error over the wire
  // and the server keeps serving. (Declared before the world: the model
  // outlives the session that reads it.)
  const LstmLm model(5, 4, 1, 7);
  const LstmLmExtractor extractor("lm5", &model);
  ServerWorld world;
  world.session->catalog().RegisterModel("lm5", &extractor);
  InspectionClient client(world.client_config());
  ASSERT_TRUE(client.Connect().ok());

  Dataset wide(Vocab::FromChars("abcdefgh"), 8);
  for (int i = 0; i < 4; ++i) wide.AddText("abcdefgh");
  ASSERT_TRUE(client.RegisterDataset("wide", wide).ok());
  InspectRequest request;
  request.models.push_back({.name = "lm5"});
  request.hypothesis_sets = {"keywords"};
  request.dataset_name = "wide";
  const Result<ResultTable> rejected = client.Inspect(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  for (const char* part : {"'lm5'", "id 8", "(5 symbols)"}) {
    EXPECT_NE(rejected.status().message().find(part), std::string::npos)
        << rejected.status().ToString();
  }
  const Result<std::string> explained = client.Explain(request);
  ASSERT_FALSE(explained.ok());
  EXPECT_EQ(explained.status().code(), StatusCode::kInvalidArgument);

  // Same connection, next request: served.
  const Result<ResultTable> served = client.Inspect(PlantedRequest());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_FALSE(served->empty());
}

TEST(InspectionServerTest, ConnectionChurnIsReclaimed) {
  ServerWorld world;
  // Many short-lived clients: each connection's fd/threads/jobs must be
  // reclaimed by the accept loop, not accumulate until shutdown.
  for (int i = 0; i < 30; ++i) {
    InspectionClient client(world.client_config());
    ASSERT_TRUE(client.Connect().ok()) << "iteration " << i;
    ASSERT_TRUE(client.Stats().ok()) << "iteration " << i;
  }
  InspectionClient survivor(world.client_config());
  ASSERT_TRUE(survivor.Connect().ok());
  // The server un-counts a connection once its reader sees EOF, so under
  // load the last teardowns can still be in flight: poll, bounded, until
  // every closed connection is accounted back out and only the survivor
  // remains.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  Result<wire::ServerStatsWire> stats = survivor.Stats();
  while (stats.ok() && stats->connections_active > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = survivor.Stats();
  }
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->connections_accepted, 31u);
  EXPECT_EQ(stats->connections_active, 1u);
}

// ---------------------------------------------------------------------------
// Graceful drain + reconnect.
// ---------------------------------------------------------------------------

TEST(InspectionServerTest, GracefulDrainFinishesInflightRejectsNew) {
  ServerWorld world(/*delay_us=*/3000);

  InspectionClient running_client(world.client_config());
  ASSERT_TRUE(running_client.Connect().ok());
  // A second connection established *before* the drain starts (the
  // listener refuses new connections once draining).
  InspectionClient late_client(world.client_config());
  ASSERT_TRUE(late_client.Connect().ok());

  Result<RemoteJob> job =
      running_client.Submit(PlantedRequest(/*block_size=*/8));
  ASSERT_TRUE(job.ok());
  for (int i = 0; i < 2000; ++i) {
    Result<RemoteProgress> p = job->Poll();
    ASSERT_TRUE(p.ok());
    if (p->blocks_completed > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::thread drainer([&] { world.server->Shutdown(); });
  while (!world.server->draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // New submissions during the drain: protocol-level RESOURCE_EXHAUSTED.
  Result<RemoteJob> rejected = late_client.Submit(PlantedRequest());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // The in-flight job still completes and its result is delivered.
  const Result<ResultTable>& result = job->Wait();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  drainer.join();
  EXPECT_FALSE(world.server->running());
}

// The drain's teardown must wait for results that are claimed but not yet
// written. Stalling every frame write widens the window between the
// watcher claiming the result and writing it; tearing the socket down
// inside that window drops the result, and the client's replay then
// meets the closed listener.
TEST(InspectionServerTest, DrainWaitsForClaimedResultsToBeWritten) {
  ServerWorld world(/*delay_us=*/3000);
  InspectionClient client(world.client_config());
  ASSERT_TRUE(client.Connect().ok());
  Result<RemoteJob> job = client.Submit(PlantedRequest(/*block_size=*/8));
  ASSERT_TRUE(job.ok()) << job.status().ToString();

  failpoint::Action stall;
  stall.code = StatusCode::kOk;  // delay only: every write still succeeds
  stall.delay_s = 0.2;
  failpoint::Arm("wire.write_frame", stall);
  world.server->Shutdown();
  // The result was written under the stall, inside the drain.
  const uint64_t stalled_writes = failpoint::Fires("wire.write_frame");
  failpoint::DisarmAll();
  EXPECT_GE(stalled_writes, 1u);
  EXPECT_FALSE(world.server->running());

  const Result<ResultTable>& result = job->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Result<ResultTable> local =
      world.session->Inspect(PlantedRequest(/*block_size=*/8));
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(result->SerializeToString(), local->SerializeToString());
}

TEST(InspectionServerTest, ClientAutoReconnectsAfterServerRestart) {
  CountingExtractor extractor;
  Dataset dataset = MakeAbDataset(64);
  SessionConfig config;
  config.num_threads = 2;
  auto session = std::make_unique<InspectionSession>(std::move(config));
  session->catalog().RegisterModel("planted", &extractor);
  session->catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
  session->catalog().RegisterDataset("ab", &dataset);

  ServerConfig server_config;
  auto server1 =
      std::make_unique<InspectionServer>(session.get(), server_config);
  ASSERT_TRUE(server1->Start().ok());
  const uint16_t port = server1->port();

  ClientConfig client_config;
  client_config.port = port;
  client_config.reconnect_backoff_s = 0.01;
  client_config.reconnect_attempts = 20;
  InspectionClient client(client_config);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Stats().ok());

  server1->Shutdown();
  server1.reset();

  // Same port, fresh server process-equivalent.
  server_config.port = port;
  auto server2 =
      std::make_unique<InspectionServer>(session.get(), server_config);
  ASSERT_TRUE(server2->Start().ok());

  // The client notices the dead connection and reconnects transparently.
  Result<wire::ServerStatsWire> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  Result<ResultTable> result = client.Inspect(PlantedRequest());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

// ---------------------------------------------------------------------------
// Deadlines over the wire.
// ---------------------------------------------------------------------------

TEST(InspectionServerTest, RemoteJobPastDeadlineGetsTypedErrorSameConnection) {
  // Enough per-block delay that a few-ms budget expires mid-run (or at
  // admission — both surface the same typed error).
  ServerWorld world(/*delay_us=*/3000);

  ClientConfig config = world.client_config();
  config.auto_reconnect = false;  // any later success proves the original
                                  // connection survived the error
  InspectionClient client(config);
  ASSERT_TRUE(client.Connect().ok());

  InspectRequest request = PlantedRequest();
  request.options->deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  Result<ResultTable> past_deadline = client.Inspect(request);
  ASSERT_FALSE(past_deadline.ok());
  EXPECT_EQ(past_deadline.status().code(), StatusCode::kDeadlineExceeded)
      << past_deadline.status().ToString();

  // The deadline error travelled as a result, not as a connection reset:
  // the same connection keeps serving RPCs and unbounded jobs.
  ASSERT_TRUE(client.Stats().ok());
  Result<ResultTable> unbounded = client.Inspect(PlantedRequest());
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  EXPECT_FALSE(unbounded->rows().empty());
}

// ---------------------------------------------------------------------------
// Resubmission after a connection loss.
// ---------------------------------------------------------------------------

TEST(InspectionServerTest, OrphanedJobIsResubmittedAfterReconnect) {
  ServerWorld world(/*delay_us=*/2000);

  ClientConfig config = world.client_config();
  config.reconnect_backoff_s = 0.01;
  config.reconnect_attempts = 20;
  config.resubmit_backoff_s = 0.01;
  InspectionClient client(config);
  ASSERT_TRUE(client.Connect().ok());

  const InspectRequest request = PlantedRequest();
  std::atomic<size_t> progress_events{0};
  Result<RemoteJob> job = client.Submit(
      request, [&](const RemoteProgress&) { ++progress_events; });
  ASSERT_TRUE(job.ok()) << job.status().ToString();

  // Kill the connection from under the in-flight job: the next frame the
  // client reader touches fails like a dead socket. (Client-scoped site,
  // so server-side readers are unaffected.)
  failpoint::Action action;
  action.code = StatusCode::kIOError;
  action.message = "injected connection loss";
  action.max_fires = 1;
  failpoint::Arm("client.read_frame", action);

  // Pre-PR behavior: the handle resolves kIOError the moment the loss is
  // detected. With resubmission, it resolves with the job's real result
  // computed on the reconnected connection.
  const Result<ResultTable>& table = job->Wait();
  const uint64_t fires = failpoint::Fires("client.read_frame");
  failpoint::DisarmAll();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  // The loss really happened (the job did not simply finish before the
  // fault armed) — so OK here means the replay path delivered the result.
  EXPECT_EQ(fires, 1u);

  // Bit-identical to the in-process run of the same request.
  Result<ResultTable> local = world.session->Inspect(request);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(table->SerializeToString(), local->SerializeToString());

  // The reconnected client keeps working.
  ASSERT_TRUE(client.Stats().ok());
}

}  // namespace
}  // namespace deepbase
