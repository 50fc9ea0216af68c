// Tests for the distributed inspection cluster: measure-state
// serialization (deserialize-then-MergeFrom bit-identical to in-process
// MergeFrom for every mergeable measure), the cluster wire payloads, the
// deterministic shard partition and rendezvous key placement, and the
// end-to-end determinism contract — one in-process engine run, a
// 1-worker cluster, and a 3-worker cluster produce bit-identical tables
// for every mergeable measure (exact integer counts and bit-exact
// pairwise-tree moments), including across a worker killed and replaced
// mid-job — with the same block counts and final progress as the local
// run. Failure semantics (no workers → kUnavailable, inline-pointer
// requests → local fallback, the hypothesis output-format pre-flight) and
// sequential-lane pinning (whole-mode jobs) ride along, as do the peer
// protocol rule that no peer (coordinator, worker, server) answers a kError
// frame and the coordinator listener's connection lifecycle: reclaiming
// closed worker connections and surviving descriptor exhaustion.

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "core/extractors.h"
#include "cluster/partition.h"
#include "cluster/worker.h"
#include "measures/multivariate_mi.h"
#include "measures/scores.h"
#include "server/server.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace deepbase {
namespace {

// ---------------------------------------------------------------------------
// Shard partition + rendezvous placement.
// ---------------------------------------------------------------------------

TEST(PartitionTest, RangesAreContiguousCoveringAndBalanced) {
  for (uint32_t shards : {1u, 2u, 7u, 8u, 64u}) {
    for (uint32_t workers : {1u, 2u, 3u, 5u, 100u}) {
      const std::vector<cluster::ShardRange> ranges =
          cluster::MakeShardRanges(shards, workers);
      ASSERT_EQ(ranges.size(), std::min(shards, workers));
      uint32_t next = 0;
      for (const cluster::ShardRange& range : ranges) {
        EXPECT_EQ(range.lo, next);
        EXPECT_GT(range.hi, range.lo);
        // Balanced: no range more than one shard larger than another.
        EXPECT_LE(range.hi - range.lo,
                  shards / static_cast<uint32_t>(ranges.size()) + 1);
        next = range.hi;
      }
      EXPECT_EQ(next, shards);
    }
  }
  EXPECT_TRUE(cluster::MakeShardRanges(4, 0).empty());
}

TEST(PartitionTest, RendezvousPlacementIsStableUnderNonOwnerRemoval) {
  const std::vector<std::string> workers = {"w-a", "w-b", "w-c", "w-d"};
  const std::vector<std::string> keys = {"unit:lm", "unit:parser", "hyp:is_a",
                                         "unit:planted"};
  for (const std::string& key : keys) {
    const std::string owner = cluster::PlaceKey(key, workers);
    ASSERT_FALSE(owner.empty());
    // Deterministic.
    EXPECT_EQ(cluster::PlaceKey(key, workers), owner);
    // The defining rendezvous property: removing a NON-owner never moves
    // the key (only keys owned by a departed worker migrate).
    for (const std::string& removed : workers) {
      if (removed == owner) continue;
      std::vector<std::string> rest;
      for (const std::string& w : workers) {
        if (w != removed) rest.push_back(w);
      }
      EXPECT_EQ(cluster::PlaceKey(key, rest), owner)
          << key << " moved when non-owner " << removed << " left";
    }
  }
  EXPECT_EQ(cluster::PlaceKey("unit:lm", {}), "");
}

// ---------------------------------------------------------------------------
// Measure-state serialization: for every mergeable measure,
// serialize → deserialize → MergeFrom must be bit-identical to the
// in-process MergeFrom it replaces.
// ---------------------------------------------------------------------------

Matrix UnitBlock(size_t rows, size_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<float>(rng.Uniform()) * 2.0f - 1.0f;
    }
  }
  return m;
}

std::vector<float> HypBlock(size_t rows, int num_classes, uint64_t seed) {
  std::vector<float> h(rows);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    h[r] = num_classes > 0
               ? static_cast<float>(rng.UniformInt(
                     static_cast<uint64_t>(num_classes)))
               : static_cast<float>(rng.Uniform()) * 4.0f - 2.0f;
  }
  return h;
}

std::string StateBytes(const Measure& state) {
  codec::Writer w;
  EXPECT_TRUE(state.SerializeState(&w));
  return w.Take();
}

std::unique_ptr<Measure> Restore(const MeasureFactory& factory,
                                 size_t num_units, int num_classes,
                                 const std::string& bytes) {
  std::unique_ptr<Measure> state = factory.Create(num_units, num_classes);
  codec::Reader r(bytes);
  EXPECT_TRUE(state->DeserializeState(&r)) << factory.name();
  EXPECT_TRUE(r.exhausted()) << factory.name();
  return state;
}

void CheckSerializedMergeMatchesDirect(const MeasureFactory& factory,
                                       int num_classes) {
  constexpr size_t kUnits = 5;
  constexpr size_t kRows = 48;

  // Primary calibrates on block 0 (thresholds, bin edges) and keeps its
  // data; replicas clone the calibration and accumulate their own blocks —
  // exactly the pipeline's shard protocol.
  std::unique_ptr<Measure> primary = factory.Create(kUnits, num_classes);
  ASSERT_NE(primary, nullptr) << factory.name();
  ASSERT_NE(primary->merge_exactness(), MergeExactness::kNone)
      << factory.name() << " should be mergeable";
  primary->ProcessBlock(UnitBlock(kRows, kUnits, 11),
                        HypBlock(kRows, num_classes, 21));
  std::unique_ptr<Measure> r1 = primary->CloneState();
  std::unique_ptr<Measure> r2 = primary->CloneState();
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  r1->ProcessBlock(UnitBlock(kRows, kUnits, 12),
                   HypBlock(kRows, num_classes, 22));
  r2->ProcessBlock(UnitBlock(kRows, kUnits, 13),
                   HypBlock(kRows, num_classes, 23));

  // Capture every partial before the in-process merge mutates them.
  const std::string primary_bytes = StateBytes(*primary);
  const std::string r1_bytes = StateBytes(*r1);
  const std::string r2_bytes = StateBytes(*r2);

  // Serialization is self-consistent: restore → re-serialize → same bytes.
  EXPECT_EQ(StateBytes(*Restore(factory, kUnits, num_classes, r1_bytes)),
            r1_bytes)
      << factory.name();

  // Path A: in-process merge (what a single-process sharded run does).
  primary->MergeFrom(*r1);
  primary->MergeFrom(*r2);

  // Path B: the distributed path — every partial crosses a process
  // boundary as bytes, then merges in the same shard order.
  std::unique_ptr<Measure> remote =
      Restore(factory, kUnits, num_classes, primary_bytes);
  remote->MergeFrom(*Restore(factory, kUnits, num_classes, r1_bytes));
  remote->MergeFrom(*Restore(factory, kUnits, num_classes, r2_bytes));

  // Bit-identical for every measure — both paths execute the same FP ops
  // in the same order on bit-equal state (the codec bit-casts floats).
  EXPECT_EQ(StateBytes(*primary), StateBytes(*remote)) << factory.name();
  const MeasureScores a = primary->Scores();
  const MeasureScores b = remote->Scores();
  ASSERT_EQ(a.unit_scores.size(), b.unit_scores.size());
  for (size_t u = 0; u < a.unit_scores.size(); ++u) {
    if (std::isnan(a.unit_scores[u])) {
      EXPECT_TRUE(std::isnan(b.unit_scores[u]));
    } else {
      EXPECT_EQ(a.unit_scores[u], b.unit_scores[u])
          << factory.name() << " unit " << u;
    }
  }
}

TEST(MeasureStateSerializationTest, PearsonRoundTrips) {
  CheckSerializedMergeMatchesDirect(CorrelationScore("pearson"), 2);
  CheckSerializedMergeMatchesDirect(CorrelationScore("pearson"), 0);
}

TEST(MeasureStateSerializationTest, DiffMeansRoundTrips) {
  CheckSerializedMergeMatchesDirect(DiffMeansScore(), 2);
}

TEST(MeasureStateSerializationTest, JaccardRoundTrips) {
  CheckSerializedMergeMatchesDirect(JaccardScore(), 2);
}

TEST(MeasureStateSerializationTest, MutualInfoRoundTrips) {
  CheckSerializedMergeMatchesDirect(MutualInfoScore(), 2);
  CheckSerializedMergeMatchesDirect(MutualInfoScore(), 4);
}

TEST(MeasureStateSerializationTest, MultivariateMiRoundTrips) {
  CheckSerializedMergeMatchesDirect(MultivariateMiScore(), 2);
}

TEST(MeasureStateSerializationTest, BaselinesRoundTrip) {
  CheckSerializedMergeMatchesDirect(RandomBaselineScore(), 2);
  CheckSerializedMergeMatchesDirect(MajorityBaselineScore(), 2);
}

TEST(MeasureStateSerializationTest, SequentialLaneMeasuresDeclineToTravel) {
  // SGD-trained and rank-based measures are pinned to the sequential lane
  // (merge_exactness kNone) and must refuse serialization rather than
  // produce a state the coordinator would wrongly merge.
  for (const MeasureFactoryPtr& factory :
       {MeasureFactoryPtr(std::make_shared<CorrelationScore>("spearman")),
        MeasureFactoryPtr(std::make_shared<LogRegressionScore>("L2"))}) {
    std::unique_ptr<Measure> state = factory->Create(3, 2);
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->merge_exactness(), MergeExactness::kNone)
        << factory->name();
    codec::Writer w;
    EXPECT_FALSE(state->SerializeState(&w)) << factory->name();
  }
}

TEST(MeasureStateSerializationTest, RejectsForeignAndTruncatedBytes) {
  JaccardScore jaccard;
  CorrelationScore pearson("pearson");
  std::unique_ptr<Measure> state = jaccard.Create(4, 2);
  state->ProcessBlock(UnitBlock(32, 4, 5), HypBlock(32, 2, 6));
  const std::string bytes = StateBytes(*state);

  // Wrong measure kind: the tag guard rejects it.
  {
    std::unique_ptr<Measure> wrong = pearson.Create(4, 2);
    codec::Reader r(bytes);
    EXPECT_FALSE(wrong->DeserializeState(&r));
  }
  // Wrong configuration (unit count) of the right kind.
  {
    std::unique_ptr<Measure> wrong = jaccard.Create(3, 2);
    codec::Reader r(bytes);
    EXPECT_FALSE(wrong->DeserializeState(&r));
  }
  // Truncated input. (The Reader is a view — the truncated buffer must
  // outlive it.)
  {
    std::unique_ptr<Measure> fresh = jaccard.Create(4, 2);
    const std::string truncated = bytes.substr(0, bytes.size() / 2);
    codec::Reader r(truncated);
    EXPECT_FALSE(fresh->DeserializeState(&r));
  }
}

// ---------------------------------------------------------------------------
// Cluster wire payloads.
// ---------------------------------------------------------------------------

TEST(ClusterWireTest, AssignmentRoundTrips) {
  wire::AssignmentWire assignment;
  assignment.assignment_id = 42;
  assignment.mode = wire::AssignmentWire::Mode::kSliced;
  assignment.total_shards = 8;
  assignment.shard_lo = 2;
  assignment.shard_hi = 5;
  assignment.request.models.push_back({.name = "planted"});
  assignment.request.hypothesis_sets = {"keywords"};
  assignment.request.dataset_name = "ab";
  assignment.request.measure_names = {"jaccard", "mutual_info"};
  InspectOptions options;
  options.num_shards = 8;
  options.streaming = false;
  assignment.request.options = options;

  wire::Writer w;
  ASSERT_TRUE(wire::EncodeAssignment(assignment, &w).ok());
  wire::Reader r(w.bytes());
  wire::AssignmentWire decoded;
  ASSERT_TRUE(wire::DecodeAssignment(&r, &decoded));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(decoded.assignment_id, 42u);
  EXPECT_EQ(decoded.mode, wire::AssignmentWire::Mode::kSliced);
  EXPECT_EQ(decoded.total_shards, 8u);
  EXPECT_EQ(decoded.shard_lo, 2u);
  EXPECT_EQ(decoded.shard_hi, 5u);
  ASSERT_EQ(decoded.request.models.size(), 1u);
  EXPECT_EQ(decoded.request.models[0].name, "planted");
  EXPECT_EQ(decoded.request.measure_names,
            (std::vector<std::string>{"jaccard", "mutual_info"}));
  ASSERT_TRUE(decoded.request.options.has_value());
  EXPECT_EQ(decoded.request.options->num_shards, 8u);
  EXPECT_FALSE(decoded.request.options->streaming);
}

TEST(ClusterWireTest, AssignResultRoundTripsStatesAndStatus) {
  wire::AssignResultWire result;
  result.assignment_id = 7;
  result.status = Status::OK();
  result.mode = wire::AssignmentWire::Mode::kSliced;
  result.pair_states = {"state-a", std::string("b\0c", 3), ""};
  result.blocks_processed = 19;
  result.records_processed = 304;
  result.all_converged = 1;

  wire::Writer w;
  wire::EncodeAssignResult(result, &w);
  wire::Reader r(w.bytes());
  wire::AssignResultWire decoded;
  ASSERT_TRUE(wire::DecodeAssignResult(&r, &decoded));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(decoded.assignment_id, 7u);
  EXPECT_TRUE(decoded.status.ok());
  EXPECT_EQ(decoded.pair_states, result.pair_states);
  EXPECT_EQ(decoded.blocks_processed, 19u);
  EXPECT_EQ(decoded.records_processed, 304u);
  EXPECT_EQ(decoded.all_converged, 1);

  // Error outcomes keep their typed code — kUnavailable included.
  wire::AssignResultWire failed;
  failed.assignment_id = 8;
  failed.status = Status::Unavailable("worker overloaded");
  wire::Writer w2;
  wire::EncodeAssignResult(failed, &w2);
  wire::Reader r2(w2.bytes());
  ASSERT_TRUE(wire::DecodeAssignResult(&r2, &decoded));
  EXPECT_EQ(decoded.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded.status.message(), "worker overloaded");
}

TEST(ClusterWireTest, HelloAndProgressRoundTrip) {
  wire::WorkerHelloWire hello;
  hello.worker_id = "w-7";
  hello.catalog_version = 12;
  hello.num_threads = 4;
  wire::Writer w;
  wire::EncodeWorkerHello(hello, &w);
  wire::Reader r(w.bytes());
  wire::WorkerHelloWire hello2;
  ASSERT_TRUE(wire::DecodeWorkerHello(&r, &hello2));
  EXPECT_EQ(hello2.protocol_version, wire::kProtocolVersion);
  EXPECT_EQ(hello2.worker_id, "w-7");
  EXPECT_EQ(hello2.catalog_version, 12u);
  EXPECT_EQ(hello2.num_threads, 4u);

  wire::WorkerProgressWire progress{.assignment_id = 3,
                                    .blocks_processed = 17,
                                    .records_processed = 272};
  wire::Writer w2;
  wire::EncodeWorkerProgress(progress, &w2);
  wire::Reader r2(w2.bytes());
  wire::WorkerProgressWire progress2;
  ASSERT_TRUE(wire::DecodeWorkerProgress(&r2, &progress2));
  EXPECT_EQ(progress2.assignment_id, 3u);
  EXPECT_EQ(progress2.blocks_processed, 17u);
  EXPECT_EQ(progress2.records_processed, 272u);
}

// ---------------------------------------------------------------------------
// End-to-end cluster world: a planted model whose catalogs are built
// identically in every process (same seeds → same data), matching the
// deployment contract that coordinator and workers share a catalog.
// ---------------------------------------------------------------------------

class PlantedExtractor : public Extractor {
 public:
  explicit PlantedExtractor(size_t units = 4, int delay_us = 0)
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
  return std::make_shared<FunctionHypothesis>(
      "is_a", [](const Record& rec) {
        std::vector<float> out(rec.size(), 0.0f);
        for (size_t i = 0; i < rec.size(); ++i) {
          if (rec.tokens[i] == "a") out[i] = 1.0f;
        }
        return out;
      });
}

Dataset MakeAbDataset(size_t records = 192, size_t ns = 8) {
  Dataset dataset(Vocab::FromChars("ab"), ns);
  Rng rng(3);
  for (size_t i = 0; i < records; ++i) {
    std::string text;
    for (size_t t = 0; t < ns; ++t) text += rng.Bernoulli(0.4) ? 'a' : 'b';
    dataset.AddText(text);
  }
  return dataset;
}

// One process-equivalent: a session with its own identically-built
// catalog, as each worker process would have.
struct World {
  PlantedExtractor extractor;
  Dataset dataset;
  InspectionSession session;

  explicit World(int delay_us = 0, size_t num_threads = 2)
      : extractor(4, delay_us),
        dataset(MakeAbDataset()),
        session(SessionConfig{.num_threads = num_threads}) {
    session.catalog().RegisterModel("planted", &extractor);
    session.catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
    session.catalog().RegisterDataset("ab", &dataset);
  }
};

InspectOptions PinnedOptions(size_t num_shards = 4) {
  InspectOptions options;
  options.block_size = 16;
  options.num_shards = num_shards;
  options.streaming = false;      // sliceable lane
  options.early_stopping = false; // full pass → byte-stable tables
  return options;
}

InspectRequest ExactRequest(size_t num_shards = 4) {
  InspectRequest request;
  request.models.push_back({.name = "planted"});
  request.hypothesis_sets = {"keywords"};
  request.dataset_name = "ab";
  request.measure_names = {"jaccard", "mutual_info"};  // kExact merges
  request.options = PinnedOptions(num_shards);
  return request;
}

InspectRequest PearsonRequest(size_t num_shards = 4) {
  InspectRequest request = ExactRequest(num_shards);
  request.measure_names = {"pearson"};  // kBitExact pairwise-tree merge
  return request;
}

bool WaitForWorkers(const cluster::ClusterCoordinator& coordinator,
                    size_t n, int timeout_ms = 5000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (coordinator.num_workers() >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return coordinator.num_workers() >= n;
}

// ---------------------------------------------------------------------------
// The acceptance scenario: (a) one in-process engine, (b) a 1-worker
// cluster, (c) a 3-worker cluster — bit-identical tables for exact-merge
// measures; (c) repeated with a worker killed and replaced mid-job.
// ---------------------------------------------------------------------------

TEST(ClusterEndToEndTest, OneAndThreeWorkerRunsAreBitIdenticalToLocal) {
  // (a) The in-process reference, same pinned (seed, num_shards).
  World local;
  RuntimeStats local_stats;
  Result<ResultTable> reference =
      local.session.Inspect(ExactRequest(), &local_stats);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string reference_bytes = reference->SerializeToString();
  ASSERT_FALSE(reference->rows().empty());

  Result<ResultTable> pearson_reference =
      local.session.Inspect(PearsonRequest(), &local_stats);
  ASSERT_TRUE(pearson_reference.ok());

  // (b) 1-worker cluster.
  {
    World coord_world;
    cluster::CoordinatorConfig config;
    config.total_shards = 4;
    cluster::ClusterCoordinator coordinator(&coord_world.session, config);
    ASSERT_TRUE(coordinator.Start().ok());

    World worker_world;
    cluster::InspectionWorker worker(&worker_world.session,
                                     {.worker_id = "w-solo",
                                      .coordinator_port = coordinator.port()});
    ASSERT_TRUE(worker.Connect().ok());
    ASSERT_TRUE(WaitForWorkers(coordinator, 1));

    // Through the session front door: the coordinator is the scheduler's
    // engine, so Submit/Inspect transparently run on the cluster.
    RuntimeStats stats;
    Result<ResultTable> result =
        coord_world.session.Inspect(ExactRequest(), &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->SerializeToString(), reference_bytes);
    EXPECT_EQ(stats.num_shards, 4u);
    EXPECT_GT(stats.records_processed, 0u);

    // One worker merges shards 0..S-1 itself, in the in-process order;
    // Pearson's pairwise-tree merge keeps the table bit-identical.
    Result<ResultTable> pearson =
        coord_world.session.Inspect(PearsonRequest(), &stats);
    ASSERT_TRUE(pearson.ok());
    EXPECT_EQ(pearson->SerializeToString(),
              pearson_reference->SerializeToString());

    EXPECT_EQ(coordinator.stats().jobs_sliced, 2u);
    EXPECT_EQ(coordinator.stats().jobs_failed, 0u);
    worker.Shutdown();
    coordinator.Shutdown();
  }

  // (c) 3-worker cluster.
  {
    World coord_world;
    cluster::CoordinatorConfig config;
    config.total_shards = 4;
    config.install_engine = false;  // drive DistributedRun directly
    cluster::ClusterCoordinator coordinator(&coord_world.session, config);
    ASSERT_TRUE(coordinator.Start().ok());

    std::vector<std::unique_ptr<World>> worlds;
    std::vector<std::unique_ptr<cluster::InspectionWorker>> workers;
    for (int i = 0; i < 3; ++i) {
      worlds.push_back(std::make_unique<World>());
      workers.push_back(std::make_unique<cluster::InspectionWorker>(
          &worlds.back()->session,
          cluster::WorkerConfig{.worker_id = "w-" + std::to_string(i),
                                .coordinator_port = coordinator.port()}));
      ASSERT_TRUE(workers.back()->Connect().ok());
    }
    ASSERT_TRUE(WaitForWorkers(coordinator, 3));

    RuntimeStats stats;
    Result<ResultTable> result = coordinator.DistributedRun(
        ExactRequest(), coord_world.session.default_options(), &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Integer-count merges: bit-identical at any worker count.
    EXPECT_EQ(result->SerializeToString(), reference_bytes);

    // Pairwise-tree moment merge (kBitExact): the serialized table is
    // byte-identical to the in-process reference even though three
    // workers each merged a different shard subset.
    Result<ResultTable> pearson = coordinator.DistributedRun(
        PearsonRequest(), coord_world.session.default_options(), &stats);
    ASSERT_TRUE(pearson.ok());
    EXPECT_EQ(pearson->SerializeToString(),
              pearson_reference->SerializeToString());

    // The work actually spread: at least two workers completed ranges.
    EXPECT_GE(coordinator.stats().assignments_completed, 4u);
    for (auto& worker : workers) worker->Shutdown();
    coordinator.Shutdown();
  }
}

TEST(ClusterEndToEndTest, WorkerKilledMidJobIsReplacedAndTableIsIdentical) {
  // Reference from a plain in-process run.
  World local;
  Result<ResultTable> reference = local.session.Inspect(ExactRequest());
  ASSERT_TRUE(reference.ok());
  const std::string reference_bytes = reference->SerializeToString();

  World coord_world;
  cluster::CoordinatorConfig config;
  config.total_shards = 4;
  config.reassign_backoff_s = 0.005;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());

  // "victim" stalls before starting any assignment — a wide window in
  // which to kill it mid-job; "survivor" is healthy.
  World victim_world, survivor_world;
  cluster::InspectionWorker victim(&victim_world.session,
                                   {.worker_id = "a-victim",
                                    .coordinator_port = coordinator.port(),
                                    .assignment_delay_s = 10.0});
  cluster::InspectionWorker survivor(
      &survivor_world.session,
      {.worker_id = "b-survivor", .coordinator_port = coordinator.port()});
  ASSERT_TRUE(victim.Connect().ok());
  ASSERT_TRUE(survivor.Connect().ok());
  ASSERT_TRUE(WaitForWorkers(coordinator, 2));

  std::atomic<bool> done{false};
  RuntimeStats stats;
  Result<ResultTable> result = Status::Internal("not run");
  std::thread job([&] {
    result = coordinator.DistributedRun(
        ExactRequest(), coord_world.session.default_options(), &stats);
    done.store(true, std::memory_order_release);
  });

  // Let the dispatch land on both workers, then kill the stalled one: an
  // abrupt socket teardown with no farewell (SIGKILL as the coordinator
  // sees it). Its range must reassign; a replacement joins mid-job.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  victim.Kill();
  World replacement_world;
  cluster::InspectionWorker replacement(
      &replacement_world.session,
      {.worker_id = "c-replacement", .coordinator_port = coordinator.port()});
  ASSERT_TRUE(replacement.Connect().ok());

  job.join();
  ASSERT_TRUE(done.load());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The determinism contract held through death + replacement: the merge
  // order is shard order, whoever ran each range.
  EXPECT_EQ(result->SerializeToString(), reference_bytes);

  const cluster::CoordinatorStats cstats = coordinator.stats();
  EXPECT_GE(cstats.workers_lost, 1u);
  EXPECT_GE(cstats.reassignments, 1u);
  EXPECT_EQ(cstats.jobs_failed, 0u);

  victim.Shutdown();  // still destructible after Kill()
  survivor.Shutdown();
  replacement.Shutdown();
  coordinator.Shutdown();
}

TEST(ClusterEndToEndTest, SequentialLaneJobsPinWholeToOneWorker) {
  // Spearman has no mergeable state → the job cannot slice; it is pinned
  // whole to a single worker, which returns the full serialized table.
  World local;
  InspectRequest request = ExactRequest();
  request.measure_names = {"spearman"};
  Result<ResultTable> reference = local.session.Inspect(request);
  ASSERT_TRUE(reference.ok());

  World coord_world;
  cluster::CoordinatorConfig config;
  config.install_engine = false;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());
  World worker_world;
  cluster::InspectionWorker worker(&worker_world.session,
                                   {.worker_id = "w-0",
                                    .coordinator_port = coordinator.port()});
  ASSERT_TRUE(worker.Connect().ok());
  ASSERT_TRUE(WaitForWorkers(coordinator, 1));

  RuntimeStats stats;
  Result<ResultTable> result = coordinator.DistributedRun(
      request, coord_world.session.default_options(), &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->SerializeToString(), reference->SerializeToString());
  EXPECT_EQ(coordinator.stats().jobs_whole, 1u);
  EXPECT_EQ(coordinator.stats().jobs_sliced, 0u);

  worker.Shutdown();
  coordinator.Shutdown();
}

// A worker runs a whole assignment through its session's Inspect(), which
// observes the worker's cancel flag, so Shutdown() stops the run at a
// block boundary instead of waiting out the job.
TEST(ClusterEndToEndTest, ShutdownStopsAWholeAssignmentMidRun) {
  InspectRequest request = ExactRequest();
  request.measure_names = {"spearman"};  // not sliceable: pinned whole
  World local;
  ASSERT_TRUE(local.session.Inspect(request).ok());
  const size_t blocks = local.extractor.block_calls();

  World coord_world;
  cluster::CoordinatorConfig config;
  config.install_engine = false;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());
  World worker_world(/*delay_us=*/20000);
  cluster::InspectionWorker worker(&worker_world.session,
                                   {.worker_id = "w-0",
                                    .coordinator_port = coordinator.port()});
  ASSERT_TRUE(worker.Connect().ok());
  ASSERT_TRUE(WaitForWorkers(coordinator, 1));

  std::thread job([&] {
    RuntimeStats stats;
    coordinator.DistributedRun(request, coord_world.session.default_options(),
                               &stats);
  });
  for (int i = 0; i < 10000 && worker_world.extractor.block_calls() == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(worker_world.extractor.block_calls(), 1u);
  worker.Shutdown();
  EXPECT_LT(worker_world.extractor.block_calls(), blocks);

  coordinator.Shutdown();
  job.join();
}

TEST(ClusterEndToEndTest, NoWorkersYieldsUnavailable) {
  World coord_world;
  cluster::CoordinatorConfig config;
  config.install_engine = false;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());

  RuntimeStats stats;
  Result<ResultTable> result = coordinator.DistributedRun(
      ExactRequest(), coord_world.session.default_options(), &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(coordinator.stats().jobs_failed, 1u);
  coordinator.Shutdown();
}

TEST(ClusterEndToEndTest, InlinePointerRequestsFallBackToLocalEngine) {
  // A request holding an inline extractor cannot travel (no identity in
  // another process); the coordinator runs it on the local engine — even
  // with zero workers connected.
  World coord_world;
  cluster::CoordinatorConfig config;
  config.install_engine = false;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());

  PlantedExtractor inline_extractor(4);
  InspectRequest request = ExactRequest();
  request.models.clear();
  request.models.push_back({.extractor = &inline_extractor});

  RuntimeStats stats;
  Result<ResultTable> result = coordinator.DistributedRun(
      request, coord_world.session.default_options(), &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->rows().empty());
  EXPECT_EQ(coordinator.stats().jobs_local_fallback, 1u);
  EXPECT_EQ(coordinator.stats().jobs_failed, 0u);
  coordinator.Shutdown();
}

TEST(ClusterEndToEndTest, ProgressAggregatesStrictlyIncreasing) {
  World coord_world;
  cluster::CoordinatorConfig config;
  config.total_shards = 4;
  config.install_engine = false;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());

  // Worker 1 finishes its range quickly; worker 2 stalls before even
  // starting its range. The aggregate therefore publishes worker 1's
  // completed counters long before the job is done — a deterministic
  // mid-run window for the sampler below, even on a loaded 1-CPU TSan
  // host where a purely timing-based window is flaky.
  World w1, w2;
  cluster::InspectionWorker worker1(&w1.session,
                                    {.worker_id = "w-1",
                                     .coordinator_port = coordinator.port(),
                                     .heartbeat_interval_s = 0.005});
  cluster::InspectionWorker worker2(&w2.session,
                                    {.worker_id = "w-2",
                                     .coordinator_port = coordinator.port(),
                                     .heartbeat_interval_s = 0.005,
                                     .assignment_delay_s = 0.4});
  ASSERT_TRUE(worker1.Connect().ok());
  ASSERT_TRUE(worker2.Connect().ok());
  ASSERT_TRUE(WaitForWorkers(coordinator, 2));

  ProgressCounter progress;
  InspectRequest request = ExactRequest();
  request.options->progress = &progress;

  std::atomic<bool> done{false};
  Result<ResultTable> result = Status::Internal("not run");
  std::thread job([&] {
    RuntimeStats stats;
    result = coordinator.DistributedRun(
        request, coord_world.session.default_options(), &stats);
    done.store(true, std::memory_order_release);
  });

  // Sample the published aggregate: it must never decrease.
  uint64_t prev_records = 0;
  bool saw_midrun_progress = false;
  while (!done.load(std::memory_order_acquire)) {
    const uint64_t records =
        progress.records_done.load(std::memory_order_relaxed);
    EXPECT_GE(records, prev_records);
    if (records > 0 && !done.load(std::memory_order_acquire)) {
      saw_midrun_progress = true;
    }
    prev_records = records;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  job.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(saw_midrun_progress);
  EXPECT_GE(progress.records_done.load(), prev_records);
  EXPECT_GT(progress.records_done.load(), 0u);

  worker1.Shutdown();
  worker2.Shutdown();
  coordinator.Shutdown();
}

// Block 0 calibrates on every worker but counts only on the owner of
// shard 0, and the coordinator plans the denominator and publishes the
// last result: a finished sliced job reports exactly the local counts.
TEST(ClusterEndToEndTest, SlicedCountsAndFinalProgressMatchLocalRun) {
  InspectRequest request = ExactRequest();
  request.options->block_size = 8;  // 24 blocks of 8 records

  World local;
  JobHandle local_job = local.session.Submit(request);
  ASSERT_TRUE(local_job.Wait().ok());
  JobProgress local_progress;
  local_job.Poll(&local_progress);
  const RuntimeStats local_stats = local_job.Stats();
  ASSERT_EQ(local_stats.blocks_processed, 24u);
  EXPECT_EQ(local_progress.blocks_completed, 24u);
  EXPECT_EQ(local_progress.blocks_total, 24u);

  for (size_t num_workers : {1u, 2u, 3u}) {
    SCOPED_TRACE(std::to_string(num_workers) + " workers");
    World coord_world;
    cluster::CoordinatorConfig config;
    config.total_shards = 4;
    cluster::ClusterCoordinator coordinator(&coord_world.session, config);
    ASSERT_TRUE(coordinator.Start().ok());
    std::vector<std::unique_ptr<World>> worlds;
    std::vector<std::unique_ptr<cluster::InspectionWorker>> workers;
    for (size_t i = 0; i < num_workers; ++i) {
      worlds.push_back(std::make_unique<World>());
      workers.push_back(std::make_unique<cluster::InspectionWorker>(
          &worlds.back()->session,
          cluster::WorkerConfig{.worker_id = "w-" + std::to_string(i),
                                .coordinator_port = coordinator.port()}));
      ASSERT_TRUE(workers.back()->Connect().ok());
    }
    ASSERT_TRUE(WaitForWorkers(coordinator, num_workers));

    JobHandle job = coord_world.session.Submit(request);
    ASSERT_TRUE(job.Wait().ok()) << job.Wait().status().ToString();
    EXPECT_EQ(coordinator.stats().jobs_sliced, 1u);
    JobProgress progress;
    EXPECT_EQ(job.Poll(&progress), JobStatus::kDone);
    EXPECT_EQ(job.Stats().blocks_processed, local_stats.blocks_processed);
    EXPECT_EQ(job.Stats().records_processed, local_stats.records_processed);
    EXPECT_EQ(progress.blocks_completed, local_progress.blocks_completed);
    EXPECT_EQ(progress.blocks_total, local_progress.blocks_total);
    EXPECT_EQ(progress.records_processed, local_progress.records_processed);

    for (auto& worker : workers) worker->Shutdown();
    coordinator.Shutdown();
  }
}

// Eight binary hypotheses: each worker calibrates jaccard on block 0 once
// per unit group, and its other seven pairs adopt that calibration. The
// sliced table still equals the local one byte for byte.
TEST(ClusterEndToEndTest, SlicedSharedCalibrationMatchesLocalTable) {
  std::vector<HypothesisPtr> eight;
  for (int k = 0; k < 8; ++k) {
    eight.push_back(std::make_shared<FunctionHypothesis>(
        "mod" + std::to_string(k), [k](const Record& rec) {
          std::vector<float> out(rec.size(), 0.0f);
          for (size_t i = 0; i < rec.size(); ++i) {
            const bool a = rec.tokens[i] == "a";
            out[i] = a == ((i + k) % (2 + k % 3) == 0) ? 1.0f : 0.0f;
          }
          return out;
        }));
  }
  InspectRequest request = ExactRequest();
  request.hypothesis_sets = {"eight"};
  request.measure_names = {"jaccard"};

  World local;
  local.session.catalog().RegisterHypotheses("eight", eight);
  Result<ResultTable> reference = local.session.Inspect(request);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->size(), 8u * 4);

  World coord_world;
  coord_world.session.catalog().RegisterHypotheses("eight", eight);
  cluster::CoordinatorConfig config;
  config.total_shards = 4;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());
  std::vector<std::unique_ptr<World>> worlds;
  std::vector<std::unique_ptr<cluster::InspectionWorker>> workers;
  for (size_t i = 0; i < 2; ++i) {
    worlds.push_back(std::make_unique<World>());
    worlds.back()->session.catalog().RegisterHypotheses("eight", eight);
    workers.push_back(std::make_unique<cluster::InspectionWorker>(
        &worlds.back()->session,
        cluster::WorkerConfig{.worker_id = "w-" + std::to_string(i),
                              .coordinator_port = coordinator.port()}));
    ASSERT_TRUE(workers.back()->Connect().ok());
  }
  ASSERT_TRUE(WaitForWorkers(coordinator, 2));

  JobHandle job = coord_world.session.Submit(request);
  ASSERT_TRUE(job.Wait().ok()) << job.Wait().status().ToString();
  EXPECT_EQ(coordinator.stats().jobs_sliced, 1u);
  EXPECT_EQ(job.Wait()->SerializeToString(), reference->SerializeToString());

  for (auto& worker : workers) worker->Shutdown();
  coordinator.Shutdown();
}

// A cluster run reports its plan's block count and the S that ran, in
// both dispatch modes — the numbers a local run of the same request
// reports.
TEST(ClusterEndToEndTest, RunsReportThePlannedBlockCountAndShardCount) {
  InspectRequest whole = ExactRequest();
  whole.measure_names = {"spearman"};  // sequential lane: a whole job

  World coord_world;
  cluster::CoordinatorConfig config;
  config.total_shards = 4;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());
  World worker_world(/*delay_us=*/0, /*num_threads=*/1);
  cluster::InspectionWorker worker(&worker_world.session,
                                   {.worker_id = "w-0",
                                    .coordinator_port = coordinator.port()});
  ASSERT_TRUE(worker.Connect().ok());
  ASSERT_TRUE(WaitForWorkers(coordinator, 1));

  for (const InspectRequest& request : {ExactRequest(), whole}) {
    SCOPED_TRACE(request.measure_names.front());
    World local;
    RuntimeStats local_stats;
    ASSERT_TRUE(local.session.Inspect(request, &local_stats).ok());
    ASSERT_EQ(local_stats.blocks_total_planned, 12u);
    RuntimeStats stats;
    Result<ResultTable> result = coord_world.session.Inspect(request, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(stats.blocks_total_planned, local_stats.blocks_total_planned);
    EXPECT_EQ(stats.num_shards, local_stats.num_shards);
    EXPECT_EQ(stats.blocks_processed, local_stats.blocks_processed);
  }
  EXPECT_EQ(coordinator.stats().jobs_sliced, 1u);
  EXPECT_EQ(coordinator.stats().jobs_whole, 1u);

  worker.Shutdown();
  coordinator.Shutdown();
}

TEST(ClusterEndToEndTest, HypothesisOutputFormatIsCheckedBeforeDispatch) {
  // Emits one behavior too many per record: the local run rejects it in
  // the pre-flight, and so must a sliced cluster run — before any worker
  // would have normalized it.
  const HypothesisPtr bad = std::make_shared<FunctionHypothesis>(
      "too_long", [](const Record& rec) {
        return std::vector<float>(rec.size() + 1, 1.0f);
      });
  InspectRequest request = ExactRequest();
  request.hypothesis_sets = {"bad"};

  World local;
  local.session.catalog().RegisterHypotheses("bad", {bad});
  Result<ResultTable> local_result = local.session.Inspect(request);
  ASSERT_FALSE(local_result.ok());
  EXPECT_EQ(local_result.status().code(), StatusCode::kInvalidArgument);

  World coord_world;
  coord_world.session.catalog().RegisterHypotheses("bad", {bad});
  cluster::CoordinatorConfig config;
  config.total_shards = 4;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());
  World worker_world;
  worker_world.session.catalog().RegisterHypotheses("bad", {bad});
  cluster::InspectionWorker worker(&worker_world.session,
                                   {.worker_id = "w-0",
                                    .coordinator_port = coordinator.port()});
  ASSERT_TRUE(worker.Connect().ok());
  ASSERT_TRUE(WaitForWorkers(coordinator, 1));

  Result<ResultTable> cluster_result = coord_world.session.Inspect(request);
  ASSERT_FALSE(cluster_result.ok());
  EXPECT_EQ(cluster_result.status().code(), local_result.status().code());
  EXPECT_EQ(coordinator.stats().assignments_sent, 0u);

  worker.Shutdown();
  coordinator.Shutdown();
}

TEST(ClusterEndToEndTest, DatasetOutsideTheVocabularyFailsBeforeDispatch) {
  // An LSTM over 5 symbols and a dataset holding ids up to 8: the
  // coordinator's compile rejects it as a local run does, and no worker
  // is sent an assignment that would abort it.
  const LstmLm model(5, 4, 1, 7);
  const LstmLmExtractor extractor("lm5", &model);
  Dataset wide(Vocab::FromChars("abcdefgh"), 8);
  for (int i = 0; i < 4; ++i) wide.AddText("abcdefgh");
  InspectRequest request = ExactRequest();
  request.models = {{.name = "lm5"}};
  request.dataset_name = "wide";

  World coord_world;
  World worker_world;
  for (World* world : {&coord_world, &worker_world}) {
    world->session.catalog().RegisterModel("lm5", &extractor);
    world->session.catalog().RegisterDataset("wide", &wide);
  }
  cluster::CoordinatorConfig config;
  config.total_shards = 4;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());
  cluster::InspectionWorker worker(&worker_world.session,
                                   {.worker_id = "w-0",
                                    .coordinator_port = coordinator.port()});
  ASSERT_TRUE(worker.Connect().ok());
  ASSERT_TRUE(WaitForWorkers(coordinator, 1));

  Result<ResultTable> result = coord_world.session.Inspect(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  for (const char* part : {"'lm5'", "id 8", "(5 symbols)"}) {
    EXPECT_NE(result.status().message().find(part), std::string::npos)
        << result.status().ToString();
  }
  EXPECT_EQ(coordinator.stats().assignments_sent, 0u);

  worker.Shutdown();
  coordinator.Shutdown();
}

// ---------------------------------------------------------------------------
// Graceful degradation: availability over scale-out.
// ---------------------------------------------------------------------------

TEST(ClusterDegradationTest, QuorumLossDegradesToLocalEngineWhenOptedIn) {
  // Same zero-worker setup as NoWorkersYieldsUnavailable — but with
  // degrade_to_local the job completes on the coordinator's own engine
  // instead of failing kUnavailable (the pre-degradation behavior).
  World coord_world;
  cluster::CoordinatorConfig config;
  config.install_engine = false;
  config.degrade_to_local = true;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());

  World local;
  Result<ResultTable> reference = local.session.Inspect(ExactRequest());
  ASSERT_TRUE(reference.ok());

  RuntimeStats stats;
  Result<ResultTable> result = coordinator.DistributedRun(
      ExactRequest(), coord_world.session.default_options(), &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->SerializeToString(), reference->SerializeToString());

  const cluster::CoordinatorStats cstats = coordinator.stats();
  EXPECT_EQ(cstats.jobs_degraded_local, 1u);
  EXPECT_EQ(cstats.jobs_failed, 0u);
  coordinator.Shutdown();
}

TEST(ClusterDegradationTest, AttemptExhaustionDegradesToLocalEngine) {
  // The only worker stalls forever; with max_attempts = 1 and a short
  // assignment timeout, the job burns its attempts without finishing.
  // Pre-degradation this returned kUnavailable; opted in, it falls back
  // to the local engine and still produces the reference table.
  World local;
  Result<ResultTable> reference = local.session.Inspect(ExactRequest());
  ASSERT_TRUE(reference.ok());

  World coord_world;
  cluster::CoordinatorConfig config;
  config.install_engine = false;
  config.degrade_to_local = true;
  config.assign_timeout_s = 0.05;
  config.reassign_backoff_s = 0.005;
  config.max_attempts = 1;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());

  World stalled_world;
  cluster::InspectionWorker stalled(&stalled_world.session,
                                    {.worker_id = "w-stalled",
                                     .coordinator_port = coordinator.port(),
                                     .assignment_delay_s = 30.0});
  ASSERT_TRUE(stalled.Connect().ok());
  ASSERT_TRUE(WaitForWorkers(coordinator, 1));

  RuntimeStats stats;
  Result<ResultTable> result = coordinator.DistributedRun(
      ExactRequest(), coord_world.session.default_options(), &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->SerializeToString(), reference->SerializeToString());
  EXPECT_GE(coordinator.stats().jobs_degraded_local, 1u);
  EXPECT_EQ(coordinator.stats().jobs_failed, 0u);

  stalled.Kill();  // don't wait out the 30 s stall on Shutdown
  coordinator.Shutdown();
}

TEST(ClusterDegradationTest, InjectedDispatchFaultDegradesButDeadlineNever) {
  World coord_world;
  cluster::CoordinatorConfig config;
  config.install_engine = false;
  config.degrade_to_local = true;
  cluster::ClusterCoordinator coordinator(&coord_world.session, config);
  ASSERT_TRUE(coordinator.Start().ok());

  // An injected kUnavailable at dispatch degrades...
  failpoint::Action action;
  action.code = StatusCode::kUnavailable;
  action.message = "injected dispatch outage";
  action.max_fires = 1;
  failpoint::Arm("cluster.dispatch", action);
  RuntimeStats stats;
  Result<ResultTable> degraded = coordinator.DistributedRun(
      ExactRequest(), coord_world.session.default_options(), &stats);
  EXPECT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(coordinator.stats().jobs_degraded_local, 1u);

  // ...but a deadline error is never degraded: a local rerun would be
  // just as late. It surfaces typed, and counts as a failure.
  failpoint::Action late;
  late.code = StatusCode::kDeadlineExceeded;
  late.message = "injected deadline expiry";
  late.max_fires = 1;
  failpoint::Arm("cluster.dispatch", late);
  Result<ResultTable> expired = coordinator.DistributedRun(
      ExactRequest(), coord_world.session.default_options(), &stats);
  failpoint::DisarmAll();
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(coordinator.stats().jobs_degraded_local, 1u);
  EXPECT_EQ(coordinator.stats().jobs_failed, 1u);
  coordinator.Shutdown();
}

// ---------------------------------------------------------------------------
// Peer protocol: an error frame is never answered, so one kError cannot
// start an exchange that never ends. A raw socket plays the other peer.
// ---------------------------------------------------------------------------

// The first kError frame `fd` delivers within `timeout_ms` (other frames,
// such as heartbeats, are skipped); nullopt when none arrives.
std::optional<wire::Frame> NextErrorFrame(int fd, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd pfd{fd, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) {
      return std::nullopt;
    }
    wire::Frame frame;
    const Status st = wire::ReadFrame(fd, &frame);
    if (!st.ok()) {
      ADD_FAILURE() << "peer connection broke: " << st.ToString();
      return std::nullopt;
    }
    if (frame.type == wire::MsgType::kError) return frame;
  }
}

// A raw loopback TCP connection to `port` (-1 on failure).
int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Register `fd` as a worker; true when kWorkerHelloOk arrives within 2 s.
bool RegisterRawWorker(int fd, const std::string& id) {
  wire::WorkerHelloWire hello;
  hello.worker_id = id;
  wire::Writer w;
  wire::EncodeWorkerHello(hello, &w);
  if (!wire::WriteFrame(fd, wire::MsgType::kWorkerHello, 1, w.bytes()).ok()) {
    return false;
  }
  pollfd pfd{fd, POLLIN, 0};
  wire::Frame ack;
  return ::poll(&pfd, 1, 2000) == 1 && wire::ReadFrame(fd, &ack).ok() &&
         ack.type == wire::MsgType::kWorkerHelloOk;
}

// Send one kError, expect no answer, then show the connection still
// works: an unknown frame type is answered with a kError for its id.
void ExpectErrorIsNeverAnswered(int fd) {
  wire::Writer error;
  wire::EncodeStatus(Status::DataLoss("injected"), &error);
  ASSERT_TRUE(
      wire::WriteFrame(fd, wire::MsgType::kError, 41, error.bytes()).ok());
  std::optional<wire::Frame> reply = NextErrorFrame(fd, 300);
  EXPECT_FALSE(reply.has_value())
      << "kError answered with kError for request " << reply->request_id;

  ASSERT_TRUE(
      wire::WriteFrame(fd, static_cast<wire::MsgType>(250), 42, "").ok());
  reply = NextErrorFrame(fd, 5000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->request_id, 42u);
}

TEST(ClusterProtocolTest, CoordinatorNeverAnswersAnErrorFrame) {
  World world;
  cluster::ClusterCoordinator coordinator(
      &world.session, {.heartbeat_timeout_s = 30, .install_engine = false});
  ASSERT_TRUE(coordinator.Start().ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(coordinator.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Register as a worker.
  wire::WorkerHelloWire hello;
  hello.worker_id = "raw";
  wire::Writer w;
  wire::EncodeWorkerHello(hello, &w);
  ASSERT_TRUE(
      wire::WriteFrame(fd, wire::MsgType::kWorkerHello, 1, w.bytes()).ok());
  wire::Frame ack;
  ASSERT_TRUE(wire::ReadFrame(fd, &ack).ok());
  ASSERT_EQ(ack.type, wire::MsgType::kWorkerHelloOk);

  ExpectErrorIsNeverAnswered(fd);
  EXPECT_EQ(coordinator.worker_ids(), std::vector<std::string>{"raw"});
  ::close(fd);
  coordinator.Shutdown();
}

TEST(ClusterProtocolTest, WorkerNeverAnswersAnErrorFrame) {
  // Play the coordinator: a loopback listener the real worker dials.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  ASSERT_EQ(
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  World world;
  cluster::InspectionWorker worker(
      &world.session,
      {.worker_id = "w-raw", .coordinator_port = ntohs(addr.sin_port)});
  // Connect() blocks on the handshake ack, so the coordinator side of the
  // handshake runs beside it.
  int fd = -1;
  std::thread coordinator_side([&] {
    fd = ::accept(listen_fd, nullptr, nullptr);
    wire::Frame hello;
    wire::Writer ack;
    ack.U64(0);  // catalog version
    ack.U32(1);  // live workers
    if (fd < 0 || !wire::ReadFrame(fd, &hello).ok() ||
        hello.type != wire::MsgType::kWorkerHello ||
        !wire::WriteFrame(fd, wire::MsgType::kWorkerHelloOk,
                          hello.request_id, ack.bytes())
             .ok()) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  });
  const Status connected = worker.Connect();
  coordinator_side.join();
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  ASSERT_GE(fd, 0);

  ExpectErrorIsNeverAnswered(fd);
  EXPECT_TRUE(worker.connected());
  worker.Shutdown();
  ::close(fd);
  ::close(listen_fd);
}

TEST(ClusterProtocolTest, ServerNeverAnswersAnErrorFrame) {
  // The client-facing server follows the same rule as the cluster peers.
  World world;
  InspectionServer server(&world.session);
  ASSERT_TRUE(server.Start().ok());
  const int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  wire::Writer hello;
  hello.U16(wire::kProtocolVersion);
  ASSERT_TRUE(
      wire::WriteFrame(fd, wire::MsgType::kHello, 1, hello.bytes()).ok());
  wire::Frame ack;
  ASSERT_TRUE(wire::ReadFrame(fd, &ack).ok());
  ASSERT_EQ(ack.type, wire::MsgType::kHelloOk);

  ExpectErrorIsNeverAnswered(fd);
  ::close(fd);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Connection lifecycle: the coordinator's listener reclaims what finished
// and survives descriptor exhaustion.
// ---------------------------------------------------------------------------

size_t OpenDescriptors() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ClusterLifecycleTest, ClosedWorkerConnectionsAreReclaimed) {
  World world;
  cluster::ClusterCoordinator coordinator(
      &world.session, {.heartbeat_timeout_s = 30, .install_engine = false});
  ASSERT_TRUE(coordinator.Start().ok());
  const size_t baseline = OpenDescriptors();
  for (int i = 0; i < 20; ++i) {
    const int fd = ConnectLoopback(coordinator.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(RegisterRawWorker(fd, "raw-" + std::to_string(i)));
    ::close(fd);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  size_t open = OpenDescriptors();
  while ((coordinator.num_workers() > 0 || open > baseline + 2) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    open = OpenDescriptors();
  }
  EXPECT_EQ(coordinator.num_workers(), 0u);
  EXPECT_LE(open, baseline + 2)
      << "the coordinator still holds the descriptors of closed workers";
  EXPECT_TRUE(coordinator.running());
  coordinator.Shutdown();
}

TEST(ClusterLifecycleTest, AcceptLoopSurvivesDescriptorExhaustion) {
  World world;
  cluster::ClusterCoordinator coordinator(
      &world.session, {.heartbeat_timeout_s = 30, .install_engine = false});
  ASSERT_TRUE(coordinator.Start().ok());
  // The socket that wakes the accept already in flight exists before the
  // descriptor table fills.
  const int wake = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(wake, 0);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur =
      std::min<rlim_t>(saved.rlim_cur, OpenDescriptors() + 64);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  std::vector<int> fillers;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) {
    fillers.push_back(fd);
  }
  const int fill_errno = errno;
  // The accept in flight returns the descriptor it reserved; the loop's
  // next accept finds the table full and fails with EMFILE.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(coordinator.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int woke =
      ::connect(wake, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_EQ(fill_errno, EMFILE);
  ASSERT_EQ(woke, 0);

  const int fd = ConnectLoopback(coordinator.port());
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(RegisterRawWorker(fd, "after-exhaustion"))
      << "no kWorkerHelloOk: the accept loop died on EMFILE";
  EXPECT_EQ(coordinator.worker_ids(),
            std::vector<std::string>{"after-exhaustion"});
  ::close(fd);
  ::close(wake);
  coordinator.Shutdown();
}

// ---------------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------------

TEST(ClusterConfigValidationTest, CoordinatorRejectsNonpositiveTimeouts) {
  World world;
  for (auto mutate : std::vector<std::function<void(
           cluster::CoordinatorConfig&)>>{
           [](auto& c) { c.heartbeat_timeout_s = 0.0; },
           [](auto& c) { c.heartbeat_timeout_s = -1.0; },
           [](auto& c) { c.assign_timeout_s = 0.0; },
           [](auto& c) { c.assign_timeout_s = -2.5; },
           [](auto& c) { c.reassign_backoff_s = -0.01; },
           [](auto& c) { c.max_attempts = 0; }}) {
    cluster::CoordinatorConfig config;
    config.install_engine = false;
    mutate(config);
    cluster::ClusterCoordinator coordinator(&world.session, config);
    Status status = coordinator.Start();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

TEST(ClusterConfigValidationTest, WorkerRejectsNonpositiveTimeouts) {
  World world;
  for (auto mutate :
       std::vector<std::function<void(cluster::WorkerConfig&)>>{
           [](auto& c) { c.heartbeat_interval_s = 0.0; },
           [](auto& c) { c.heartbeat_interval_s = -1.0; },
           [](auto& c) { c.assignment_delay_s = -0.5; }}) {
    cluster::WorkerConfig config;
    config.worker_id = "w-bad";
    config.coordinator_port = 1;  // never dialed: validation fails first
    mutate(config);
    cluster::InspectionWorker worker(&world.session, config);
    Status status = worker.Connect();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

}  // namespace
}  // namespace deepbase
