// Chaos harness for the robustness stack: a seeded random fault schedule
// is replayed over every registered failpoint site while a mixed
// local + remote + cluster workload runs. The invariants under fire:
//
//   1. Liveness — every submitted job terminates with a definitive
//      status (OK or a typed error); nothing hangs, nothing resolves
//      with an untyped/unknown code.
//   2. Correctness — any job that reports OK produced a table
//      bit-identical to the fault-free reference run. Faults may fail a
//      job, never corrupt one.
//   3. Deadline honesty — jobs submitted with a budget resolve within
//      budget plus bounded slack (one block + scheduling noise), whatever
//      the chaos schedule does.
//   4. Recovery — once the schedule ends and every site is disarmed, all
//      three paths serve clean jobs again (no poisoned caches, no dead
//      connections, no leaked degraded state).
//
// The schedule is deterministic for a fixed seed (site choice, action,
// arming windows); thread interleaving still varies, which is the point:
// this binary runs under TSan in scripts/check.sh. Seed and length are
// overridable for the smoke run:
//
//   DEEPBASE_CHAOS_SEED=7 DEEPBASE_CHAOS_STEPS=20 ./chaos_test

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/worker.h"
#include "server/client.h"
#include "server/server.h"
#include "service/inspection_session.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace deepbase {
namespace {

// Deterministic planted model (unit 0 tracks 'a'); the per-block delay
// keeps jobs in flight long enough for the fault schedule to land on
// them.
class PlantedExtractor : public Extractor {
 public:
  explicit PlantedExtractor(size_t units = 4, int delay_us = 0)
      : Extractor("planted"), units_(units), delay_us_(delay_us) {}
  size_t num_units() const override { return units_; }

  Matrix ExtractBlock(const Dataset& dataset,
                      const std::vector<size_t>& record_idx,
                      const std::vector<int>& unit_ids) const override {
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

InspectRequest PlantedRequest() {
  InspectRequest request;
  request.models.push_back({.name = "planted"});
  request.hypothesis_sets = {"keywords"};
  request.dataset_name = "ab";
  request.measure_names = {"jaccard", "mutual_info"};  // kExact merges
  InspectOptions options;
  options.block_size = 16;
  options.num_shards = 2;
  options.streaming = false;
  options.early_stopping = false;  // fixed work → byte-stable tables
  request.options = options;
  return request;
}

// One process-equivalent world; catalogs built identically everywhere
// (same seeds → same data), matching the cluster deployment contract.
struct World {
  explicit World(int delay_us = 0, size_t num_threads = 2,
                 std::string store_dir = "") {
    extractor = std::make_unique<PlantedExtractor>(4, delay_us);
    dataset = MakeAbDataset();
    SessionConfig config;
    config.num_threads = num_threads;
    config.store_dir = std::move(store_dir);
    session = std::make_unique<InspectionSession>(std::move(config));
    session->catalog().RegisterModel("planted", extractor.get());
    session->catalog().RegisterHypotheses("keywords", {IsAHypothesis()});
    session->catalog().RegisterDataset("ab", &dataset);
  }

  std::unique_ptr<PlantedExtractor> extractor;
  Dataset dataset;
  std::unique_ptr<InspectionSession> session;
};

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value ? std::strtoull(value, nullptr, 10) : fallback;
}

// A status a job under chaos may legally resolve with: OK, or a typed
// failure a fault can produce. Anything else (kUnknown in particular)
// means an error was minted or laundered somewhere it should not be.
bool IsDefinitive(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
    case StatusCode::kIOError:
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kCancelled:
    case StatusCode::kNotFound:
    case StatusCode::kInternal:
    case StatusCode::kDataLoss:
      return true;
    default:
      return false;
  }
}

struct JobOutcome {
  Status status = Status::OK();
  std::string bytes;        // serialized table when OK
  double elapsed_s = 0.0;
  double budget_s = -1.0;   // <0 = no deadline was set
};

TEST(ChaosTest, MixedWorkloadSurvivesSeededFaultSchedule) {
  const uint64_t seed = EnvOr("DEEPBASE_CHAOS_SEED", 0xC4A05);
  const uint64_t steps = EnvOr("DEEPBASE_CHAOS_STEPS", 48);

  // Fault-free reference, computed before any site is armed.
  const InspectRequest request = PlantedRequest();
  std::string reference_bytes;
  {
    World clean;
    Result<ResultTable> reference = clean.session->Inspect(request);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_FALSE(reference->rows().empty());
    reference_bytes = reference->SerializeToString();
  }

  // --- The world under test: one server, one 1-worker cluster, one
  // store-backed local session.
  const std::string store_dir =
      (std::filesystem::temp_directory_path() /
       ("deepbase_chaos_" + std::to_string(::getpid())))
          .string();
  World local_world(/*delay_us=*/500, /*num_threads=*/2, store_dir);

  World server_world(/*delay_us=*/500);
  ServerConfig server_config;
  InspectionServer server(server_world.session.get(), server_config);
  ASSERT_TRUE(server.Start().ok());

  World coord_world(/*delay_us=*/500);
  cluster::CoordinatorConfig coord_config;
  coord_config.install_engine = false;
  coord_config.degrade_to_local = true;  // availability over scale-out
  coord_config.total_shards = 2;
  coord_config.assign_timeout_s = 5.0;
  coord_config.reassign_backoff_s = 0.005;
  cluster::ClusterCoordinator coordinator(coord_world.session.get(),
                                          coord_config);
  ASSERT_TRUE(coordinator.Start().ok());
  World worker_world(/*delay_us=*/500);
  cluster::InspectionWorker worker(worker_world.session.get(),
                                   {.worker_id = "w-chaos",
                                    .coordinator_port = coordinator.port()});
  ASSERT_TRUE(worker.Connect().ok());
  for (int i = 0; i < 5000 && coordinator.num_workers() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(coordinator.num_workers(), 1u);

  // --- Workload threads. Each records outcomes; asserts happen on the
  // main thread after the join (gtest asserts are not thread-safe).
  std::atomic<bool> stop_chaos{false};
  std::vector<JobOutcome> local_outcomes, remote_outcomes, cluster_outcomes;
  std::mutex outcome_mu;
  const bool verbose = std::getenv("DEEPBASE_CHAOS_VERBOSE") != nullptr;
  auto record = [&](std::vector<JobOutcome>* sink, JobOutcome outcome) {
    std::lock_guard<std::mutex> lock(outcome_mu);
    if (verbose) {
      const char* path = sink == &local_outcomes    ? "local"
                         : sink == &remote_outcomes ? "remote"
                                                    : "cluster";
      fprintf(stderr, "[chaos] %s job %zu: %s (%.3fs)\n", path,
              sink->size(), outcome.status.ToString().c_str(),
              outcome.elapsed_s);
    }
    sink->push_back(std::move(outcome));
  };
  auto run_one = [&](InspectionSession* session, double budget_s) {
    InspectRequest r = request;
    if (budget_s >= 0.0) {
      r.options->deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(budget_s));
    }
    const auto start = std::chrono::steady_clock::now();
    Result<ResultTable> result = session->Inspect(r);
    JobOutcome outcome;
    outcome.status = result.status();
    outcome.elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    outcome.budget_s = budget_s;
    if (result.ok()) outcome.bytes = result->SerializeToString();
    return outcome;
  };

  // --- The fault scheduler: replay `steps` arm/disarm windows over the
  // full site catalog with seeded actions. Started before the workload so
  // the very first jobs already run under fire.
  std::vector<const char*> sites = {
      "store.read",       "store.write",      "store.blob.read",
      "store.blob.write", "wire.read_frame",  "wire.write_frame",
      "scheduler.admit",  "cluster.dispatch", "worker.assign.run",
      "client.read_frame",
  };
  // Optional single-site focus (debugging / targeted smoke runs).
  if (const char* only = std::getenv("DEEPBASE_CHAOS_SITE")) {
    sites.assign(1, only);
  }
  std::thread chaos([&] {
    Rng rng(seed);
    for (uint64_t step = 0; step < steps && !stop_chaos.load(); ++step) {
      const char* site = sites[rng.Next() % sites.size()];
      failpoint::Action action;
      switch (rng.Next() % 4) {
        case 0: action.code = StatusCode::kIOError; break;
        case 1: action.code = StatusCode::kUnavailable; break;
        case 2: action.code = StatusCode::kInternal; break;
        default:
          action.code = StatusCode::kOk;  // delay-only
          action.delay_s = 0.001 + 0.004 * rng.Uniform();
          break;
      }
      action.message = "chaos step " + std::to_string(step);
      action.max_fires = 1 + rng.Next() % 3;
      action.probability = 0.3 + 0.7 * rng.Uniform();
      action.seed = seed ^ (step * 0x9e3779b97f4a7c15ull);
      failpoint::Arm(site, action);
      std::this_thread::sleep_for(
          std::chrono::microseconds(1500 + rng.Next() % 4000));
      failpoint::Disarm(site);
      if (step % 16 == 15) failpoint::DisarmAll();
    }
    failpoint::DisarmAll();
  });

  // Deadline-carrying jobs opt out of the result cache and dedup
  // (deterministic-options contract), so a far-future budget is the lever
  // that forces real block-by-block execution on every submission — the
  // sustained work the fault schedule needs to land on. A tight budget
  // additionally exercises mid-run expiry.
  constexpr double kLooseBudget = 30.0;
  constexpr double kTightBudget = 0.05;
  std::thread local_thread([&] {
    for (int i = 0; i < 9; ++i) {
      const double budget = (i % 3 == 0)   ? kLooseBudget
                            : (i % 3 == 2) ? kTightBudget
                                           : -1.0;
      record(&local_outcomes, run_one(local_world.session.get(), budget));
    }
  });

  auto remote_workload = [&](uint64_t client_seed) {
    ClientConfig config;
    config.port = server.port();
    config.reconnect_backoff_s = 0.01;
    config.reconnect_attempts = 20;
    config.resubmit_attempts = 5;
    config.resubmit_backoff_s = 0.01;
    InspectionClient client(config);
    if (!client.Connect().ok()) {
      // The schedule can clip the handshake; that is a whole-client
      // outcome, not a job outcome.
      return;
    }
    Rng rng(client_seed);
    for (int i = 0; i < 6; ++i) {
      InspectRequest r = request;
      double budget = -1.0;
      if (i % 3 == 0) {
        budget = kLooseBudget;  // cache-bypassing: really executes
      } else if (i % 3 == 2) {
        budget = kTightBudget + 0.1 * rng.Uniform();
      }
      if (budget >= 0.0) {
        r.options->deadline = std::chrono::steady_clock::now() +
                              std::chrono::duration_cast<
                                  std::chrono::steady_clock::duration>(
                                  std::chrono::duration<double>(budget));
      }
      const auto start = std::chrono::steady_clock::now();
      Result<ResultTable> result = client.Inspect(r);
      JobOutcome outcome;
      outcome.status = result.status();
      outcome.elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      outcome.budget_s = budget;
      if (result.ok()) outcome.bytes = result->SerializeToString();
      record(&remote_outcomes, std::move(outcome));
    }
    client.Close();
  };
  std::thread remote_a([&] { remote_workload(seed ^ 0xA); });
  std::thread remote_b([&] { remote_workload(seed ^ 0xB); });

  std::thread cluster_thread([&] {
    RuntimeStats stats;
    for (int i = 0; i < 4; ++i) {
      const auto start = std::chrono::steady_clock::now();
      Result<ResultTable> result = coordinator.DistributedRun(
          request, coord_world.session->default_options(), &stats);
      JobOutcome outcome;
      outcome.status = result.status();
      outcome.elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (result.ok()) outcome.bytes = result->SerializeToString();
      record(&cluster_outcomes, std::move(outcome));
    }
  });

  local_thread.join();
  remote_a.join();
  remote_b.join();
  cluster_thread.join();
  stop_chaos.store(true);
  chaos.join();
  failpoint::DisarmAll();

  // --- Invariants.
  auto check = [&](const std::vector<JobOutcome>& outcomes,
                   const char* path) {
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const JobOutcome& o = outcomes[i];
      EXPECT_TRUE(IsDefinitive(o.status))
          << path << " job " << i
          << " resolved with a non-definitive status: "
          << o.status.ToString();
      if (o.status.ok()) {
        EXPECT_EQ(o.bytes, reference_bytes)
            << path << " job " << i
            << " reported OK but its table differs from the fault-free "
               "reference";
      }
      if (o.budget_s >= 0.0) {
        // Budget + a full per-block stall + injected delay + scheduling
        // slack on the 1-core TSan CI.
        EXPECT_LT(o.elapsed_s, o.budget_s + 5.0)
            << path << " job " << i << " blew through its deadline budget";
      }
    }
  };
  check(local_outcomes, "local");
  check(remote_outcomes, "remote");
  check(cluster_outcomes, "cluster");
  EXPECT_EQ(local_outcomes.size(), 9u);
  EXPECT_EQ(cluster_outcomes.size(), 4u);

  // --- Recovery: with every site disarmed, all three paths serve clean,
  // bit-identical jobs again.
  Result<ResultTable> local_after = local_world.session->Inspect(request);
  ASSERT_TRUE(local_after.ok()) << local_after.status().ToString();
  EXPECT_EQ(local_after->SerializeToString(), reference_bytes);

  {
    ClientConfig config;
    config.port = server.port();
    InspectionClient client(config);
    ASSERT_TRUE(client.Connect().ok());
    Result<ResultTable> remote_after = client.Inspect(request);
    ASSERT_TRUE(remote_after.ok()) << remote_after.status().ToString();
    EXPECT_EQ(remote_after->SerializeToString(), reference_bytes);
    client.Close();
  }

  RuntimeStats stats;
  Result<ResultTable> cluster_after = coordinator.DistributedRun(
      request, coord_world.session->default_options(), &stats);
  ASSERT_TRUE(cluster_after.ok()) << cluster_after.status().ToString();
  EXPECT_EQ(cluster_after->SerializeToString(), reference_bytes);

  worker.Shutdown();
  coordinator.Shutdown();
  server.Shutdown();
  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
}

}  // namespace
}  // namespace deepbase
