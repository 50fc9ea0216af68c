// inspect_worker: one worker process of a distributed inspection cluster.
//
// Builds the SAME quickstart toy world as examples/inspect_server (same
// seeds → byte-identical dataset and model, the deployment contract that
// every cluster process shares an equivalent catalog), wraps it in its
// own InspectionSession, and registers with a coordinator started via
// `inspect_server --cluster`. The worker then executes block-range
// assignments — sliced jobs return serialized partial measure states,
// sequential-lane jobs run whole — until the coordinator goes away or
// the process is stopped.
//
// Usage:
//   ./build/examples/inspect_worker --port N [--host H] [--id NAME]
//       [--assignment-delay SECONDS] [--serve-for SECONDS]
//
// Prints "WORKER READY" once registered. --assignment-delay stalls each
// assignment before it starts — a failure-injection hook for scripted
// kill-mid-job tests (scripts/check.sh).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "cluster/worker.h"
#include "core/extractors.h"
#include "hypothesis/iterators.h"
#include "nn/lstm_lm.h"

using namespace deepbase;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

const char* FlagValue(int argc, char** argv, const char* flag,
                      const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const auto port =
      static_cast<uint16_t>(std::atoi(FlagValue(argc, argv, "--port", "0")));
  if (port == 0) {
    std::fprintf(stderr,
                 "usage: inspect_worker --port N [--host H] [--id NAME] "
                 "[--assignment-delay S] [--serve-for S]\n");
    return 1;
  }

  // --- The toy world, identical to inspect_server's (same seeds).
  Rng rng(7);
  const std::string consonants = "bcdfg";
  const std::string vowels = "aeiou";
  Dataset dataset(Vocab::FromChars(consonants + vowels), /*ns=*/16);
  for (int i = 0; i < 200; ++i) {
    std::string text;
    for (int t = 0; t < 16; ++t) {
      const std::string& pool =
          (t % 2 == 0 || rng.Bernoulli(0.2)) ? consonants : vowels;
      text += pool[rng.UniformInt(pool.size())];
    }
    dataset.AddText(text);
  }
  LstmLm model(dataset.vocab().size(), /*hidden_dim=*/16, /*num_layers=*/1,
               /*seed=*/42);
  for (int epoch = 0; epoch < 2; ++epoch) {
    model.TrainEpoch(dataset, 0.01f, 100 + epoch);
  }

  SessionConfig config;
  config.options.block_size = 32;
  InspectionSession session(std::move(config));
  LstmLmExtractor extractor("toy_lm", &model);
  session.catalog().RegisterModel("toy_lm", &extractor);
  session.catalog().RegisterHypotheses(
      "vowels", {std::make_shared<CharClassHypothesis>("is_vowel", vowels)});
  session.catalog().RegisterDataset("words", &dataset);

  cluster::WorkerConfig worker_config;
  worker_config.worker_id = FlagValue(argc, argv, "--id", "");
  worker_config.coordinator_host = FlagValue(argc, argv, "--host",
                                             "127.0.0.1");
  worker_config.coordinator_port = port;
  worker_config.assignment_delay_s =
      std::atof(FlagValue(argc, argv, "--assignment-delay", "0"));
  const double serve_for =
      std::atof(FlagValue(argc, argv, "--serve-for", "0"));

  cluster::InspectionWorker worker(&session, worker_config);
  const Status connected = worker.Connect();
  if (!connected.ok()) {
    std::fprintf(stderr, "worker failed to register: %s\n",
                 connected.ToString().c_str());
    return 1;
  }
  std::printf("WORKER READY %s\n", worker.id().c_str());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(serve_for));
  while (g_stop == 0 && worker.connected()) {
    if (serve_for > 0 && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  worker.Shutdown();
  const cluster::WorkerStats stats = worker.stats();
  std::printf(
      "worker %s: %zu assignments received, %zu completed, %zu failed\n"
      "clean shutdown\n",
      worker.id().c_str(), stats.assignments_received,
      stats.assignments_completed, stats.assignments_failed);
  return 0;
}
