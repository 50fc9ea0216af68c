// Kernel throughput bench: the raw block kernels of
// measures/independent.cc (pearson, diff_means, jaccard, mutual_info at 4
// and 16 bins) and measures/multivariate_mi.cc driven directly — no
// extraction, no engine — so the number is the numeric substrate itself:
// symbol rows scored per second per measure. The measures that calibrate
// from their first block (jaccard, both mutual_info cells and
// multivariate_mi) also record that block's seconds, phase_calibrate_s,
// which phase_process_s includes; every phase sums the timed repeats.
//
// One extraction cell, lstm_extract, runs the LSTM step kernel
// (nn/lstm.cc) as the engine does: every unit of the benchmark world's
// model (2 layers × 32 units, 96-symbol records) through
// LstmLmExtractor::ExtractBlock over 32-record blocks on one thread,
// reporting symbol rows extracted per second and phase_extract_s.
//
// The SIMD/scalar comparison is a *cross-build* one (the scalar fallback
// is compiled in with -DDEEPBASE_SIMD=OFF), so the bench runs twice:
//
//   build-scalar/bench/bench_kernels --raw-out scalar.txt
//   build/bench/bench_kernels --scalar-raw scalar.txt --out BENCH_kernels.json
//
// The second run embeds the scalar numbers and records the speedup per
// measure. scripts/bench.sh orchestrates exactly this. Host capabilities
// (float lanes, lda, hardware_concurrency) are recorded in the JSON so a
// 1-lane or low-core CI number is read in context.
//
// Flags: --smoke (tiny workload), --out PATH (JSON),
//        --raw-out PATH ("cell rows_per_s" lines for the scalar leg),
//        --scalar-raw PATH (embed a previous scalar leg + speedups)

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/extractors.h"
#include "measures/independent.h"
#include "measures/multivariate_mi.h"
#include "tensor/matrix.h"
#include "tensor/simd.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace deepbase {
namespace bench {
namespace {

std::string FlagValue(int argc, char** argv, const std::string& flag,
                      const std::string& fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  return fallback;
}

struct KernelCell {
  double records_per_s = 0;
  double process_s = 0;    // time inside ProcessBlock (the block kernel)
  double calibrate_s = 0;  // the first ProcessBlock, for calibrating cells
  double scores_s = 0;     // time inside Scores() (merge + score formulas)
  bool calibrates = false;
};

struct Workload {
  std::vector<Matrix> blocks;
  std::vector<std::vector<float>> hyps;
  size_t units = 0;
  size_t total_rows = 0;
};

Workload MakeWorkload(size_t num_blocks, size_t rows, size_t units) {
  Workload w;
  w.units = units;
  Rng rng(4243);
  for (size_t b = 0; b < num_blocks; ++b) {
    w.blocks.push_back(Matrix::RandomNormal(rows, units, &rng));
    std::vector<float> hyp(rows);
    for (float& v : hyp) v = rng.Bernoulli(0.4) ? 1.0f : 0.0f;
    w.hyps.push_back(std::move(hyp));
    w.total_rows += rows;
  }
  return w;
}

template <typename Factory>
KernelCell RunKernel(const Workload& w, const Factory& make, size_t repeats,
                     bool calibrates = false) {
  // Warmup pass: page in the blocks and the code paths. Every timed
  // repeat starts from a fresh measure, so it calibrates again.
  {
    auto m = make();
    for (size_t b = 0; b < w.blocks.size(); ++b) {
      m->ProcessBlock(w.blocks[b], w.hyps[b]);
    }
    (void)m->Scores();
  }
  KernelCell cell;
  cell.calibrates = calibrates;
  Stopwatch total;
  for (size_t rep = 0; rep < repeats; ++rep) {
    auto m = make();
    Stopwatch process;
    for (size_t b = 0; b < w.blocks.size(); ++b) {
      Stopwatch block;
      m->BeginBlock(b);
      m->ProcessBlock(w.blocks[b], w.hyps[b]);
      if (b == 0) cell.calibrate_s += block.Seconds();
    }
    cell.process_s += process.Seconds();
    Stopwatch scores;
    volatile float sink = m->Scores().unit_scores[0];
    (void)sink;
    cell.scores_s += scores.Seconds();
  }
  const double seconds = total.Seconds();
  cell.records_per_s =
      seconds > 0 ? static_cast<double>(w.total_rows * repeats) / seconds
                  : 0;
  return cell;
}

struct ExtractCell {
  double rows_per_s = 0;
  double extract_s = 0;  // time inside ExtractBlock, summed over repeats
  size_t blocks = 0;
};

constexpr size_t kExtractNs = 96, kExtractHidden = 32, kExtractLayers = 2,
                 kExtractBlockRecords = 32;

ExtractCell RunExtraction(size_t records, size_t repeats) {
  const SqlWorld world =
      BuildSqlWorld(/*level=*/3, records, kExtractNs, kExtractHidden,
                    kExtractLayers, /*epochs=*/0, /*seed=*/4243);
  const LstmLmExtractor extractor("lstm", world.model.get());
  std::vector<int> units(world.model->num_units());
  std::iota(units.begin(), units.end(), 0);
  std::vector<std::vector<size_t>> blocks;
  for (size_t begin = 0; begin < records; begin += kExtractBlockRecords) {
    blocks.emplace_back(std::min(kExtractBlockRecords, records - begin));
    std::iota(blocks.back().begin(), blocks.back().end(), begin);
  }
  for (const auto& block : blocks) {  // warmup
    (void)extractor.ExtractBlock(world.dataset, block, units);
  }
  ExtractCell cell;
  cell.blocks = blocks.size();
  size_t rows = 0;
  for (size_t rep = 0; rep < repeats; ++rep) {
    for (const auto& block : blocks) {
      Stopwatch watch;
      const Matrix out = extractor.ExtractBlock(world.dataset, block, units);
      cell.extract_s += watch.Seconds();
      rows += out.rows();
    }
  }
  cell.rows_per_s =
      cell.extract_s > 0 ? static_cast<double>(rows) / cell.extract_s : 0;
  return cell;
}

}  // namespace
}  // namespace bench
}  // namespace deepbase

int main(int argc, char** argv) {
  using namespace deepbase;
  using namespace deepbase::bench;

  const bool smoke = HasFlag(argc, argv, "--smoke");
  const std::string out_path = FlagValue(argc, argv, "--out", "");
  const std::string raw_out = FlagValue(argc, argv, "--raw-out", "");
  const std::string scalar_raw = FlagValue(argc, argv, "--scalar-raw", "");

  const size_t units = smoke ? 48 : 256;
  const size_t rows = smoke ? 256 : 1024;
  const size_t num_blocks = smoke ? 8 : 32;
  const size_t repeats = smoke ? 2 : 8;
  Workload w = MakeWorkload(num_blocks, rows, units);

  PrintHeader("kernels",
              "kernel throughput (rows scored or extracted per second)");
  std::printf("  simd=%s float_lanes=%zu lda=%zu units=%zu rows/block=%zu "
              "blocks=%zu repeats=%zu\n",
              DEEPBASE_SIMD_ENABLED ? "on" : "off", vec::kFloatLanes,
              vec::kLdaFloats, units, rows, num_blocks, repeats);

  std::map<std::string, KernelCell> cells;
  cells["pearson"] = RunKernel(
      w, [&] { return std::make_unique<PearsonMeasure>(units); }, repeats);
  cells["diff_means"] = RunKernel(
      w, [&] { return std::make_unique<DiffMeansMeasure>(units); }, repeats);
  cells["jaccard"] = RunKernel(
      w, [&] { return std::make_unique<JaccardMeasure>(units); }, repeats,
      /*calibrates=*/true);
  cells["mutual_info"] = RunKernel(
      w, [&] { return std::make_unique<MutualInfoMeasure>(units, 2); },
      repeats, /*calibrates=*/true);
  // Sixteen bins: fifteen ranks per unit in the calibration.
  cells["mutual_info_16bins"] = RunKernel(
      w, [&] { return std::make_unique<MutualInfoMeasure>(units, 2, 16); },
      repeats, /*calibrates=*/true);
  cells["multivariate_mi"] = RunKernel(
      w, [&] { return std::make_unique<MultivariateMiMeasure>(units, 2); },
      repeats, /*calibrates=*/true);

  const ExtractCell extract =
      RunExtraction(smoke ? 2 * kExtractBlockRecords : 8 * kExtractBlockRecords,
                    repeats);

  // Optional scalar baseline from a previous -DDEEPBASE_SIMD=OFF run.
  std::map<std::string, double> scalar;
  if (!scalar_raw.empty()) {
    std::ifstream in(scalar_raw);
    std::string name;
    double value = 0;
    while (in >> name >> value) scalar[name] = value;
    if (scalar.empty()) {
      std::fprintf(stderr, "no scalar baseline parsed from %s\n",
                   scalar_raw.c_str());
      return 1;
    }
  }

  for (const auto& [name, cell] : cells) {
    std::printf("  %-18s %12.0f rows/s  (process %.3fs, scores %.3fs",
                name.c_str(), cell.records_per_s, cell.process_s,
                cell.scores_s);
    if (cell.calibrates) std::printf(", calibrate %.4fs", cell.calibrate_s);
    std::printf(")");
    auto it = scalar.find(name);
    if (it != scalar.end() && it->second > 0) {
      std::printf("  %.2fx vs scalar", cell.records_per_s / it->second);
    }
    std::printf("\n");
  }

  const auto scalar_extract = scalar.find("lstm_extract");
  const double extract_speedup =
      scalar_extract != scalar.end() && scalar_extract->second > 0
          ? extract.rows_per_s / scalar_extract->second
          : 0;
  std::printf("  %-18s %12.0f rows/s  (extract %.3fs)", "lstm_extract",
              extract.rows_per_s, extract.extract_s);
  if (extract_speedup > 0) std::printf("  %.2fx vs scalar", extract_speedup);
  std::printf("\n");

  if (!raw_out.empty()) {
    std::ofstream out(raw_out);
    for (const auto& [name, cell] : cells) {
      out << name << " " << cell.records_per_s << "\n";
    }
    out << "lstm_extract " << extract.rows_per_s << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", raw_out.c_str());
      return 1;
    }
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "{\n"
        << "  \"bench\": \"kernels\",\n"
        << "  \"simd_enabled\": " << (DEEPBASE_SIMD_ENABLED ? 1 : 0)
        << ",\n"
        << "  \"float_lanes\": " << vec::kFloatLanes << ",\n"
        << "  \"lda_floats\": " << vec::kLdaFloats << ",\n"
        << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n"
        << "  \"units\": " << units << ",\n"
        << "  \"rows_per_block\": " << rows << ",\n"
        << "  \"blocks\": " << num_blocks << ",\n"
        << "  \"measures\": {\n";
    size_t i = 0;
    for (const auto& [name, cell] : cells) {
      out << "    \"" << name << "\": {\n"
          << "      \"records_per_s\": " << cell.records_per_s << ",\n"
          << "      \"phase_process_s\": " << cell.process_s << ",\n";
      if (cell.calibrates) {
        out << "      \"phase_calibrate_s\": " << cell.calibrate_s << ",\n";
      }
      out << "      \"phase_scores_s\": " << cell.scores_s;
      auto it = scalar.find(name);
      if (it != scalar.end() && it->second > 0) {
        out << ",\n      \"scalar_records_per_s\": " << it->second
            << ",\n      \"speedup_vs_scalar\": "
            << cell.records_per_s / it->second;
      }
      out << "\n    }" << (++i < cells.size() ? "," : "") << "\n";
    }
    out << "  },\n"
        << "  \"extraction\": {\n"
        << "    \"lstm_extract\": {\n"
        << "      \"hidden\": " << kExtractHidden << ",\n"
        << "      \"layers\": " << kExtractLayers << ",\n"
        << "      \"ns\": " << kExtractNs << ",\n"
        << "      \"block_records\": " << kExtractBlockRecords << ",\n"
        << "      \"blocks\": " << extract.blocks << ",\n"
        << "      \"rows_per_s\": " << extract.rows_per_s << ",\n"
        << "      \"phase_extract_s\": " << extract.extract_s;
    if (extract_speedup > 0) {
      out << ",\n      \"scalar_rows_per_s\": " << scalar_extract->second
          << ",\n      \"speedup_vs_scalar\": " << extract_speedup;
    }
    out << "\n    }\n  }\n}\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
