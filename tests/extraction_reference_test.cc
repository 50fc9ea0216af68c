// Unit extraction against a naive reference forward
// (tests/oracle/lstm_reference.h: plain loops in double precision).
//
// Three paths are pinned, each at hidden sizes 32 and 64 with 2 layers and
// 96-symbol records: LstmLm::HiddenStates, Seq2Seq::EncoderStates, and
// LstmLmExtractor::ExtractBlock over a unit subset on a thread pool. At
// the default initialization every state is within 1e-6 of the reference.
//
// With every weight scaled by 3 the gates saturate, the recurrence turns
// chaotic, and float rounding compounds through 96 steps: the error grows
// by three orders of magnitude and depends on every rounding, not on the
// gate step's accuracy alone (the std::exp / std::tanh gate step the
// library used before read 2.5x apart between its SIMD and scalar builds,
// which differ only in FMA contraction). There each path must stay within
// SaturatedBound: the largest error that earlier gate step showed on
// these records, over both kernel builds and all three paths. The gate
// functions themselves are compared with std::exp and std::tanh in
// kernels_equivalence_test.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "core/extractors.h"
#include "nn/lstm_lm.h"
#include "nn/seq2seq.h"
#include "tests/oracle/lstm_reference.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepbase {
namespace {

constexpr size_t kNs = 96;
constexpr size_t kLayers = 2;
constexpr uint64_t kSeed = 41;

struct Errors {
  double hidden_states = 0;
  double extract_block = 0;
  double encoder_states = 0;
};

// The largest error of the std::exp / std::tanh gate step with weights
// scaled by 3, per hidden size, over the SIMD and scalar builds and the
// three paths (hidden 32: encoder states, scalar build; hidden 64:
// encoder states, SIMD build).
double SaturatedBound(size_t hidden) {
  return hidden == 32 ? 1.35e-4 : 1.6e-4;
}

Dataset RandomDataset(size_t records, uint64_t seed) {
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz ,.()";
  Dataset ds(Vocab::FromChars(alphabet), kNs);
  Rng rng(seed);
  for (size_t r = 0; r < records; ++r) {
    // Some records are shorter than ns, so padding symbols are covered.
    const size_t len = kNs - (r % 3) * 17;
    std::string text;
    for (size_t t = 0; t < len; ++t) {
      text += alphabet[rng.UniformInt(alphabet.size())];
    }
    ds.AddText(text);
  }
  return ds;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("deepbase_extref_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

// Round-trips `model` through its file with every weight scaled by
// `scale`; returns the weights the reloaded model runs with.
template <typename Model>
Model Rescaled(const Model& model, float scale,
               std::vector<Matrix>* weights) {
  const std::string path = TempPath("model");
  EXPECT_TRUE(model.Save(path).ok());
  oracle::ModelFile file = oracle::ReadModelFile(path);
  for (Matrix& w : file.weights) w *= scale;
  oracle::WriteModelFile(path, file);
  Result<Model> loaded = Model::Load(path);
  std::filesystem::remove(path);
  EXPECT_TRUE(loaded.ok());
  *weights = file.weights;
  return std::move(loaded).ValueOrDie();
}

// Max |got(t, col) - ref| where column col of `got` holds unit units[col]
// (unit u is column u % h of reference layer u / h), rows from row0.
double MaxError(const Matrix& got, size_t row0,
                const std::vector<oracle::Rows>& ref,
                const std::vector<int>& units, size_t hidden) {
  double err = 0;
  for (size_t t = 0; t < kNs; ++t) {
    for (size_t c = 0; c < units.size(); ++c) {
      const size_t u = static_cast<size_t>(units[c]);
      const double diff =
          std::fabs(got(row0 + t, c) - ref[u / hidden][t][u % hidden]);
      err = std::max(err, std::isnan(diff) ? INFINITY : diff);
    }
  }
  return err;
}

Errors ReferenceErrors(size_t hidden, float scale) {
  const Dataset ds = RandomDataset(6, kSeed + hidden);
  const size_t vocab = ds.vocab().size();
  Errors errors;

  std::vector<Matrix> lm_weights;
  const LstmLm lm =
      Rescaled(LstmLm(vocab, hidden, kLayers, kSeed), scale, &lm_weights);
  std::vector<int> all_units(lm.num_units());
  std::iota(all_units.begin(), all_units.end(), 0);
  std::vector<oracle::Rows> refs_per_record[6];
  for (size_t r = 0; r < ds.num_records(); ++r) {
    refs_per_record[r] = oracle::StackForward(lm_weights, kLayers,
                                              ds.record(r).ids, vocab);
    errors.hidden_states = std::max(
        errors.hidden_states,
        MaxError(lm.HiddenStates(ds.record(r).ids), 0, refs_per_record[r],
                 all_units, hidden));
  }

  // A unit subset out of order across both layers, records out of order,
  // on a pool: each record's rows land at its position in the block.
  ThreadPool pool(3);
  const LstmLmExtractor extractor("lm", &lm, &pool);
  const std::vector<int> units = {static_cast<int>(2 * hidden - 1), 0,
                                  static_cast<int>(hidden), 5,
                                  static_cast<int>(hidden + 7), 3};
  const std::vector<size_t> record_idx = {4, 1, 5, 0, 3, 2};
  const Matrix block = extractor.ExtractBlock(ds, record_idx, units);
  EXPECT_EQ(block.rows(), record_idx.size() * kNs);
  EXPECT_EQ(block.cols(), units.size());
  for (size_t i = 0; i < record_idx.size(); ++i) {
    errors.extract_block = std::max(
        errors.extract_block, MaxError(block, i * kNs,
                                       refs_per_record[record_idx[i]],
                                       units, hidden));
  }

  std::vector<Matrix> s2s_weights;
  const Seq2Seq s2s = Rescaled(Seq2Seq(vocab, 11, hidden, kSeed + 1), scale,
                               &s2s_weights);
  std::vector<int> encoder_units(s2s.num_encoder_units());
  std::iota(encoder_units.begin(), encoder_units.end(), 0);
  for (size_t r = 0; r < ds.num_records(); ++r) {
    // The first six weights are the two encoder layers.
    const std::vector<oracle::Rows> ref =
        oracle::StackForward(s2s_weights, 2, ds.record(r).ids, vocab);
    errors.encoder_states = std::max(
        errors.encoder_states,
        MaxError(s2s.EncoderStates(ds.record(r).ids), 0, ref, encoder_units,
                 hidden));
  }
  std::printf("hidden %zu scale %.0f: max error hidden_states %.3g "
              "extract_block %.3g encoder_states %.3g\n",
              hidden, scale, errors.hidden_states, errors.extract_block,
              errors.encoder_states);
  return errors;
}

class ExtractionReferenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ExtractionReferenceTest, DefaultInitIsWithin1e6OfTheReference) {
  const Errors errors = ReferenceErrors(GetParam(), 1.0f);
  EXPECT_LE(errors.hidden_states, 1e-6);
  EXPECT_LE(errors.extract_block, 1e-6);
  EXPECT_LE(errors.encoder_states, 1e-6);
}

TEST_P(ExtractionReferenceTest, SaturatedGatesStayWithinTheLibmGateError) {
  const Errors errors = ReferenceErrors(GetParam(), 3.0f);
  const double bound = SaturatedBound(GetParam());
  EXPECT_LE(errors.hidden_states, bound);
  EXPECT_LE(errors.extract_block, bound);
  EXPECT_LE(errors.encoder_states, bound);
}

INSTANTIATE_TEST_SUITE_P(HiddenSizes, ExtractionReferenceTest,
                         ::testing::Values(size_t{32}, size_t{64}));

}  // namespace
}  // namespace deepbase
