// The LSTM step kernel (nn/lstm.cc) against the forward it replaced
// (tests/oracle/lstm_step_reference.h: the per-record RunGates, Forward
// and ForwardIds loops), bit for bit.
//
// Covered at hidden sizes {1, 3, 16, 17, 32, 33, 64} and 1 to 3 layers:
//   - LstmLm::HiddenStatesInto over tiles of 1 to kLstmTileRecords + 1
//     records (the last tile ragged), all units and a subset out of
//     order, and LstmLmExtractor::ExtractBlock with and without a pool;
//   - every LstmCache matrix of Forward and ForwardIds at one record;
//   - HiddenGradients (the forward with caches, then the backward);
//   - Seq2Seq::EncoderStatesInto over the same tiles.
// Beyond those: the weights after one LstmLm::TrainEpoch, and a model
// whose candidate-gate weights and bias are zero, so every state is
// exactly 0 and the skip of a zero h_k (and x_k) runs on every k. There
// the other gates' recurrent and upper input weights are +inf, which only
// a skipped term keeps out of the states.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "core/extractors.h"
#include "nn/adam.h"
#include "nn/lstm.h"
#include "nn/lstm_lm.h"
#include "nn/seq2seq.h"
#include "tests/oracle/lstm_reference.h"
#include "tests/oracle/lstm_step_reference.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepbase {
namespace {

constexpr size_t kVocab = 11;
constexpr size_t kSteps = 20;
constexpr size_t kRecords = 7;
constexpr size_t kHiddenSizes[] = {1, 3, 16, 17, 32, 33, 64};

uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Every element of `got` has the bits of `want`, and the shapes agree.
void ExpectBitwiseEqual(const Matrix& got, const Matrix& want,
                        const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t r = 0; r < got.rows(); ++r) {
    for (size_t c = 0; c < got.cols(); ++c) {
      ASSERT_EQ(Bits(got(r, c)), Bits(want(r, c)))
          << what << " at (" << r << ", " << c << "): " << got(r, c)
          << " vs " << want(r, c);
    }
  }
}

// Rows [row0, row0 + T) of `block`, whose column j holds unit units[j],
// against per-layer T×h reference states (unit u is column u % h of
// layer u / h).
void ExpectUnitsEqual(const Matrix& block, size_t row0,
                      const std::vector<Matrix>& ref,
                      const std::vector<int>& units, const std::string& what) {
  const size_t h = ref.front().cols();
  for (size_t t = 0; t < ref.front().rows(); ++t) {
    for (size_t j = 0; j < units.size(); ++j) {
      const size_t u = static_cast<size_t>(units[j]);
      ASSERT_EQ(Bits(block(row0 + t, j)), Bits(ref[u / h](t, u % h)))
          << what << ": step " << t << ", unit " << u;
    }
  }
}

std::vector<std::vector<int>> RandomRecords(size_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> records(kRecords, std::vector<int>(kSteps));
  for (auto& ids : records) {
    for (int& id : ids) id = static_cast<int>(rng.UniformInt(vocab));
  }
  return records;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("deepbase_lstm_step_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

// A model round-tripped through its file with `edit` applied to its
// weights, in file order (each layer's Wx, Wh and b, then the head).
template <typename Model>
Model Edited(const Model& model,
             const std::function<void(std::vector<Matrix>*)>& edit) {
  const std::string path = TempPath("model");
  EXPECT_TRUE(model.Save(path).ok());
  oracle::ModelFile file = oracle::ReadModelFile(path);
  edit(&file.weights);
  oracle::WriteModelFile(path, file);
  Result<Model> loaded = Model::Load(path);
  std::filesystem::remove(path);
  EXPECT_TRUE(loaded.ok());
  return std::move(loaded).ValueOrDie();
}

template <typename Model>
std::vector<Matrix> Weights(const Model& model) {
  std::vector<Matrix> weights;
  Edited(model, [&](std::vector<Matrix>* w) { weights = *w; });
  return weights;
}

// The first `num_layers` layers of a weight list, as LstmLayers.
std::vector<LstmLayer> Layers(const std::vector<Matrix>& weights,
                              size_t num_layers) {
  std::vector<LstmLayer> layers;
  Rng rng(1);
  for (size_t l = 0; l < num_layers; ++l) {
    LstmLayer layer(weights[3 * l].rows(), weights[3 * l + 1].rows(), &rng);
    layer.wx = weights[3 * l];
    layer.wh = weights[3 * l + 1];
    layer.b = weights[3 * l + 2];
    layers.push_back(std::move(layer));
  }
  return layers;
}

std::vector<int> AllUnits(size_t n) {
  std::vector<int> units(n);
  std::iota(units.begin(), units.end(), 0);
  return units;
}

// Units of every layer, out of order, some twice.
std::vector<int> UnitSubset(size_t hidden, size_t num_layers) {
  const int n = static_cast<int>(hidden * num_layers);
  return {n - 1, 0, n / 2, static_cast<int>(hidden / 2), n - 1, n / 3};
}

// `fill(tile, out, row0)` over tiles of `tile_size` consecutive records
// (the last one ragged) must write every record's units as the reference.
template <typename FillFn>
void ExpectTilesMatch(const std::vector<std::vector<int>>& records,
                      const std::vector<LstmLayer>& ref_layers,
                      size_t tile_size, const std::vector<int>& units,
                      const FillFn& fill, const std::string& what) {
  std::vector<const std::vector<int>*> ids;
  for (const auto& r : records) ids.push_back(&r);
  Matrix out(records.size() * kSteps, units.size());
  for (size_t begin = 0; begin < ids.size(); begin += tile_size) {
    const size_t n = std::min(tile_size, ids.size() - begin);
    fill(RecordTile(ids).subspan(begin, n), &out, begin * kSteps);
  }
  for (size_t r = 0; r < records.size(); ++r) {
    ExpectUnitsEqual(out, r * kSteps,
                     oracle::ForwardStack(ref_layers, records[r], nullptr),
                     units,
                     what + ", tile " + std::to_string(tile_size) +
                         ", record " + std::to_string(r));
  }
}

class LstmStepKernelTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {
 protected:
  size_t hidden() const { return std::get<0>(GetParam()); }
  size_t num_layers() const { return std::get<1>(GetParam()); }
  std::string Name() const {
    return "hidden " + std::to_string(hidden()) + ", layers " +
           std::to_string(num_layers());
  }
};

TEST_P(LstmStepKernelTest, TilesOfRecordsMatchTheReferenceBitwise) {
  const LstmLm lm(kVocab, hidden(), num_layers(), 17 + hidden());
  const std::vector<LstmLayer> ref = Layers(Weights(lm), num_layers());
  const auto records = RandomRecords(kVocab, hidden());
  for (const std::vector<int>& units :
       {AllUnits(lm.num_units()), UnitSubset(hidden(), num_layers())}) {
    for (size_t tile = 1; tile <= kLstmTileRecords + 1; ++tile) {
      ExpectTilesMatch(
          records, ref, tile, units,
          [&](RecordTile t, Matrix* out, size_t row0) {
            lm.HiddenStatesInto(t, units, out, row0);
          },
          Name() + ", " + std::to_string(units.size()) + " units");
    }
  }
}

TEST_P(LstmStepKernelTest, ExtractBlockMatchesTheReferenceBitwise) {
  const LstmLm lm(kVocab, hidden(), num_layers(), 29 + hidden());
  const std::vector<LstmLayer> ref = Layers(Weights(lm), num_layers());
  Dataset ds(Vocab::FromChars("abcdefghij"), kSteps);
  for (const auto& ids : RandomRecords(kVocab, 5 + hidden())) {
    Record rec;
    rec.ids = ids;
    rec.tokens.assign(ids.size(), "x");
    ds.Add(std::move(rec));
  }
  const std::vector<size_t> record_idx = {4, 1, 6, 0, 3, 2, 5};
  const std::vector<int> units = UnitSubset(hidden(), num_layers());
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const Matrix block =
        LstmLmExtractor("lm", &lm, p).ExtractBlock(ds, record_idx, units);
    for (size_t i = 0; i < record_idx.size(); ++i) {
      ExpectUnitsEqual(
          block, i * kSteps,
          oracle::ForwardStack(ref, ds.record(record_idx[i]).ids, nullptr),
          units,
          Name() + (p ? ", pool" : ", no pool") + ", block record " +
              std::to_string(i));
    }
  }
}

TEST_P(LstmStepKernelTest, EveryCacheMatrixMatchesTheReferenceBitwise) {
  const LstmLm lm(kVocab, hidden(), num_layers(), 43 + hidden());
  const std::vector<LstmLayer> layers = Layers(Weights(lm), num_layers());
  for (const std::vector<int>& ids : RandomRecords(kVocab, 3 * hidden())) {
    Matrix input;
    for (size_t l = 0; l < layers.size(); ++l) {
      LstmCache got, want;
      const Matrix states = l == 0 ? layers[l].ForwardIds(ids, &got)
                                   : layers[l].Forward(input, &got);
      const Matrix ref = l == 0 ? oracle::ForwardIds(layers[l], ids, &want)
                                : oracle::Forward(layers[l], input, &want);
      const std::string what = Name() + ", layer " + std::to_string(l);
      ExpectBitwiseEqual(states, ref, what + " states");
      ExpectBitwiseEqual(got.inputs, want.inputs, what + " cache.inputs");
      ExpectBitwiseEqual(got.gates, want.gates, what + " cache.gates");
      ExpectBitwiseEqual(got.cells, want.cells, what + " cache.cells");
      ExpectBitwiseEqual(got.hiddens, want.hiddens, what + " cache.hiddens");
      ExpectBitwiseEqual(got.tanh_c, want.tanh_c, what + " cache.tanh_c");
      input = states;
    }
  }
}

// LstmLm::HiddenGradientsInto before the kernel: the reference forward
// with caches, then the library's (unchanged) head and backward.
Matrix ReferenceHiddenGradients(const std::vector<Matrix>& weights,
                                size_t num_layers,
                                const std::vector<int>& ids) {
  const std::vector<LstmLayer> layers = Layers(weights, num_layers);
  const Matrix& wo = weights[3 * num_layers];
  const Matrix& bo = weights[3 * num_layers + 1];
  const size_t T = ids.size();
  std::vector<LstmCache> caches;
  const Matrix top =
      std::move(oracle::ForwardStack(layers, ids, &caches).back());
  Matrix logits = MatMul(top, wo);
  logits.AddRowBroadcast(bo);
  Matrix dlogits = Softmax(logits);
  const size_t n_pred = T > 1 ? T - 1 : 1;
  const float scale = 1.0f / static_cast<float>(n_pred);
  for (size_t t = 0; t < T; ++t) {
    float* row = dlogits.row_data(t);
    if (t + 1 < T) {
      row[ids[t + 1]] -= 1.0f;
      for (size_t c = 0; c < wo.cols(); ++c) row[c] *= scale;
    } else {
      for (size_t c = 0; c < wo.cols(); ++c) row[c] = 0.0f;
    }
  }
  Matrix dh = MatMulTransB(dlogits, wo);
  const size_t h = layers.front().hidden_dim();
  Matrix out(T, num_layers * h);
  for (size_t l = num_layers; l-- > 0;) {
    Matrix dinputs;
    const Matrix grads = layers[l].HiddenGradients(
        caches[l], dh, l > 0 ? &dinputs : nullptr);
    for (size_t t = 0; t < T; ++t) {
      for (size_t j = 0; j < h; ++j) out(t, l * h + j) = grads(t, j);
    }
    if (l > 0) dh = std::move(dinputs);
  }
  return out;
}

TEST_P(LstmStepKernelTest, HiddenGradientsMatchTheReferenceBitwise) {
  const LstmLm lm(kVocab, hidden(), num_layers(), 59 + hidden());
  const std::vector<Matrix> weights = Weights(lm);
  for (const std::vector<int>& ids : RandomRecords(kVocab, 7 * hidden())) {
    ExpectBitwiseEqual(lm.HiddenGradients(ids),
                       ReferenceHiddenGradients(weights, num_layers(), ids),
                       Name() + " hidden gradients");
  }
}

INSTANTIATE_TEST_SUITE_P(
    HiddenSizesAndLayers, LstmStepKernelTest,
    ::testing::Combine(::testing::ValuesIn(kHiddenSizes),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{3})));

TEST(LstmStepKernelEncoderTest, EncoderTilesMatchTheReferenceBitwise) {
  for (size_t hidden : kHiddenSizes) {
    const Seq2Seq s2s(kVocab, 7, hidden, 71 + hidden);
    // The first six weights are the encoder's two layers.
    const std::vector<LstmLayer> ref = Layers(Weights(s2s), 2);
    const auto records = RandomRecords(kVocab, 11 * hidden);
    for (const std::vector<int>& units :
         {AllUnits(s2s.num_encoder_units()), UnitSubset(hidden, 2)}) {
      for (size_t tile = 1; tile <= kLstmTileRecords + 1; ++tile) {
        ExpectTilesMatch(
            records, ref, tile, units,
            [&](RecordTile t, Matrix* out, size_t row0) {
              s2s.EncoderStatesInto(t, units, out, row0);
            },
            "encoder, hidden " + std::to_string(hidden));
      }
    }
  }
}

// LstmLm::TrainEpoch before the kernel, with no specialization loss: the
// reference forward, then the library's (unchanged) head, backward and
// Adam.
class ReferenceTrainer {
 public:
  ReferenceTrainer(const std::vector<Matrix>& weights, size_t num_layers)
      : layers_(Layers(weights, num_layers)),
        wo_(weights[3 * num_layers]),
        bo_(weights[3 * num_layers + 1]),
        dwo_(wo_.rows(), wo_.cols()),
        dbo_(1, bo_.cols()) {}

  void TrainEpoch(const Dataset& dataset, float lr, uint64_t shuffle_seed,
                  size_t batch_records) {
    adam_.set_lr(lr);
    std::vector<size_t> order(dataset.num_records());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng rng(shuffle_seed);
    rng.Shuffle(&order);
    std::vector<Matrix*> params;
    std::vector<const Matrix*> grads;
    for (auto& layer : layers_) {
      for (Matrix* p : layer.Params()) params.push_back(p);
      for (const Matrix* g : layer.Grads()) grads.push_back(g);
    }
    params.push_back(&wo_);
    params.push_back(&bo_);
    grads.push_back(&dwo_);
    grads.push_back(&dbo_);
    auto zero_grads = [&] {
      for (auto& layer : layers_) layer.ZeroGrads();
      dwo_.Fill(0);
      dbo_.Fill(0);
    };
    zero_grads();
    size_t in_batch = 0;
    for (size_t idx : order) {
      AccumulateRecord(dataset.record(idx));
      if (++in_batch == batch_records) {
        adam_.Step(params, grads);
        zero_grads();
        in_batch = 0;
      }
    }
    if (in_batch > 0) adam_.Step(params, grads);
  }

  // Each layer's Wx, Wh and b, then the head: the model file's order.
  std::vector<Matrix> Weights() const {
    std::vector<Matrix> out;
    for (const LstmLayer& layer : layers_) {
      out.insert(out.end(), {layer.wx, layer.wh, layer.b});
    }
    out.insert(out.end(), {wo_, bo_});
    return out;
  }

 private:
  void AccumulateRecord(const Record& rec) {
    const std::vector<int>& ids = rec.ids;
    const size_t T = ids.size();
    if (T < 2) return;
    std::vector<LstmCache> caches;
    const std::vector<Matrix> hiddens =
        oracle::ForwardStack(layers_, ids, &caches);
    const Matrix& top = hiddens.back();
    Matrix logits = MatMul(top, wo_);
    logits.AddRowBroadcast(bo_);
    Matrix probs = Softmax(logits);
    const size_t n_pred = T - 1;
    const size_t vocab = wo_.cols();
    const float task_scale = 1.0f / static_cast<float>(n_pred);
    Matrix dlogits = probs;
    for (size_t t = 0; t < T; ++t) {
      float* row = dlogits.row_data(t);
      if (t + 1 < T) {
        row[ids[t + 1]] -= 1.0f;
        for (size_t c = 0; c < vocab; ++c) row[c] *= task_scale;
      } else {
        for (size_t c = 0; c < vocab; ++c) row[c] = 0.0f;
      }
    }
    dwo_ += MatMulTransA(top, dlogits);
    for (size_t t = 0; t < T; ++t) {
      float* dbrow = dbo_.row_data(0);
      const float* dlr = dlogits.row_data(t);
      for (size_t c = 0; c < vocab; ++c) dbrow[c] += dlr[c];
    }
    Matrix dh = MatMulTransB(dlogits, wo_);
    for (size_t l = layers_.size(); l-- > 0;) {
      if (l == 0) {
        layers_[0].BackwardIds(ids, caches[0], dh);
      } else {
        Matrix dinputs;
        layers_[l].Backward(caches[l], dh, &dinputs);
        dh = std::move(dinputs);
      }
    }
  }

  std::vector<LstmLayer> layers_;
  Matrix wo_, bo_, dwo_, dbo_;
  Adam adam_;
};

TEST(LstmStepKernelTrainingTest, WeightsAfterOneEpochMatchTheReference) {
  Dataset ds(Vocab::FromChars("abcdefghij"), kSteps);
  Rng rng(3);
  for (size_t r = 0; r < 12; ++r) {
    std::string text;
    for (size_t t = 0; t < kSteps - (r % 4); ++t) {
      text += static_cast<char>('a' + rng.UniformInt(10));
    }
    ds.AddText(text);
  }
  for (size_t hidden : {size_t{3}, size_t{17}, size_t{32}}) {
    LstmLm lm(ds.vocab().size(), hidden, 2, 83 + hidden);
    ReferenceTrainer ref(Weights(lm), 2);
    lm.TrainEpoch(ds, 0.01f, 5, 4);
    ref.TrainEpoch(ds, 0.01f, 5, 4);
    const std::vector<Matrix> got = Weights(lm), want = ref.Weights();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectBitwiseEqual(got[i], want[i],
                         "hidden " + std::to_string(hidden) + ", weight " +
                             std::to_string(i));
    }
  }
}

TEST(LstmStepKernelSkipTest, ZeroCandidateGateSkipsEveryTermBitwise) {
  const float inf = std::numeric_limits<float>::infinity();
  for (size_t hidden : {size_t{3}, size_t{17}, size_t{32}}) {
    constexpr size_t kLayers = 3;
    const size_t h = hidden;
    const LstmLm lm = Edited(
        LstmLm(kVocab, h, kLayers, 97 + h), [&](std::vector<Matrix>* w) {
          for (size_t l = 0; l < kLayers; ++l) {
            Matrix& wx = (*w)[3 * l];
            Matrix& wh = (*w)[3 * l + 1];
            Matrix& b = (*w)[3 * l + 2];
            for (size_t col = 0; col < 4 * h; ++col) {
              const bool candidate = col >= 3 * h;
              for (size_t k = 0; k < wx.rows(); ++k) {
                if (candidate) wx(k, col) = 0.0f;
                if (!candidate && l > 0) wx(k, col) = inf;
              }
              for (size_t k = 0; k < h; ++k) wh(k, col) = candidate ? 0 : inf;
              if (candidate) b(0, col) = 0.0f;
            }
          }
        });
    const std::vector<LstmLayer> ref = Layers(Weights(lm), kLayers);
    const auto records = RandomRecords(kVocab, 13 * h);
    // Every state is +0, so each h_k and x_k term is skipped.
    for (const auto& ids : records) {
      for (const Matrix& states : oracle::ForwardStack(ref, ids, nullptr)) {
        for (size_t t = 0; t < states.rows(); ++t) {
          for (size_t j = 0; j < h; ++j) ASSERT_EQ(Bits(states(t, j)), 0u);
        }
      }
    }
    const std::vector<int> units = AllUnits(lm.num_units());
    for (size_t tile = 1; tile <= kLstmTileRecords + 1; ++tile) {
      ExpectTilesMatch(
          records, ref, tile, units,
          [&](RecordTile t, Matrix* out, size_t row0) {
            lm.HiddenStatesInto(t, units, out, row0);
          },
          "zero candidate gate, hidden " + std::to_string(h));
    }
    for (size_t l = 0; l < kLayers; ++l) {
      LstmCache got, want;
      const std::vector<int>& ids = records.front();
      const Matrix input(kSteps, h);  // the lower layer's states: all 0
      if (l == 0) {
        ref[l].ForwardIds(ids, &got);
        oracle::ForwardIds(ref[l], ids, &want);
      } else {
        ref[l].Forward(input, &got);
        oracle::Forward(ref[l], input, &want);
      }
      ExpectBitwiseEqual(got.gates, want.gates, "zero candidate gate gates");
      ExpectBitwiseEqual(got.hiddens, want.hiddens,
                         "zero candidate gate hiddens");
    }
  }
}

}  // namespace
}  // namespace deepbase
