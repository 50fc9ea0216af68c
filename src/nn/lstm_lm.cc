#include "nn/lstm_lm.h"

#include <cmath>
#include <numeric>

#include "util/codec.h"
#include "util/logging.h"
#include "util/rng.h"

namespace deepbase {

LstmLm::LstmLm(size_t vocab_size, size_t hidden_dim, size_t num_layers,
               uint64_t seed)
    : vocab_size_(vocab_size), hidden_dim_(hidden_dim) {
  Rng rng(seed);
  DB_DCHECK(num_layers >= 1);
  layers_.reserve(num_layers);
  layers_.emplace_back(vocab_size, hidden_dim, &rng);
  for (size_t l = 1; l < num_layers; ++l) {
    layers_.emplace_back(hidden_dim, hidden_dim, &rng);
  }
  wo_ = Matrix::Glorot(hidden_dim, vocab_size, &rng);
  bo_ = Matrix(1, vocab_size);
  dwo_ = Matrix(hidden_dim, vocab_size);
  dbo_ = Matrix(1, vocab_size);
}

void LstmLm::SetSpecialization(
    std::vector<size_t> units, float weight,
    std::function<std::vector<float>(const Record&)> target_fn) {
  spec_units_ = std::move(units);
  spec_weight_ = weight;
  spec_target_fn_ = std::move(target_fn);
}

std::vector<Matrix> LstmLm::ForwardAll(const std::vector<int>& ids,
                                       std::vector<LstmCache>* caches) const {
  if (caches) caches->resize(layers_.size());
  std::vector<Matrix> hiddens;
  hiddens.reserve(layers_.size());
  hiddens.push_back(
      layers_[0].ForwardIds(ids, caches ? &(*caches)[0] : nullptr));
  for (size_t l = 1; l < layers_.size(); ++l) {
    hiddens.push_back(layers_[l].Forward(
        hiddens.back(), caches ? &(*caches)[l] : nullptr));
  }
  return hiddens;
}

std::pair<float, size_t> LstmLm::AccumulateRecord(const Record& rec) {
  const std::vector<int>& ids = rec.ids;
  const size_t T = ids.size();
  if (T < 2) return {0.0f, 0};

  std::vector<LstmCache> caches;
  const std::vector<Matrix> hiddens = ForwardAll(ids, &caches);
  const Matrix& top = hiddens.back();

  Matrix logits = MatMul(top, wo_);
  logits.AddRowBroadcast(bo_);
  Matrix probs = Softmax(logits);

  // Cross-entropy on next-symbol targets; position T-1 has no target.
  const size_t n_pred = T - 1;
  const float task_scale =
      (spec_weight_ > 0 ? (1.0f - spec_weight_) : 1.0f) /
      static_cast<float>(n_pred);
  float loss = 0.0f;
  Matrix dlogits = probs;  // will become softmax - onehot, scaled
  for (size_t t = 0; t < T; ++t) {
    float* row = dlogits.row_data(t);
    if (t + 1 < T) {
      const int target = ids[t + 1];
      loss += -std::log(std::max(probs(t, target), 1e-12f));
      row[target] -= 1.0f;
      for (size_t c = 0; c < vocab_size_; ++c) row[c] *= task_scale;
    } else {
      for (size_t c = 0; c < vocab_size_; ++c) row[c] = 0.0f;
    }
  }

  dwo_ += MatMulTransA(top, dlogits);
  for (size_t t = 0; t < T; ++t) {
    float* dbrow = dbo_.row_data(0);
    const float* dlr = dlogits.row_data(t);
    for (size_t c = 0; c < vocab_size_; ++c) dbrow[c] += dlr[c];
  }
  Matrix dtop = MatMulTransB(dlogits, wo_);

  // Auxiliary specialization loss on layer-0 hidden states (Appendix C).
  Matrix dh0_extra;
  if (spec_weight_ > 0 && !spec_units_.empty() && spec_target_fn_) {
    std::vector<float> target = spec_target_fn_(rec);
    target.resize(T, 0.0f);
    dh0_extra = Matrix(T, hidden_dim_);
    const Matrix& h0 = hiddens[0];
    const float scale = spec_weight_ * 2.0f /
                        static_cast<float>(T * spec_units_.size());
    for (size_t t = 0; t < T; ++t) {
      for (size_t u : spec_units_) {
        dh0_extra(t, u) = scale * (h0(t, u) - target[t]);
      }
    }
  }

  // BPTT down the layer stack.
  Matrix dh = std::move(dtop);
  for (size_t l = layers_.size(); l-- > 0;) {
    if (l == 0) {
      if (!dh0_extra.empty()) dh += dh0_extra;
      layers_[0].BackwardIds(ids, caches[0], dh);
    } else {
      Matrix dinputs;
      layers_[l].Backward(caches[l], dh, &dinputs);
      dh = std::move(dinputs);
    }
  }
  return {loss, n_pred};
}

float LstmLm::TrainEpoch(const Dataset& dataset, float lr,
                         uint64_t shuffle_seed, size_t batch_records) {
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

  double total_loss = 0;
  size_t total_pred = 0;
  zero_grads();
  size_t in_batch = 0;
  for (size_t idx : order) {
    auto [loss, n] = AccumulateRecord(dataset.record(idx));
    total_loss += loss;
    total_pred += n;
    if (++in_batch == batch_records) {
      adam_.Step(params, grads);
      zero_grads();
      in_batch = 0;
    }
  }
  if (in_batch > 0) adam_.Step(params, grads);
  return total_pred ? static_cast<float>(total_loss / total_pred) : 0.0f;
}

double LstmLm::Accuracy(const Dataset& dataset) const {
  size_t correct = 0, total = 0;
  for (const Record& rec : dataset.records()) {
    if (rec.ids.size() < 2) continue;
    Matrix logits = Logits(rec.ids);
    std::vector<size_t> pred = logits.ArgmaxRows();
    for (size_t t = 0; t + 1 < rec.ids.size(); ++t) {
      correct += (pred[t] == static_cast<size_t>(rec.ids[t + 1]));
      ++total;
    }
  }
  return total ? static_cast<double>(correct) / total : 0.0;
}

double LstmLm::AccuracyWithAblation(
    const Dataset& dataset, const std::vector<size_t>& ablated_units) const {
  // Output ablation: zero the ablated units' outgoing weights (into the
  // next layer's Wx, and into the output head for the top layer) on a copy
  // of the model, then score normally.
  LstmLm ablated = *this;
  for (size_t unit : ablated_units) {
    const size_t layer = unit / hidden_dim_;
    const size_t col = unit % hidden_dim_;
    if (layer >= layers_.size()) continue;
    if (layer + 1 < layers_.size()) {
      Matrix& next_wx = ablated.layers_[layer + 1].wx;
      for (size_t j = 0; j < next_wx.cols(); ++j) next_wx(col, j) = 0.0f;
    }
    if (layer + 1 == layers_.size()) {
      for (size_t j = 0; j < ablated.wo_.cols(); ++j) {
        ablated.wo_(col, j) = 0.0f;
      }
    }
  }
  return ablated.Accuracy(dataset);
}

namespace {
constexpr uint32_t kLstmLmMagic = 0x44424C4D;  // "DBLM"
}  // namespace

Status LstmLm::Save(const std::string& path) const {
  codec::Writer out;
  out.U32(kLstmLmMagic);
  out.U64(vocab_size_);
  out.U64(hidden_dim_);
  out.U64(layers_.size());
  for (const LstmLayer& layer : layers_) {
    WriteMatrix(layer.wx, &out);
    WriteMatrix(layer.wh, &out);
    WriteMatrix(layer.b, &out);
  }
  WriteMatrix(wo_, &out);
  WriteMatrix(bo_, &out);
  return codec::WriteFile(path, out.bytes());
}

Result<LstmLm> LstmLm::Load(const std::string& path) {
  DB_ASSIGN_OR_RETURN(codec::MappedFile file, codec::MapFile(path));
  codec::Reader in(file.bytes);
  const uint32_t magic = in.U32();
  const uint64_t vocab = in.U64();
  const uint64_t hidden = in.U64();
  const uint64_t layers = in.U64();
  if (!in.ok() || magic != kLstmLmMagic) {
    return Status::Invalid("not a DeepBase LstmLm file: " + path);
  }
  if (vocab == 0 || hidden == 0 || hidden > (1u << 16) || layers == 0 ||
      layers > 64) {
    return Status::Invalid("implausible model header in " + path);
  }
  // Save's order: each layer's wx, wh and b, then wo and bo.
  const size_t g = 4 * hidden;
  std::vector<std::pair<size_t, size_t>> shapes;
  for (uint64_t l = 0; l < layers; ++l) {
    shapes.insert(shapes.end(),
                  {{l == 0 ? vocab : hidden, g}, {hidden, g}, {1, g}});
  }
  shapes.insert(shapes.end(), {{hidden, vocab}, {1, vocab}});
  DB_ASSIGN_OR_RETURN(std::vector<Matrix> weights, ReadWeights(&in, shapes));
  LstmLm model(vocab, hidden, layers, /*seed=*/0);
  auto w = weights.begin();
  for (LstmLayer& layer : model.layers_) {
    for (Matrix* param : layer.Params()) *param = std::move(*w++);
  }
  model.wo_ = std::move(*w++);
  model.bo_ = std::move(*w);
  // Note: specialization callbacks are runtime-only state and not saved.
  return model;
}

namespace {
std::vector<int> AllUnits(size_t n) {
  std::vector<int> units(n);
  std::iota(units.begin(), units.end(), 0);
  return units;
}
}  // namespace

Matrix LstmLm::HiddenStates(const std::vector<int>& ids) const {
  Matrix out(ids.size(), num_units());
  const std::vector<int>* tile[] = {&ids};
  HiddenStatesInto(tile, AllUnits(num_units()), &out, 0);
  return out;
}

void LstmLm::HiddenStatesInto(RecordTile tile, const std::vector<int>& units,
                              Matrix* out, size_t row0) const {
  std::vector<Matrix> states;
  states.reserve(layers_.size());
  states.push_back(layers_[0].ForwardIdsTile(tile));
  for (size_t l = 1; l < layers_.size(); ++l) {
    states.push_back(layers_[l].ForwardTile(states.back(), tile.size()));
  }
  WriteUnits(states, units, out, row0);
}

Matrix LstmLm::HiddenGradients(const std::vector<int>& ids) const {
  Matrix out(ids.size(), num_units());
  HiddenGradientsInto(ids, AllUnits(num_units()), &out, 0);
  return out;
}

void LstmLm::HiddenGradientsInto(const std::vector<int>& ids,
                                 const std::vector<int>& units, Matrix* out,
                                 size_t row0) const {
  const size_t T = ids.size();
  std::vector<LstmCache> caches;
  const Matrix top = std::move(ForwardAll(ids, &caches).back());

  Matrix logits = MatMul(top, wo_);
  logits.AddRowBroadcast(bo_);
  Matrix dlogits = Softmax(logits);  // becomes softmax - onehot, scaled
  const size_t n_pred = T > 1 ? T - 1 : 1;
  const float scale = 1.0f / static_cast<float>(n_pred);
  for (size_t t = 0; t < T; ++t) {
    float* row = dlogits.row_data(t);
    if (t + 1 < T) {
      row[ids[t + 1]] -= 1.0f;
      for (size_t c = 0; c < vocab_size_; ++c) row[c] *= scale;
    } else {
      for (size_t c = 0; c < vocab_size_; ++c) row[c] = 0.0f;
    }
  }
  Matrix dh = MatMulTransB(dlogits, wo_);

  std::vector<Matrix> grads(layers_.size());
  for (size_t l = layers_.size(); l-- > 0;) {
    Matrix dinputs;
    grads[l] = layers_[l].HiddenGradients(caches[l], dh,
                                          l > 0 ? &dinputs : nullptr);
    if (l > 0) dh = std::move(dinputs);
  }
  WriteUnits(grads, units, out, row0);
}

Matrix LstmLm::Logits(const std::vector<int>& ids) const {
  const Matrix top = std::move(ForwardAll(ids, nullptr).back());
  Matrix logits = MatMul(top, wo_);
  logits.AddRowBroadcast(bo_);
  return logits;
}

}  // namespace deepbase
