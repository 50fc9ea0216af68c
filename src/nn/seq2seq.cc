#include "nn/seq2seq.h"

#include <cmath>
#include <numeric>

#include "util/codec.h"
#include "util/logging.h"

namespace deepbase {

namespace {
// Decoder input at step t is the previous target token (teacher forcing);
// step 0 reads the padding id as BOS.
std::vector<int> ShiftRight(const std::vector<int>& tgt) {
  std::vector<int> out(tgt.size(), Vocab::kPadId);
  for (size_t t = 1; t < tgt.size(); ++t) out[t] = tgt[t - 1];
  return out;
}
}  // namespace

Seq2Seq::Seq2Seq(size_t src_vocab, size_t tgt_vocab, size_t hidden_dim,
                 uint64_t seed)
    : src_vocab_(src_vocab),
      tgt_vocab_(tgt_vocab),
      hidden_dim_(hidden_dim),
      init_rng_(seed),
      enc0_(src_vocab, hidden_dim, &init_rng_),
      enc1_(hidden_dim, hidden_dim, &init_rng_),
      dec_(tgt_vocab, hidden_dim, &init_rng_) {
  wo_ = Matrix::Glorot(2 * hidden_dim, tgt_vocab, &init_rng_);
  bo_ = Matrix(1, tgt_vocab);
  dwo_ = Matrix(2 * hidden_dim, tgt_vocab);
  dbo_ = Matrix(1, tgt_vocab);
}

void Seq2Seq::Forward(const std::vector<int>& src_ids,
                      const std::vector<int>& tgt_ids,
                      ForwardState* fs) const {
  Matrix enc_h0 = enc0_.ForwardIds(src_ids, &fs->enc0);
  fs->enc_top = enc1_.Forward(enc_h0, &fs->enc1);

  fs->dec_inputs = ShiftRight(tgt_ids);
  fs->dec_h = dec_.ForwardIds(fs->dec_inputs, &fs->dec);

  const size_t T_tgt = tgt_ids.size();
  const size_t T_src = src_ids.size();
  const size_t h = hidden_dim_;

  // Dot-product attention: scores(t, j) = dec_h(t)·enc_top(j).
  Matrix scores = MatMulTransB(fs->dec_h, fs->enc_top);  // T_tgt × T_src
  fs->attn = Softmax(scores);
  fs->contexts = MatMul(fs->attn, fs->enc_top);  // T_tgt × h

  Matrix concat(T_tgt, 2 * h);
  for (size_t t = 0; t < T_tgt; ++t) {
    float* row = concat.row_data(t);
    const float* d = fs->dec_h.row_data(t);
    const float* c = fs->contexts.row_data(t);
    for (size_t j = 0; j < h; ++j) row[j] = d[j];
    for (size_t j = 0; j < h; ++j) row[h + j] = c[j];
  }
  Matrix logits = MatMul(concat, wo_);
  logits.AddRowBroadcast(bo_);
  fs->probs = Softmax(logits);
  (void)T_src;
}

std::pair<float, size_t> Seq2Seq::AccumulateRecord(
    const std::vector<int>& src_ids, const std::vector<int>& tgt_ids) {
  ForwardState fs;
  Forward(src_ids, tgt_ids, &fs);

  const size_t T_tgt = tgt_ids.size();
  const size_t T_src = src_ids.size();
  const size_t h = hidden_dim_;
  const float inv_n = 1.0f / static_cast<float>(T_tgt);

  float loss = 0.0f;
  Matrix dlogits = fs.probs;
  for (size_t t = 0; t < T_tgt; ++t) {
    const int target = tgt_ids[t];
    loss += -std::log(std::max(fs.probs(t, target), 1e-12f));
    float* row = dlogits.row_data(t);
    row[target] -= 1.0f;
    for (size_t c = 0; c < tgt_vocab_; ++c) row[c] *= inv_n;
  }

  // Output layer backward.
  Matrix concat(T_tgt, 2 * h);
  for (size_t t = 0; t < T_tgt; ++t) {
    float* row = concat.row_data(t);
    const float* d = fs.dec_h.row_data(t);
    const float* c = fs.contexts.row_data(t);
    for (size_t j = 0; j < h; ++j) row[j] = d[j];
    for (size_t j = 0; j < h; ++j) row[h + j] = c[j];
  }
  dwo_ += MatMulTransA(concat, dlogits);
  for (size_t t = 0; t < T_tgt; ++t) {
    float* dbrow = dbo_.row_data(0);
    const float* dlr = dlogits.row_data(t);
    for (size_t c = 0; c < tgt_vocab_; ++c) dbrow[c] += dlr[c];
  }
  Matrix dconcat = MatMulTransB(dlogits, wo_);  // T_tgt × 2h

  Matrix ddec(T_tgt, h);
  Matrix dctx(T_tgt, h);
  for (size_t t = 0; t < T_tgt; ++t) {
    const float* row = dconcat.row_data(t);
    for (size_t j = 0; j < h; ++j) ddec(t, j) = row[j];
    for (size_t j = 0; j < h; ++j) dctx(t, j) = row[h + j];
  }

  // Attention backward: contexts = attn · enc_top, attn = softmax(scores),
  // scores = dec_h · enc_top^T.
  Matrix denc(T_src, h);
  for (size_t t = 0; t < T_tgt; ++t) {
    const float* a = fs.attn.row_data(t);
    const float* dc = dctx.row_data(t);
    const float* dt_row = fs.dec_h.row_data(t);
    // da_j = enc_top(j)·dc ; dE_j += a_j*dc (context path).
    std::vector<float> da(T_src, 0.0f);
    for (size_t j = 0; j < T_src; ++j) {
      const float* ej = fs.enc_top.row_data(j);
      float* dej = denc.row_data(j);
      float acc = 0;
      for (size_t k = 0; k < h; ++k) {
        acc += ej[k] * dc[k];
        dej[k] += a[j] * dc[k];
      }
      da[j] = acc;
    }
    // Softmax jacobian: ds_j = a_j (da_j - sum_k a_k da_k).
    float dot = 0;
    for (size_t j = 0; j < T_src; ++j) dot += a[j] * da[j];
    // Score paths: dd_t += sum_j ds_j E_j ; dE_j += ds_j d_t.
    float* ddt = ddec.row_data(t);
    for (size_t j = 0; j < T_src; ++j) {
      const float ds = a[j] * (da[j] - dot);
      if (ds == 0.0f) continue;
      const float* ej = fs.enc_top.row_data(j);
      float* dej = denc.row_data(j);
      for (size_t k = 0; k < h; ++k) {
        ddt[k] += ds * ej[k];
        dej[k] += ds * dt_row[k];
      }
    }
  }

  dec_.BackwardIds(fs.dec_inputs, fs.dec, ddec);
  Matrix denc_h0;
  enc1_.Backward(fs.enc1, denc, &denc_h0);
  enc0_.BackwardIds(src_ids, fs.enc0, denc_h0);

  return {loss, T_tgt};
}

float Seq2Seq::TrainEpoch(const Dataset& source,
                          const std::vector<std::vector<int>>& targets,
                          float lr, uint64_t shuffle_seed,
                          size_t batch_records) {
  DB_DCHECK(source.num_records() == targets.size());
  adam_.set_lr(lr);
  std::vector<size_t> order(source.num_records());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(shuffle_seed);
  rng.Shuffle(&order);

  std::vector<Matrix*> params;
  std::vector<const Matrix*> grads;
  for (LstmLayer* layer : {&enc0_, &enc1_, &dec_}) {
    for (Matrix* p : layer->Params()) params.push_back(p);
    for (const Matrix* g : layer->Grads()) grads.push_back(g);
  }
  params.push_back(&wo_);
  params.push_back(&bo_);
  grads.push_back(&dwo_);
  grads.push_back(&dbo_);

  auto zero_grads = [&] {
    enc0_.ZeroGrads();
    enc1_.ZeroGrads();
    dec_.ZeroGrads();
    dwo_.Fill(0);
    dbo_.Fill(0);
  };

  double total_loss = 0;
  size_t total_tok = 0, in_batch = 0;
  zero_grads();
  for (size_t idx : order) {
    auto [loss, n] =
        AccumulateRecord(source.record(idx).ids, targets[idx]);
    total_loss += loss;
    total_tok += n;
    if (++in_batch == batch_records) {
      adam_.Step(params, grads);
      zero_grads();
      in_batch = 0;
    }
  }
  if (in_batch > 0) adam_.Step(params, grads);
  return total_tok ? static_cast<float>(total_loss / total_tok) : 0.0f;
}

double Seq2Seq::Accuracy(const Dataset& source,
                         const std::vector<std::vector<int>>& targets) const {
  size_t correct = 0, total = 0;
  for (size_t i = 0; i < source.num_records(); ++i) {
    ForwardState fs;
    Forward(source.record(i).ids, targets[i], &fs);
    std::vector<size_t> pred = fs.probs.ArgmaxRows();
    for (size_t t = 0; t < targets[i].size(); ++t) {
      correct += (pred[t] == static_cast<size_t>(targets[i][t]));
      ++total;
    }
  }
  return total ? static_cast<double>(correct) / total : 0.0;
}

Matrix Seq2Seq::EncoderStates(const std::vector<int>& src_ids) const {
  std::vector<int> units(num_encoder_units());
  std::iota(units.begin(), units.end(), 0);
  Matrix out(src_ids.size(), units.size());
  const std::vector<int>* tile[] = {&src_ids};
  EncoderStatesInto(tile, units, &out, 0);
  return out;
}

void Seq2Seq::EncoderStatesInto(RecordTile tile, const std::vector<int>& units,
                                Matrix* out, size_t row0) const {
  std::vector<Matrix> layers;
  layers.reserve(2);
  layers.push_back(enc0_.ForwardIdsTile(tile));
  layers.push_back(enc1_.ForwardTile(layers.front(), tile.size()));
  WriteUnits(layers, units, out, row0);
}

namespace {
constexpr uint32_t kSeq2SeqMagic = 0x44425332;  // "DBS2"
}  // namespace

Status Seq2Seq::Save(const std::string& path) const {
  codec::Writer out;
  out.U32(kSeq2SeqMagic);
  out.U64(src_vocab_);
  out.U64(tgt_vocab_);
  out.U64(hidden_dim_);
  for (const LstmLayer* layer : {&enc0_, &enc1_, &dec_}) {
    WriteMatrix(layer->wx, &out);
    WriteMatrix(layer->wh, &out);
    WriteMatrix(layer->b, &out);
  }
  WriteMatrix(wo_, &out);
  WriteMatrix(bo_, &out);
  return codec::WriteFile(path, out.bytes());
}

Result<Seq2Seq> Seq2Seq::Load(const std::string& path) {
  DB_ASSIGN_OR_RETURN(codec::MappedFile file, codec::MapFile(path));
  codec::Reader in(file.bytes);
  const uint32_t magic = in.U32();
  const uint64_t src = in.U64();
  const uint64_t tgt = in.U64();
  const uint64_t hidden = in.U64();
  if (!in.ok() || magic != kSeq2SeqMagic) {
    return Status::Invalid("not a DeepBase Seq2Seq file: " + path);
  }
  if (src == 0 || tgt == 0 || hidden == 0 || hidden > (1u << 16)) {
    return Status::Invalid("implausible model header in " + path);
  }
  // Save's order: enc0, enc1 and dec (wx, wh, b each), then wo and bo.
  const size_t g = 4 * hidden;
  DB_ASSIGN_OR_RETURN(
      std::vector<Matrix> weights,
      ReadWeights(&in, {{src, g}, {hidden, g}, {1, g},
                        {hidden, g}, {hidden, g}, {1, g},
                        {tgt, g}, {hidden, g}, {1, g},
                        {2 * hidden, tgt}, {1, tgt}}));
  Seq2Seq model(src, tgt, hidden, /*seed=*/0);
  auto w = weights.begin();
  for (LstmLayer* layer : {&model.enc0_, &model.enc1_, &model.dec_}) {
    for (Matrix* param : layer->Params()) *param = std::move(*w++);
  }
  model.wo_ = std::move(*w++);
  model.bo_ = std::move(*w);
  return model;
}

}  // namespace deepbase
