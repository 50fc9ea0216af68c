// Sequence-to-sequence translation model: 2-layer LSTM encoder + LSTM
// decoder with dot-product (Luong) attention. Substitute for the OpenNMT
// En→De model inspected in the paper's §6.3; the inspected behaviors are
// the encoder's hidden states (both layers), exactly as in Belinkov et al.

#pragma once

#include <vector>

#include "data/dataset.h"
#include "nn/adam.h"
#include "nn/lstm.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace deepbase {

/// \brief Encoder-decoder LSTM with attention, trained by teacher forcing.
///
/// Encoder unit ids are numbered [0, hidden) for encoder layer 0 and
/// [hidden, 2*hidden) for encoder layer 1 — the 1000-unit space of the
/// paper's "Encoder Level" analysis scaled to this model's width.
class Seq2Seq {
 public:
  Seq2Seq(size_t src_vocab, size_t tgt_vocab, size_t hidden_dim,
          uint64_t seed);

  size_t src_vocab() const { return src_vocab_; }
  size_t hidden_dim() const { return hidden_dim_; }
  /// \brief Total inspectable encoder units (2 layers).
  size_t num_encoder_units() const { return 2 * hidden_dim_; }

  /// \brief One epoch of teacher-forced training; returns mean token CE.
  float TrainEpoch(const Dataset& source,
                   const std::vector<std::vector<int>>& targets, float lr,
                   uint64_t shuffle_seed, size_t batch_records = 8);

  /// \brief Teacher-forced next-token accuracy.
  double Accuracy(const Dataset& source,
                  const std::vector<std::vector<int>>& targets) const;

  /// \brief Encoder behaviors for a source record: T × (2*hidden), layer 0
  /// in columns [0, hidden), layer 1 in [hidden, 2*hidden).
  Matrix EncoderStates(const std::vector<int>& src_ids) const;
  /// \brief The encoder states of `units` for a tile of equal-length
  /// source records stepped together, written like
  /// LstmLm::HiddenStatesInto: record r into rows [row0 + r*T,
  /// row0 + (r+1)*T) of `out` (column j holds unit units[j]).
  void EncoderStatesInto(RecordTile tile, const std::vector<int>& units,
                         Matrix* out, size_t row0) const;

  /// \brief Serialize all parameters to a binary file (the "public model
  /// available online" workflow of §6.3 — train once, inspect anywhere).
  Status Save(const std::string& path) const;
  /// \brief Load a model saved with Save(); architecture is restored from
  /// the file header.
  static Result<Seq2Seq> Load(const std::string& path);

 private:
  struct ForwardState {
    LstmCache enc0, enc1, dec;
    Matrix enc_top;    // T_src × h, attention memory
    Matrix dec_h;      // T_tgt × h
    Matrix attn;       // T_tgt × T_src, attention weights
    Matrix contexts;   // T_tgt × h
    Matrix probs;      // T_tgt × V_tgt
    std::vector<int> dec_inputs;
  };

  void Forward(const std::vector<int>& src_ids,
               const std::vector<int>& tgt_ids, ForwardState* fs) const;
  // Accumulates grads; returns (summed loss, #positions).
  std::pair<float, size_t> AccumulateRecord(const std::vector<int>& src_ids,
                                            const std::vector<int>& tgt_ids);

  size_t src_vocab_, tgt_vocab_, hidden_dim_;
  Rng init_rng_;  // declared before the layers: initialization order matters
  LstmLayer enc0_, enc1_, dec_;
  Matrix wo_, bo_;    // 2h×V_tgt, 1×V_tgt
  Matrix dwo_, dbo_;
  Adam adam_;
};

}  // namespace deepbase
