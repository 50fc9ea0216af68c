// Character-level LSTM language model: the SQL auto-completion model of the
// paper's motivating example and scalability benchmark (§2.1, §6.2), plus
// the auxiliary-loss "unit specialization" used by the accuracy benchmark
// (Appendix C) to plant ground-truth detector units.

#pragma once

#include <functional>
#include <vector>

#include "data/dataset.h"
#include "nn/adam.h"
#include "nn/lstm.h"
#include "tensor/matrix.h"

namespace deepbase {

/// \brief Next-symbol LSTM language model over a fixed vocabulary.
///
/// Architecture (paper §2.1): one-hot input -> one or more LSTM layers ->
/// fully connected layer with softmax over the vocabulary. The inspected
/// unit behaviors are the LSTM hidden states; unit ids are numbered
/// [0, hidden) for layer 0, [hidden, 2*hidden) for layer 1, etc.
class LstmLm {
 public:
  LstmLm(size_t vocab_size, size_t hidden_dim, size_t num_layers,
         uint64_t seed);

  size_t vocab_size() const { return vocab_size_; }
  size_t hidden_dim() const { return hidden_dim_; }
  size_t num_layers() const { return layers_.size(); }
  /// \brief Total number of inspectable hidden units across layers.
  size_t num_units() const { return layers_.size() * hidden_dim_; }

  /// \brief Plant detector units (Appendix C): a subset S of layer-0 units
  /// is trained with auxiliary loss g_h = MSE(h_t[S], target(d)_t), and the
  /// total loss is w*g_h + (1-w)*g_task.
  ///
  /// \param target_fn maps a record to one target value per symbol.
  void SetSpecialization(
      std::vector<size_t> units, float weight,
      std::function<std::vector<float>(const Record&)> target_fn);

  /// \brief One epoch of next-symbol training (Adam, minibatch gradient
  /// accumulation). Returns the mean per-symbol cross-entropy.
  float TrainEpoch(const Dataset& dataset, float lr, uint64_t shuffle_seed,
                   size_t batch_records = 16);

  /// \brief Next-symbol prediction accuracy over all positions.
  double Accuracy(const Dataset& dataset) const;

  /// \brief Accuracy with the given units ablated (their outputs zeroed
  /// before reaching the next layer and the output head). This is the
  /// output-ablation variant of the §4.4 "ablate the model" verification:
  /// recurrence within the ablated unit's own layer is left intact, and no
  /// retraining is performed (the paper cites full ablate-and-retrain as
  /// future work).
  double AccuracyWithAblation(const Dataset& dataset,
                              const std::vector<size_t>& ablated_units) const;

  /// \brief Serialize all parameters to a binary file.
  Status Save(const std::string& path) const;
  /// \brief Load a model saved with Save(). Architecture is restored from
  /// the file header.
  static Result<LstmLm> Load(const std::string& path);

  /// \brief Hidden-state behaviors for one record: T × num_units(), layers
  /// concatenated left to right.
  Matrix HiddenStates(const std::vector<int>& ids) const;
  /// \brief The hidden states of `units` for a tile of equal-length
  /// records, stepped through time together: record r's T rows are written
  /// into rows [row0 + r*T, row0 + (r+1)*T) of `out` (column j holds unit
  /// units[j]). How the extractors fill a block without a per-record
  /// matrix; a record's rows are bitwise the same in any tile.
  void HiddenStatesInto(RecordTile tile, const std::vector<int>& units,
                        Matrix* out, size_t row0) const;

  /// \brief Gradient behaviors for one record: dL/dh per unit and symbol
  /// (T × num_units()), where L is the mean next-symbol cross-entropy of
  /// the record. This is the "gradient of the activations" behavior some
  /// DNI analyses use instead of the activation magnitude (paper §3), and
  /// the basis of gradient saliency. Layer columns are concatenated left
  /// to right, matching HiddenStates().
  Matrix HiddenGradients(const std::vector<int>& ids) const;
  /// \brief HiddenGradients of `units` for one record, written into rows
  /// [row0, row0 + T) of `out` like HiddenStatesInto.
  void HiddenGradientsInto(const std::vector<int>& ids,
                           const std::vector<int>& units, Matrix* out,
                           size_t row0) const;

  /// \brief Logits (T × vocab) for one record; position t predicts t+1.
  Matrix Logits(const std::vector<int>& ids) const;

 private:
  // Forward through all layers; returns the T×h states of each layer,
  // the top layer last.
  std::vector<Matrix> ForwardAll(const std::vector<int>& ids,
                                 std::vector<LstmCache>* caches) const;
  // Accumulates gradients for one record; returns its summed CE loss and
  // the number of predicted positions.
  std::pair<float, size_t> AccumulateRecord(const Record& rec);

  size_t vocab_size_, hidden_dim_;
  std::vector<LstmLayer> layers_;
  Matrix wo_, bo_;    // hidden×vocab, 1×vocab
  Matrix dwo_, dbo_;  // grads
  Adam adam_;

  // Specialization (Appendix C).
  std::vector<size_t> spec_units_;
  float spec_weight_ = 0.0f;
  std::function<std::vector<float>(const Record&)> spec_target_fn_;
};

}  // namespace deepbase
