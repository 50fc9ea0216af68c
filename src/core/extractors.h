// Built-in extractors for the library's model families, plus a
// pre-extracted-behaviors adapter.

#pragma once

#include <memory>

#include "core/extractor.h"
#include "nn/lstm_lm.h"
#include "nn/seq2seq.h"
#include "util/thread_pool.h"

namespace deepbase {

/// \brief Extracts LSTM hidden states from an LstmLm. Unit id u addresses
/// layer u / hidden_dim, unit u % hidden_dim. A block's records are
/// stepped through time in tiles of up to kLstmTileRecords; if a thread
/// pool is given, the tiles run in parallel — the CPU stand-in for the
/// paper's batched GPU extraction path.
class LstmLmExtractor : public Extractor {
 public:
  LstmLmExtractor(std::string model_id, const LstmLm* model,
                  ThreadPool* pool = nullptr)
      : Extractor(std::move(model_id)), model_(model), pool_(pool) {}

  size_t num_units() const override { return model_->num_units(); }
  /// \brief Every symbol id of `dataset` must be in the model's input
  /// vocabulary.
  Status CheckDataset(const Dataset& dataset) const override;
  Matrix ExtractRecord(const Record& rec,
                       const std::vector<int>& unit_ids) const override;
  Matrix ExtractBlock(const Dataset& dataset,
                      const std::vector<size_t>& record_idx,
                      const std::vector<int>& unit_ids) const override;

 private:
  const LstmLm* model_;
  ThreadPool* pool_;
};

/// \brief Extracts gradient behaviors dL/dh from an LstmLm — the
/// "gradient of the activations instead of their magnitude" behavior type
/// cited in paper §3. Unit numbering matches LstmLmExtractor, so the two
/// extractors can be inspected side by side as different behavior views of
/// the same model.
class LstmLmGradientExtractor : public Extractor {
 public:
  LstmLmGradientExtractor(std::string model_id, const LstmLm* model,
                          ThreadPool* pool = nullptr)
      : Extractor(std::move(model_id)), model_(model), pool_(pool) {}

  size_t num_units() const override { return model_->num_units(); }
  /// \brief Every symbol id of `dataset` must be in the model's input
  /// vocabulary.
  Status CheckDataset(const Dataset& dataset) const override;
  Matrix ExtractRecord(const Record& rec,
                       const std::vector<int>& unit_ids) const override;
  Matrix ExtractBlock(const Dataset& dataset,
                      const std::vector<size_t>& record_idx,
                      const std::vector<int>& unit_ids) const override;

 private:
  const LstmLm* model_;
  ThreadPool* pool_;
};

/// \brief Extracts encoder hidden states (both layers) from a Seq2Seq
/// model — the paper's custom PyTorch/OpenNMT extractor (§6.3).
class Seq2SeqEncoderExtractor : public Extractor {
 public:
  Seq2SeqEncoderExtractor(std::string model_id, const Seq2Seq* model,
                          ThreadPool* pool = nullptr)
      : Extractor(std::move(model_id)), model_(model), pool_(pool) {}

  size_t num_units() const override { return model_->num_encoder_units(); }
  /// \brief Every symbol id of `dataset` must be in the model's input
  /// vocabulary.
  Status CheckDataset(const Dataset& dataset) const override;
  Matrix ExtractRecord(const Record& rec,
                       const std::vector<int>& unit_ids) const override;
  Matrix ExtractBlock(const Dataset& dataset,
                      const std::vector<size_t>& record_idx,
                      const std::vector<int>& unit_ids) const override;

 private:
  const Seq2Seq* model_;
  ThreadPool* pool_;
};

/// \brief Serves behaviors from a fully materialized matrix aligned with a
/// dataset (record i occupies rows [i*ns, (i+1)*ns)) — the paper's "simply
/// read behaviors from pre-extracted files" extension.
class PrecomputedExtractor : public Extractor {
 public:
  PrecomputedExtractor(std::string model_id, Matrix behaviors, size_t ns)
      : PrecomputedExtractor(
            std::move(model_id),
            std::make_shared<const Matrix>(std::move(behaviors)), ns) {}

  /// \brief Shared-handle form: N concurrent jobs served from one stored
  /// matrix (BehaviorStore::GetShared) read a single allocation instead
  /// of holding per-job deep copies.
  PrecomputedExtractor(std::string model_id,
                       std::shared_ptr<const Matrix> behaviors, size_t ns)
      : Extractor(std::move(model_id)),
        behaviors_(std::move(behaviors)),
        ns_(ns) {}

  size_t num_units() const override { return behaviors_->cols(); }
  Matrix ExtractRecord(const Record& rec,
                       const std::vector<int>& unit_ids) const override;
  Matrix ExtractBlock(const Dataset& dataset,
                      const std::vector<size_t>& record_idx,
                      const std::vector<int>& unit_ids) const override;

 private:
  std::shared_ptr<const Matrix> behaviors_;
  size_t ns_;
};

}  // namespace deepbase
