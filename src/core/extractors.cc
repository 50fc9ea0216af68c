#include "core/extractors.h"

#include <algorithm>

#include "util/logging.h"

namespace deepbase {

namespace {

// A block's behaviors, (|record_idx| * ns) × num_cols: `write(tile, out,
// row0)` fills the rows of a tile of consecutive block records, record i
// at rows [i * ns, (i + 1) * ns) of the block itself, over the pool's
// threads when there is a pool. Tiles hold at most `max_tile` records, and
// a block yields at least min(records, threads) of them.
template <typename WriteFn>
Matrix FillBlock(const Dataset& dataset, const std::vector<size_t>& record_idx,
                 size_t num_cols, ThreadPool* pool, size_t max_tile,
                 const WriteFn& write) {
  const size_t ns = dataset.ns(), n = record_idx.size();
  Matrix out(n * ns, num_cols);
  std::vector<const std::vector<int>*> ids(n);
  for (size_t i = 0; i < n; ++i) {
    const Record& rec = dataset.record(record_idx[i]);
    DB_DCHECK(rec.size() == ns);
    ids[i] = &rec.ids;
  }
  const size_t threads = pool ? pool->num_threads() : 1;
  const size_t tile = std::clamp<size_t>(n / threads, 1, max_tile);
  auto fill = [&](size_t i) {
    const size_t begin = i * tile;
    write(RecordTile(ids).subspan(begin, std::min(tile, n - begin)), &out,
          begin * ns);
  };
  const size_t tiles = (n + tile - 1) / tile;
  if (pool) {
    pool->ParallelFor(tiles, fill);
  } else {
    for (size_t i = 0; i < tiles; ++i) fill(i);
  }
  return out;
}

// A symbol id outside [0, vocab) has no row in the model's input weights.
Status CheckVocabulary(const Dataset& dataset, size_t vocab,
                       const std::string& model_id) {
  if (dataset.min_id() > dataset.max_id()) return Status::OK();  // no symbol
  const int id = dataset.min_id() < 0 ? dataset.min_id() : dataset.max_id();
  if (id >= 0 && static_cast<size_t>(id) < vocab) return Status::OK();
  return Status::Invalid("dataset symbol id " + std::to_string(id) +
                         " is outside the vocabulary of model '" + model_id +
                         "' (" + std::to_string(vocab) + " symbols)");
}

}  // namespace

Status LstmLmExtractor::CheckDataset(const Dataset& dataset) const {
  return CheckVocabulary(dataset, model_->vocab_size(), model_id());
}

Status LstmLmGradientExtractor::CheckDataset(const Dataset& dataset) const {
  return CheckVocabulary(dataset, model_->vocab_size(), model_id());
}

Status Seq2SeqEncoderExtractor::CheckDataset(const Dataset& dataset) const {
  return CheckVocabulary(dataset, model_->src_vocab(), model_id());
}

Matrix LstmLmExtractor::ExtractRecord(
    const Record& rec, const std::vector<int>& unit_ids) const {
  Matrix out(rec.size(), unit_ids.size());
  const std::vector<int>* tile[] = {&rec.ids};
  model_->HiddenStatesInto(tile, unit_ids, &out, 0);
  return out;
}

Matrix LstmLmExtractor::ExtractBlock(const Dataset& dataset,
                                     const std::vector<size_t>& record_idx,
                                     const std::vector<int>& unit_ids) const {
  return FillBlock(dataset, record_idx, unit_ids.size(), pool_,
                   kLstmTileRecords,
                   [&](RecordTile tile, Matrix* out, size_t row0) {
                     model_->HiddenStatesInto(tile, unit_ids, out, row0);
                   });
}

Matrix LstmLmGradientExtractor::ExtractRecord(
    const Record& rec, const std::vector<int>& unit_ids) const {
  Matrix out(rec.size(), unit_ids.size());
  model_->HiddenGradientsInto(rec.ids, unit_ids, &out, 0);
  return out;
}

Matrix LstmLmGradientExtractor::ExtractBlock(
    const Dataset& dataset, const std::vector<size_t>& record_idx,
    const std::vector<int>& unit_ids) const {
  // Gradients run one record at a time (a tile of one).
  return FillBlock(dataset, record_idx, unit_ids.size(), pool_, 1,
                   [&](RecordTile tile, Matrix* out, size_t row0) {
                     model_->HiddenGradientsInto(*tile[0], unit_ids, out,
                                                 row0);
                   });
}

Matrix Seq2SeqEncoderExtractor::ExtractRecord(
    const Record& rec, const std::vector<int>& unit_ids) const {
  Matrix out(rec.size(), unit_ids.size());
  const std::vector<int>* tile[] = {&rec.ids};
  model_->EncoderStatesInto(tile, unit_ids, &out, 0);
  return out;
}

Matrix Seq2SeqEncoderExtractor::ExtractBlock(
    const Dataset& dataset, const std::vector<size_t>& record_idx,
    const std::vector<int>& unit_ids) const {
  return FillBlock(dataset, record_idx, unit_ids.size(), pool_,
                   kLstmTileRecords,
                   [&](RecordTile tile, Matrix* out, size_t row0) {
                     model_->EncoderStatesInto(tile, unit_ids, out, row0);
                   });
}

Matrix PrecomputedExtractor::ExtractRecord(
    const Record& rec, const std::vector<int>& unit_ids) const {
  (void)rec;
  (void)unit_ids;
  DB_DCHECK(false && "PrecomputedExtractor requires index-based access");
  return Matrix();
}

Matrix PrecomputedExtractor::ExtractBlock(
    const Dataset& dataset, const std::vector<size_t>& record_idx,
    const std::vector<int>& unit_ids) const {
  (void)dataset;
  std::vector<size_t> cols(unit_ids.begin(), unit_ids.end());
  Matrix out(record_idx.size() * ns_, unit_ids.size());
  for (size_t i = 0; i < record_idx.size(); ++i) {
    for (size_t t = 0; t < ns_; ++t) {
      const float* src = behaviors_->row_data(record_idx[i] * ns_ + t);
      float* dst = out.row_data(i * ns_ + t);
      for (size_t j = 0; j < cols.size(); ++j) dst[j] = src[cols[j]];
    }
  }
  return out;
}

}  // namespace deepbase
