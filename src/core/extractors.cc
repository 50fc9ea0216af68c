#include "core/extractors.h"

#include "util/logging.h"

namespace deepbase {

namespace {

// A block's behaviors, (|record_idx| * ns) × num_cols: `write(ids, out,
// row0)` fills record i's rows [i * ns, (i + 1) * ns) of the block itself,
// over the pool's threads when there is a pool.
template <typename WriteFn>
Matrix FillBlock(const Dataset& dataset, const std::vector<size_t>& record_idx,
                 size_t num_cols, ThreadPool* pool, const WriteFn& write) {
  const size_t ns = dataset.ns();
  Matrix out(record_idx.size() * ns, num_cols);
  auto fill = [&](size_t i) {
    const Record& rec = dataset.record(record_idx[i]);
    DB_DCHECK(rec.size() == ns);
    write(rec.ids, &out, i * ns);
  };
  if (pool) {
    pool->ParallelFor(record_idx.size(), fill);
  } else {
    for (size_t i = 0; i < record_idx.size(); ++i) fill(i);
  }
  return out;
}

}  // namespace

Matrix LstmLmExtractor::ExtractRecord(
    const Record& rec, const std::vector<int>& unit_ids) const {
  Matrix out(rec.size(), unit_ids.size());
  model_->HiddenStatesInto(rec.ids, unit_ids, &out, 0);
  return out;
}

Matrix LstmLmExtractor::ExtractBlock(const Dataset& dataset,
                                     const std::vector<size_t>& record_idx,
                                     const std::vector<int>& unit_ids) const {
  return FillBlock(dataset, record_idx, unit_ids.size(), pool_,
                   [&](const std::vector<int>& ids, Matrix* out, size_t row0) {
                     model_->HiddenStatesInto(ids, unit_ids, out, row0);
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
  return FillBlock(dataset, record_idx, unit_ids.size(), pool_,
                   [&](const std::vector<int>& ids, Matrix* out, size_t row0) {
                     model_->HiddenGradientsInto(ids, unit_ids, out, row0);
                   });
}

Matrix Seq2SeqEncoderExtractor::ExtractRecord(
    const Record& rec, const std::vector<int>& unit_ids) const {
  Matrix out(rec.size(), unit_ids.size());
  model_->EncoderStatesInto(rec.ids, unit_ids, &out, 0);
  return out;
}

Matrix Seq2SeqEncoderExtractor::ExtractBlock(
    const Dataset& dataset, const std::vector<size_t>& record_idx,
    const std::vector<int>& unit_ids) const {
  return FillBlock(dataset, record_idx, unit_ids.size(), pool_,
                   [&](const std::vector<int>& ids, Matrix* out, size_t row0) {
                     model_->EncoderStatesInto(ids, unit_ids, out, row0);
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
