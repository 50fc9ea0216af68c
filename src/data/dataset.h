// Dataset D: an nd × ns matrix of symbols (paper §3, Table 1). Each record
// is a fixed-length, null-padded sequence of symbols, and may carry named
// per-symbol annotations (e.g., POS tags) used to build hypothesis functions.

#pragma once

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "data/vocab.h"
#include "util/rng.h"
#include "util/status.h"

namespace deepbase {

/// \brief One row d_i of the dataset: ns symbols plus optional annotations.
struct Record {
  /// Surface form of each symbol (single characters or words).
  std::vector<std::string> tokens;
  /// Vocab ids, aligned with tokens; padded with Vocab::kPadId.
  std::vector<int> ids;
  /// Named per-symbol annotation tracks (e.g. "pos" -> one tag per symbol).
  std::map<std::string, std::vector<std::string>> annotations;

  size_t size() const { return ids.size(); }

  /// \brief Concatenated surface string ("" separator for chars).
  std::string Text(const std::string& sep = "") const;
};

/// \brief A fixed-width collection of Records sharing one Vocab.
class Dataset {
 public:
  Dataset() = default;
  Dataset(Vocab vocab, size_t ns) : vocab_(std::move(vocab)), ns_(ns) {}

  /// \brief Append a record, padding or truncating it to ns symbols.
  void Add(Record record);

  /// \brief Tokenize `text` into characters, pad/truncate, and append.
  void AddText(const std::string& text);

  size_t num_records() const { return records_.size(); }
  size_t ns() const { return ns_; }
  /// \brief Total number of symbols nd*ns.
  size_t num_symbols() const { return records_.size() * ns_; }

  /// \brief The smallest and the largest symbol id over every record,
  /// kept as records are added (so a model can check its vocabulary covers
  /// the dataset without a scan). min_id() > max_id() while no record
  /// holds a symbol.
  int min_id() const { return min_id_; }
  int max_id() const { return max_id_; }

  const Record& record(size_t i) const { return records_[i]; }
  const std::vector<Record>& records() const { return records_; }
  const Vocab& vocab() const { return vocab_; }
  Vocab* mutable_vocab() { return &vocab_; }

  /// \brief Copy of records [begin, end) as a new dataset.
  Dataset Slice(size_t begin, size_t end) const;

 private:
  Vocab vocab_;
  size_t ns_ = 0;
  std::vector<Record> records_;
  int min_id_ = std::numeric_limits<int>::max();
  int max_id_ = std::numeric_limits<int>::min();
};

/// \brief Iterates a dataset in blocks of nb records, in shuffled record
/// order (paper §5.2.2: "Records on disk are assumed to have been shuffled
/// record-wise"). Deterministic given the seed.
class BlockIterator {
 public:
  BlockIterator(const Dataset* dataset, size_t block_size, uint64_t seed = 7,
                bool shuffle = true);

  /// \brief True if another block is available.
  bool HasNext() const { return pos_ < order_.size(); }

  /// \brief Indices of the records in the next block (<= block_size).
  std::vector<size_t> NextBlock();

  /// \brief Number of records already handed out.
  size_t records_consumed() const { return pos_; }

  void Reset();

 private:
  const Dataset* dataset_;
  size_t block_size_;
  uint64_t seed_;
  bool shuffle_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
};

/// \brief Build a char-level dataset by sliding a window of `ns` symbols
/// with the given stride over each string in `texts` (paper §6.2: records
/// are windows of length ns with stride 5).
Dataset SlidingWindowDataset(const std::vector<std::string>& texts, size_t ns,
                             size_t stride);

}  // namespace deepbase
