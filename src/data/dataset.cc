#include "data/dataset.h"

#include <algorithm>

#include "util/logging.h"

namespace deepbase {

std::string Record::Text(const std::string& sep) const {
  std::string out;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i && !sep.empty()) out += sep;
    out += tokens[i];
  }
  return out;
}

void Dataset::Add(Record record) {
  DB_DCHECK(record.tokens.size() == record.ids.size());
  // Pad or truncate to ns symbols; annotation tracks are padded with "".
  if (record.ids.size() > ns_) {
    record.ids.resize(ns_);
    record.tokens.resize(ns_);
    for (auto& [name, track] : record.annotations) track.resize(ns_);
  }
  while (record.ids.size() < ns_) {
    record.ids.push_back(Vocab::kPadId);
    record.tokens.push_back(Vocab::kPadToken);
  }
  for (auto& [name, track] : record.annotations) {
    track.resize(ns_, "");
  }
  for (int id : record.ids) {
    min_id_ = std::min(min_id_, id);
    max_id_ = std::max(max_id_, id);
  }
  records_.push_back(std::move(record));
}

void Dataset::AddText(const std::string& text) {
  Record rec;
  rec.tokens.reserve(text.size());
  rec.ids.reserve(text.size());
  for (char ch : text) {
    std::string tok(1, ch);
    rec.ids.push_back(vocab_.LookupOrPad(tok));
    rec.tokens.push_back(std::move(tok));
  }
  Add(std::move(rec));
}

Dataset Dataset::Slice(size_t begin, size_t end) const {
  DB_DCHECK(begin <= end && end <= records_.size());
  Dataset out(vocab_, ns_);
  for (size_t i = begin; i < end; ++i) out.Add(records_[i]);
  return out;
}

BlockIterator::BlockIterator(const Dataset* dataset, size_t block_size,
                             uint64_t seed, bool shuffle)
    : dataset_(dataset),
      block_size_(block_size),
      seed_(seed),
      shuffle_(shuffle) {
  Reset();
}

void BlockIterator::Reset() {
  order_.resize(dataset_->num_records());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  if (shuffle_) {
    Rng rng(seed_);
    rng.Shuffle(&order_);
  }
  pos_ = 0;
}

std::vector<size_t> BlockIterator::NextBlock() {
  size_t end = std::min(order_.size(), pos_ + block_size_);
  std::vector<size_t> block(order_.begin() + pos_, order_.begin() + end);
  pos_ = end;
  return block;
}

Dataset SlidingWindowDataset(const std::vector<std::string>& texts, size_t ns,
                             size_t stride) {
  DB_DCHECK(stride > 0);
  std::string all;
  for (const auto& t : texts) all += t;
  Dataset out(Vocab::FromChars(all), ns);
  for (const auto& text : texts) {
    if (text.empty()) continue;
    for (size_t begin = 0; begin < text.size(); begin += stride) {
      out.AddText(text.substr(begin, ns));
      if (begin + ns >= text.size()) break;
    }
  }
  return out;
}

}  // namespace deepbase
