#include "core/result_table.h"

#include <algorithm>
#include <map>

#include "util/codec.h"

namespace deepbase {

void ResultTable::Append(const ResultTable& other) {
  rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
}

ResultTable ResultTable::Filter(
    const std::function<bool(const ResultRow&)>& pred) const {
  ResultTable out;
  for (const auto& row : rows_) {
    if (pred(row)) out.Add(row);
  }
  return out;
}

ResultTable ResultTable::TopUnits(size_t k, bool by_absolute) const {
  std::vector<ResultRow> unit_rows;
  for (const auto& row : rows_) {
    if (row.unit >= 0 && !std::isnan(row.unit_score)) unit_rows.push_back(row);
  }
  auto key = [by_absolute](const ResultRow& r) {
    return by_absolute ? std::fabs(r.unit_score) : r.unit_score;
  };
  std::sort(unit_rows.begin(), unit_rows.end(),
            [&](const ResultRow& a, const ResultRow& b) {
              return key(a) > key(b);
            });
  if (unit_rows.size() > k) unit_rows.resize(k);
  ResultTable out;
  for (auto& row : unit_rows) out.Add(std::move(row));
  return out;
}

std::vector<int> ResultTable::UnitsAbove(const std::string& measure,
                                         const std::string& hypothesis,
                                         float threshold) const {
  std::vector<int> out;
  for (const auto& row : rows_) {
    if (row.measure == measure && row.hypothesis == hypothesis &&
        row.unit >= 0 && !std::isnan(row.unit_score) &&
        std::fabs(row.unit_score) > threshold) {
      out.push_back(row.unit);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

float ResultTable::GroupScore(const std::string& measure,
                              const std::string& hypothesis,
                              const std::string& group_id) const {
  for (const auto& row : rows_) {
    if (row.measure == measure && row.hypothesis == hypothesis &&
        (group_id.empty() || row.group_id == group_id) &&
        !std::isnan(row.group_score)) {
      return row.group_score;
    }
  }
  return std::numeric_limits<float>::quiet_NaN();
}

float ResultTable::UnitScore(const std::string& measure,
                             const std::string& hypothesis, int unit) const {
  for (const auto& row : rows_) {
    if (row.measure == measure && row.hypothesis == hypothesis &&
        row.unit == unit) {
      return row.unit_score;
    }
  }
  return std::numeric_limits<float>::quiet_NaN();
}

std::vector<std::pair<std::string, size_t>> ResultTable::CountHighScorers(
    const std::string& measure, float threshold) const {
  std::map<std::string, size_t> counts;
  for (const auto& row : rows_) {
    if (row.measure == measure && row.unit >= 0 &&
        !std::isnan(row.unit_score) &&
        std::fabs(row.unit_score) > threshold) {
      ++counts[row.hypothesis];
    }
  }
  return {counts.begin(), counts.end()};
}

TextTable ResultTable::ToTextTable(size_t max_rows) const {
  TextTable table({"model", "group", "measure", "hypothesis", "unit",
                   "unit_score", "group_score"});
  for (size_t i = 0; i < rows_.size() && i < max_rows; ++i) {
    const auto& r = rows_[i];
    table.AddRow({r.model_id, r.group_id, r.measure, r.hypothesis,
                  r.unit < 0 ? "-" : std::to_string(r.unit),
                  std::isnan(r.unit_score) ? "-" : TextTable::Num(r.unit_score),
                  std::isnan(r.group_score) ? "-"
                                            : TextTable::Num(r.group_score)});
  }
  return table;
}

namespace {

void AppendCsvField(const std::string& field, std::string* out) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) {
    *out += field;
    return;
  }
  *out += '"';
  for (char c : field) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

}  // namespace

std::string ResultTable::ToCsv() const {
  std::string out =
      "model,group,measure,hypothesis,unit,unit_score,group_score\n";
  for (const auto& r : rows_) {
    AppendCsvField(r.model_id, &out);
    out += ',';
    AppendCsvField(r.group_id, &out);
    out += ',';
    AppendCsvField(r.measure, &out);
    out += ',';
    AppendCsvField(r.hypothesis, &out);
    out += ',';
    if (r.unit >= 0) out += std::to_string(r.unit);
    out += ',';
    if (!std::isnan(r.unit_score)) out += std::to_string(r.unit_score);
    out += ',';
    if (!std::isnan(r.group_score)) out += std::to_string(r.group_score);
    out += '\n';
  }
  return out;
}

namespace {

constexpr uint32_t kResultTableMagic = 0x44425254;  // "DBRT"
constexpr uint64_t kMaxSerializedRows = 1ull << 32;
constexpr uint64_t kMaxSerializedString = 1ull << 20;
// The smallest row: four empty strings' lengths, the unit, both scores.
constexpr size_t kMinRowBytes = 4 * 8 + 8 + 4 + 4;

void WriteString(const std::string& s, codec::Writer* w) {
  w->U64(s.size());
  w->Bytes(s);
}

bool ReadString(codec::Reader* r, std::string* s) {
  const uint64_t len = r->U64();
  if (!r->ok() || len > kMaxSerializedString) return false;
  *s = r->Bytes(len);
  return r->ok();
}

}  // namespace

std::string ResultTable::SerializeToString() const {
  codec::Writer w;
  w.U32(kResultTableMagic);
  w.U64(rows_.size());
  for (const ResultRow& r : rows_) {
    WriteString(r.model_id, &w);
    WriteString(r.group_id, &w);
    WriteString(r.measure, &w);
    WriteString(r.hypothesis, &w);
    w.U64(static_cast<uint64_t>(static_cast<int64_t>(r.unit)));
    // Floats travel as raw bits so NaN payloads (the "no score" sentinel)
    // survive the round trip unchanged.
    w.F32(r.unit_score);
    w.F32(r.group_score);
  }
  return w.Take();
}

Result<ResultTable> ResultTable::DeserializeFromString(
    const std::string& bytes) {
  codec::Reader r(bytes);
  const uint32_t magic = r.U32();
  const uint64_t n = r.U64();
  if (!r.ok() || magic != kResultTableMagic || n > kMaxSerializedRows) {
    return Status::DataLoss("malformed result table header");
  }
  ResultTable table;
  // Reserve no more rows than the bytes left can hold, so a corrupt count
  // allocates nothing the input does not back.
  table.rows_.reserve(std::min<uint64_t>(n, r.remaining() / kMinRowBytes));
  for (uint64_t i = 0; i < n; ++i) {
    ResultRow row;
    const bool strings =
        ReadString(&r, &row.model_id) && ReadString(&r, &row.group_id) &&
        ReadString(&r, &row.measure) && ReadString(&r, &row.hypothesis);
    row.unit = static_cast<int>(static_cast<int64_t>(r.U64()));
    row.unit_score = r.F32();
    row.group_score = r.F32();
    if (!strings || !r.ok()) {
      return Status::DataLoss("truncated result table row " +
                              std::to_string(i));
    }
    table.rows_.push_back(std::move(row));
  }
  return table;
}

size_t ResultTable::EstimatedBytes() const {
  size_t bytes = sizeof(ResultTable);
  for (const ResultRow& row : rows_) {
    bytes += sizeof(ResultRow) + row.model_id.size() + row.group_id.size() +
             row.measure.size() + row.hypothesis.size();
  }
  return bytes;
}

}  // namespace deepbase
