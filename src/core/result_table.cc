#include "core/result_table.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

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

void WriteU32(uint32_t v, std::ostream* out) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteU64(uint64_t v, std::ostream* out) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteString(const std::string& s, std::ostream* out) {
  WriteU64(s.size(), out);
  out->write(s.data(), static_cast<std::streamsize>(s.size()));
}

// Floats travel as raw bits so NaN payloads (the "no score" sentinel)
// survive the round trip unchanged.
void WriteFloatBits(float f, std::ostream* out) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  WriteU32(bits, out);
}

bool ReadU32(std::istream* in, uint32_t* v) {
  in->read(reinterpret_cast<char*>(v), sizeof(*v));
  return in->good();
}

bool ReadU64(std::istream* in, uint64_t* v) {
  in->read(reinterpret_cast<char*>(v), sizeof(*v));
  return in->good();
}

bool ReadString(std::istream* in, std::string* s) {
  uint64_t len = 0;
  if (!ReadU64(in, &len) || len > kMaxSerializedString) return false;
  // Grow with the bytes actually read, so a corrupt length allocates no
  // more than the stream holds.
  s->clear();
  char chunk[4096];
  while (s->size() < len) {
    const size_t n = std::min<uint64_t>(sizeof(chunk), len - s->size());
    if (!in->read(chunk, static_cast<std::streamsize>(n))) return false;
    s->append(chunk, n);
  }
  return true;
}

bool ReadFloatBits(std::istream* in, float* f) {
  uint32_t bits = 0;
  if (!ReadU32(in, &bits)) return false;
  std::memcpy(f, &bits, sizeof(bits));
  return true;
}

}  // namespace

void ResultTable::Serialize(std::ostream* out) const {
  WriteU32(kResultTableMagic, out);
  WriteU64(rows_.size(), out);
  for (const ResultRow& r : rows_) {
    WriteString(r.model_id, out);
    WriteString(r.group_id, out);
    WriteString(r.measure, out);
    WriteString(r.hypothesis, out);
    const int64_t unit = r.unit;
    WriteU64(static_cast<uint64_t>(unit), out);
    WriteFloatBits(r.unit_score, out);
    WriteFloatBits(r.group_score, out);
  }
}

std::string ResultTable::SerializeToString() const {
  std::ostringstream out(std::ios::binary);
  Serialize(&out);
  return std::move(out).str();
}

Result<ResultTable> ResultTable::Deserialize(std::istream* in) {
  uint32_t magic = 0;
  uint64_t n = 0;
  if (!ReadU32(in, &magic) || magic != kResultTableMagic ||
      !ReadU64(in, &n) || n > kMaxSerializedRows) {
    return Status::DataLoss("malformed result table header");
  }
  ResultTable table;
  for (uint64_t i = 0; i < n; ++i) {
    ResultRow r;
    uint64_t unit = 0;
    if (!ReadString(in, &r.model_id) || !ReadString(in, &r.group_id) ||
        !ReadString(in, &r.measure) || !ReadString(in, &r.hypothesis) ||
        !ReadU64(in, &unit) || !ReadFloatBits(in, &r.unit_score) ||
        !ReadFloatBits(in, &r.group_score)) {
      return Status::DataLoss("truncated result table row " +
                              std::to_string(i));
    }
    r.unit = static_cast<int>(static_cast<int64_t>(unit));
    table.Add(std::move(r));
  }
  return table;
}

Result<ResultTable> ResultTable::DeserializeFromString(
    const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return Deserialize(&in);
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
