// The output relation of Inspect() (paper §4.1): one affinity row per
// (model, unit group, measure, hypothesis, unit), plus group-level rows.
// Supports the relational post-processing users apply to DNI results
// (top-k, filtering, grouping by layer, counting high scorers).

#pragma once

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/text_table.h"

namespace deepbase {

/// \brief One affinity score. unit == -1 marks a group-level row.
struct ResultRow {
  std::string model_id;
  std::string group_id;
  std::string measure;
  std::string hypothesis;
  int unit = -1;
  float unit_score = std::numeric_limits<float>::quiet_NaN();
  float group_score = std::numeric_limits<float>::quiet_NaN();
};

/// \brief In-memory result relation with relational conveniences.
class ResultTable {
 public:
  void Add(ResultRow row) { rows_.push_back(std::move(row)); }
  void Append(const ResultTable& other);

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const std::vector<ResultRow>& rows() const { return rows_; }
  const ResultRow& row(size_t i) const { return rows_[i]; }

  /// \brief Rows satisfying the predicate.
  ResultTable Filter(const std::function<bool(const ResultRow&)>& pred) const;

  /// \brief Top-k unit rows by |unit_score| (or signed score).
  ResultTable TopUnits(size_t k, bool by_absolute = true) const;

  /// \brief Unit ids whose |unit_score| exceeds the threshold for a given
  /// measure and hypothesis (the HAVING S.unit_score > x idiom).
  std::vector<int> UnitsAbove(const std::string& measure,
                              const std::string& hypothesis,
                              float threshold) const;

  /// \brief Group score for (measure, hypothesis) in a group (first match);
  /// NaN if absent.
  float GroupScore(const std::string& measure, const std::string& hypothesis,
                   const std::string& group_id = "") const;

  /// \brief Unit score of a specific unit (first match); NaN if absent.
  float UnitScore(const std::string& measure, const std::string& hypothesis,
                  int unit) const;

  /// \brief Number of units with |unit_score| > threshold per hypothesis —
  /// the "group the scores by layer and count high scorers" idiom.
  std::vector<std::pair<std::string, size_t>> CountHighScorers(
      const std::string& measure, float threshold) const;

  /// \brief Render (at most max_rows) as an aligned text table.
  TextTable ToTextTable(size_t max_rows = 50) const;

  /// \brief Render all rows as CSV with header (model, group, measure,
  /// hypothesis, unit, unit_score, group_score); NaNs and the -1 group
  /// sentinel render as empty fields. The standard sink for feeding
  /// results into external analysis (paper §4.1's post-processing).
  std::string ToCsv() const;

  /// \brief Binary serialization through codec::Writer: magic, row count,
  /// then per row four u64-length-prefixed strings, the unit as a u64 and
  /// both scores' float bits (round-trip bit-exact, including NaN). The
  /// persistent result cache and kResult frames carry this format.
  std::string SerializeToString() const;
  /// \brief Inverse of SerializeToString through codec::Reader; kDataLoss
  /// on malformed input.
  static Result<ResultTable> DeserializeFromString(const std::string& bytes);

  /// \brief Approximate heap footprint (rows + string payloads) — the byte
  /// accounting unit of the result cache.
  size_t EstimatedBytes() const;

 private:
  std::vector<ResultRow> rows_;
};

}  // namespace deepbase
