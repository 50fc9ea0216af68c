// Unit-behavior extractors (paper §5.1.2): any object that can produce the
// behavior matrix of selected hidden units for input records. Extractors
// for the library's own models live in core/extractors.h; users can plug in
// custom extractors for other model families, or read pre-extracted
// behaviors from memory (PrecomputedExtractor).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "tensor/matrix.h"
#include "util/status.h"

namespace deepbase {

/// \brief Version of the library's extraction kernels: the LSTM step
/// kernel and gate step (nn/lstm.cc) that every built-in extractor runs.
/// The behavior store's unit tier (UnitBehaviorKey) and the persistent
/// result cache (InspectRequestFingerprint) key on it, so behaviors and
/// results an older build computed are re-extracted, never served. Bump it
/// with any change to the bytes a built-in extractor returns.
inline constexpr uint32_t kExtractionKernelVersion = 2;

/// \brief Produces unit behaviors: one row per input symbol, one column per
/// requested hidden unit (the paper's extract(model, records, hid_units) ->
/// behaviors contract).
class Extractor {
 public:
  explicit Extractor(std::string model_id) : model_id_(std::move(model_id)) {}
  virtual ~Extractor() = default;

  const std::string& model_id() const { return model_id_; }

  /// \brief Total addressable hidden units of the model.
  virtual size_t num_units() const = 0;

  /// \brief Whether the model can read every record of `dataset`.
  /// Catalog::Compile asks once per request, so a dataset the model cannot
  /// run over fails the request (kInvalidArgument) before any extraction.
  /// The default accepts every dataset.
  virtual Status CheckDataset(const Dataset& dataset) const {
    (void)dataset;
    return Status::OK();
  }

  /// \brief Behaviors for one record: rec.size() × |unit_ids|.
  virtual Matrix ExtractRecord(const Record& rec,
                               const std::vector<int>& unit_ids) const = 0;

  /// \brief Behaviors for a block of records, rows concatenated in the
  /// order of `record_idx`: (|record_idx| * ns) × |unit_ids|. The default
  /// loops over ExtractRecord; extractors with batch backends override it.
  virtual Matrix ExtractBlock(const Dataset& dataset,
                              const std::vector<size_t>& record_idx,
                              const std::vector<int>& unit_ids) const;

 private:
  std::string model_id_;
};

}  // namespace deepbase
