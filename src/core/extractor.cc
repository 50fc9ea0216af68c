#include "core/extractor.h"

#include <cstring>

#include "util/logging.h"

namespace deepbase {

Matrix Extractor::ExtractBlock(const Dataset& dataset,
                               const std::vector<size_t>& record_idx,
                               const std::vector<int>& unit_ids) const {
  const size_t ns = dataset.ns();
  Matrix out(record_idx.size() * ns, unit_ids.size());
  for (size_t i = 0; i < record_idx.size(); ++i) {
    const Matrix rec_m =
        ExtractRecord(dataset.record(record_idx[i]), unit_ids);
    DB_DCHECK(rec_m.rows() == ns && rec_m.cols() == unit_ids.size());
    for (size_t t = 0; t < ns; ++t) {
      std::memcpy(out.row_data(i * ns + t), rec_m.row_data(t),
                  unit_ids.size() * sizeof(float));
    }
  }
  return out;
}

}  // namespace deepbase
