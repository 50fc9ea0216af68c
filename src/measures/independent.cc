#include "measures/independent.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "measures/order_stats.h"
#include "tensor/simd.h"
#include "util/logging.h"

namespace deepbase {

namespace {

// Pearson r from raw moment sums.
double PearsonFromSums(double n, double sx, double sxx, double sy, double syy,
                       double sxy) {
  const double cov = n * sxy - sx * sy;
  const double vx = n * sxx - sx * sx;
  const double vy = n * syy - sy * sy;
  if (vx <= 0 || vy <= 0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

// Fisher-CI half width mapped back to r-space: d r/d z = 1 - r^2.
double FisherHalfWidth(double r, size_t n, double z_critical) {
  if (n < 8) return std::numeric_limits<double>::infinity();
  return (1.0 - r * r) * z_critical / std::sqrt(static_cast<double>(n) - 3.0);
}

// Ranks with average ties.
std::vector<double> Ranks(const std::vector<float>& v) {
  const size_t n = v.size();
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](size_t a, size_t b) { return v[a] < v[b]; });
  std::vector<double> ranks(n);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && v[idx[j + 1]] == v[idx[i]]) ++j;
    const double avg = 0.5 * (i + j) + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[idx[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

// Canonical fixed-shape pairwise reduction over entries sorted by
// (occ, serial): recursive halving with mid = lo + (hi - lo) / 2. The tree
// shape depends only on the sorted key sequence — never on which shard or
// worker produced an entry — which is what promotes the moment-sum merges
// to MergeExactness::kBitExact.
template <typename Entry, typename Combine>
Entry PairwiseReduce(const std::vector<const Entry*>& sorted, size_t lo,
                     size_t hi, const Combine& combine) {
  if (hi - lo == 1) return *sorted[lo];
  const size_t mid = lo + (hi - lo) / 2;
  Entry left = PairwiseReduce(sorted, lo, mid, combine);
  const Entry right = PairwiseReduce(sorted, mid, hi, combine);
  combine(&left, right);
  return left;
}

template <typename Entry>
std::vector<const Entry*> SortedByKey(const std::vector<Entry>& entries) {
  std::vector<const Entry*> sorted(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) sorted[i] = &entries[i];
  // Stable: entries with equal keys (direct-API fallback counters from
  // different replicas) keep the deterministic merge insertion order.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Entry* a, const Entry* b) {
                     if (a->occ != b->occ) return a->occ < b->occ;
                     return a->serial < b->serial;
                   });
  return sorted;
}

void AddInto(std::vector<double>* dst, const std::vector<double>& src) {
  DB_DCHECK(dst->size() == src.size());
  for (size_t i = 0; i < src.size(); ++i) (*dst)[i] += src[i];
}

}  // namespace

using measure_internal::MergePeer;
using measure_internal::ReadVec;
using measure_internal::StateKind;
using measure_internal::WriteVec;

// ---------------------------------------------------------------- Pearson

PearsonMeasure::PearsonMeasure(size_t num_units, double z_critical)
    : num_units_(num_units),
      z_critical_(z_critical),
      sx_(num_units, 0),
      sxx_(num_units, 0),
      sxy_(num_units, 0) {}

void PearsonMeasure::BeginBlock(uint64_t serial) {
  pending_occ_ = occ_seen_[serial]++;
  pending_serial_ = serial;
  key_pending_ = true;
}

void PearsonMeasure::ProcessBlock(const Matrix& units,
                                  std::span<const float> hyp) {
  DB_DCHECK(units.cols() == num_units_ && units.rows() == hyp.size());
  Entry e;
  if (key_pending_) {
    e.occ = pending_occ_;
    e.serial = pending_serial_;
    key_pending_ = false;
  } else {
    e.serial = auto_serial_++;
  }
  const size_t rows = units.rows();
  e.n = rows;
  e.sx.assign(num_units_, 0.0);
  e.sxx.assign(num_units_, 0.0);
  e.sxy.assign(num_units_, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    const double y = hyp[r];
    e.sy += y;
    e.syy += y * y;
  }
  double* const sx = e.sx.data();
  double* const sxx = e.sxx.data();
  double* const sxy = e.sxy.data();
#if DEEPBASE_SIMD_ENABLED
  // Column-panel blocking: each pass over the rows touches one cache line
  // per row (a 16-unit panel, two kDoubleLanes half-panels). Lane = unit,
  // rows in order, so every per-unit sum performs exactly the additions of
  // the scalar loop below — bit-identical across SIMD and scalar builds.
  namespace stdx = vec::stdx;
  constexpr size_t kPanel = 2 * vec::kDoubleLanes;
  const size_t panels = num_units_ / kPanel;
  for (size_t p = 0; p < panels; ++p) {
    const size_t u0 = p * kPanel;
    vec::DoubleV a_sx0(0.0), a_sxx0(0.0), a_sxy0(0.0);
    vec::DoubleV a_sx1(0.0), a_sxx1(0.0), a_sxy1(0.0);
    for (size_t r = 0; r < rows; ++r) {
      const float* const row = units.row_data(r) + u0;
      const vec::DoubleV x0 = vec::WidenLoad(row);
      const vec::DoubleV x1 = vec::WidenLoad(row + vec::kDoubleLanes);
      const double y = hyp[r];
      a_sx0 += x0;
      a_sxx0 += x0 * x0;
      a_sxy0 += x0 * y;
      a_sx1 += x1;
      a_sxx1 += x1 * x1;
      a_sxy1 += x1 * y;
    }
    for (size_t l = 0; l < vec::kDoubleLanes; ++l) {
      sx[u0 + l] += a_sx0[l];
      sxx[u0 + l] += a_sxx0[l];
      sxy[u0 + l] += a_sxy0[l];
      sx[u0 + vec::kDoubleLanes + l] += a_sx1[l];
      sxx[u0 + vec::kDoubleLanes + l] += a_sxx1[l];
      sxy[u0 + vec::kDoubleLanes + l] += a_sxy1[l];
    }
  }
  const size_t tail0 = panels * kPanel;
#else
  const size_t tail0 = 0;
#endif
  for (size_t r = 0; r < rows; ++r) {
    const double y = hyp[r];
    const float* const row = units.row_data(r);
    for (size_t u = tail0; u < num_units_; ++u) {
      const double x = row[u];
      sx[u] += x;
      sxx[u] += x * x;
      sxy[u] += x * y;
    }
  }
  // Fold into the running totals backing the convergence check.
  n_ += rows;
  sy_ += e.sy;
  syy_ += e.syy;
  AddInto(&sx_, e.sx);
  AddInto(&sxx_, e.sxx);
  AddInto(&sxy_, e.sxy);
  entries_.push_back(std::move(e));
}

std::unique_ptr<Measure> PearsonMeasure::CloneState() const {
  return std::make_unique<PearsonMeasure>(num_units_, z_critical_);
}

void PearsonMeasure::MergeFrom(const Measure& other) {
  const auto& o = MergePeer<PearsonMeasure>(other);
  DB_DCHECK(o.num_units_ == num_units_);
  // Concatenate per-block entries; Scores() re-reduces them canonically.
  entries_.insert(entries_.end(), o.entries_.begin(), o.entries_.end());
  AddInto(&sx_, o.sx_);
  AddInto(&sxx_, o.sxx_);
  AddInto(&sxy_, o.sxy_);
  sy_ += o.sy_;
  syy_ += o.syy_;
  n_ += o.n_;
}

bool PearsonMeasure::SerializeState(codec::Writer* w) const {
  w->U8(static_cast<uint8_t>(StateKind::kPearson));
  w->U32(static_cast<uint32_t>(num_units_));
  w->F64(z_critical_);
  w->U64(n_);
  WriteVec(w, sx_);
  WriteVec(w, sxx_);
  WriteVec(w, sxy_);
  w->F64(sy_);
  w->F64(syy_);
  w->U32(static_cast<uint32_t>(entries_.size()));
  for (const Entry& e : entries_) {
    w->U64(e.occ);
    w->U64(e.serial);
    w->U64(e.n);
    w->F64(e.sy);
    w->F64(e.syy);
    WriteVec(w, e.sx);
    WriteVec(w, e.sxx);
    WriteVec(w, e.sxy);
  }
  return true;
}

bool PearsonMeasure::DeserializeState(codec::Reader* r) {
  if (r->U8() != static_cast<uint8_t>(StateKind::kPearson)) return false;
  if (r->U32() != num_units_) return false;
  if (r->F64() != z_critical_) return false;
  n_ = r->U64();
  if (!ReadVec(r, num_units_, &sx_)) return false;
  if (!ReadVec(r, num_units_, &sxx_)) return false;
  if (!ReadVec(r, num_units_, &sxy_)) return false;
  sy_ = r->F64();
  syy_ = r->F64();
  const uint32_t count = r->U32();
  // An entry is 5 scalars and 3 length-prefixed vectors of num_units_.
  const size_t entry_bytes = 5 * 8 + 3 * (4 + 8 * num_units_);
  if (!r->ok() || r->remaining() / entry_bytes < count) return false;
  entries_.clear();
  entries_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Entry e;
    e.occ = r->U64();
    e.serial = r->U64();
    e.n = r->U64();
    e.sy = r->F64();
    e.syy = r->F64();
    if (!ReadVec(r, num_units_, &e.sx)) return false;
    if (!ReadVec(r, num_units_, &e.sxx)) return false;
    if (!ReadVec(r, num_units_, &e.sxy)) return false;
    entries_.push_back(std::move(e));
  }
  return r->ok();
}

PearsonMeasure::Entry PearsonMeasure::ReducedEntry() const {
  if (entries_.empty()) {
    Entry zero;
    zero.sx.assign(num_units_, 0.0);
    zero.sxx.assign(num_units_, 0.0);
    zero.sxy.assign(num_units_, 0.0);
    return zero;
  }
  return PairwiseReduce(SortedByKey(entries_), 0, entries_.size(),
                        [](Entry* a, const Entry& b) {
                          a->n += b.n;
                          a->sy += b.sy;
                          a->syy += b.syy;
                          AddInto(&a->sx, b.sx);
                          AddInto(&a->sxx, b.sxx);
                          AddInto(&a->sxy, b.sxy);
                        });
}

double PearsonMeasure::UnitR(size_t u) const {
  return PearsonFromSums(static_cast<double>(n_), sx_[u], sxx_[u], sy_, syy_,
                         sxy_[u]);
}

MeasureScores PearsonMeasure::Scores() const {
  const Entry e = ReducedEntry();
  MeasureScores out;
  out.unit_scores.resize(num_units_);
  for (size_t u = 0; u < num_units_; ++u) {
    out.unit_scores[u] = static_cast<float>(
        PearsonFromSums(static_cast<double>(e.n), e.sx[u], e.sxx[u], e.sy,
                        e.syy, e.sxy[u]));
  }
  return out;
}

double PearsonMeasure::ErrorEstimate() const {
  if (n_ < 8) return std::numeric_limits<double>::infinity();
  double worst = 0;
  for (size_t u = 0; u < num_units_; ++u) {
    worst = std::max(worst, FisherHalfWidth(UnitR(u), n_, z_critical_));
  }
  return worst;
}

// --------------------------------------------------------------- Spearman

SpearmanMeasure::SpearmanMeasure(size_t num_units, size_t max_rows,
                                 double z_critical)
    : num_units_(num_units),
      max_rows_(max_rows),
      z_critical_(z_critical),
      unit_buf_(num_units) {}

void SpearmanMeasure::ProcessBlock(const Matrix& units,
                                   std::span<const float> hyp) {
  DB_DCHECK(units.cols() == num_units_ && units.rows() == hyp.size());
  for (size_t r = 0; r < units.rows() && hyp_buf_.size() < max_rows_; ++r) {
    hyp_buf_.push_back(hyp[r]);
    const float* row = units.row_data(r);
    for (size_t u = 0; u < num_units_; ++u) unit_buf_[u].push_back(row[u]);
  }
}

MeasureScores SpearmanMeasure::Scores() const {
  MeasureScores out;
  out.unit_scores.resize(num_units_, 0.0f);
  if (hyp_buf_.size() < 3) return out;
  const std::vector<double> hyp_ranks = Ranks(hyp_buf_);
  const double n = static_cast<double>(hyp_buf_.size());
  double sy = 0, syy = 0;
  for (double v : hyp_ranks) {
    sy += v;
    syy += v * v;
  }
  for (size_t u = 0; u < num_units_; ++u) {
    const std::vector<double> xr = Ranks(unit_buf_[u]);
    double sx = 0, sxx = 0, sxy = 0;
    for (size_t i = 0; i < xr.size(); ++i) {
      sx += xr[i];
      sxx += xr[i] * xr[i];
      sxy += xr[i] * hyp_ranks[i];
    }
    out.unit_scores[u] =
        static_cast<float>(PearsonFromSums(n, sx, sxx, sy, syy, sxy));
  }
  return out;
}

double SpearmanMeasure::ErrorEstimate() const {
  const size_t n = hyp_buf_.size();
  if (n < 8) return std::numeric_limits<double>::infinity();
  // Conservative: use the worst-case r = 0 Fisher width.
  return FisherHalfWidth(0.0, n, z_critical_);
}

// -------------------------------------------------------------- DiffMeans

DiffMeansMeasure::DiffMeansMeasure(size_t num_units)
    : num_units_(num_units),
      s1_(num_units, 0),
      ss1_(num_units, 0),
      s0_(num_units, 0),
      ss0_(num_units, 0) {}

void DiffMeansMeasure::BeginBlock(uint64_t serial) {
  pending_occ_ = occ_seen_[serial]++;
  pending_serial_ = serial;
  key_pending_ = true;
}

void DiffMeansMeasure::ProcessBlock(const Matrix& units,
                                    std::span<const float> hyp) {
  DB_DCHECK(units.cols() == num_units_ && units.rows() == hyp.size());
  Entry e;
  if (key_pending_) {
    e.occ = pending_occ_;
    e.serial = pending_serial_;
    key_pending_ = false;
  } else {
    e.serial = auto_serial_++;
  }
  const size_t rows = units.rows();
  e.s1.assign(num_units_, 0.0);
  e.ss1.assign(num_units_, 0.0);
  e.s0.assign(num_units_, 0.0);
  e.ss0.assign(num_units_, 0.0);
#if DEEPBASE_SIMD_ENABLED
  // Same panel shape and lane-per-unit contract as the Pearson kernel.
  namespace stdx = vec::stdx;
  constexpr size_t kPanel = 2 * vec::kDoubleLanes;
  const size_t panels = num_units_ / kPanel;
  for (size_t p = 0; p < panels; ++p) {
    const size_t u0 = p * kPanel;
    vec::DoubleV a_s1a(0.0), a_ss1a(0.0), a_s1b(0.0), a_ss1b(0.0);
    vec::DoubleV a_s0a(0.0), a_ss0a(0.0), a_s0b(0.0), a_ss0b(0.0);
    for (size_t r = 0; r < rows; ++r) {
      const float* const row = units.row_data(r) + u0;
      const vec::DoubleV x0 = vec::WidenLoad(row);
      const vec::DoubleV x1 = vec::WidenLoad(row + vec::kDoubleLanes);
      if (hyp[r] >= 0.5f) {
        a_s1a += x0;
        a_ss1a += x0 * x0;
        a_s1b += x1;
        a_ss1b += x1 * x1;
      } else {
        a_s0a += x0;
        a_ss0a += x0 * x0;
        a_s0b += x1;
        a_ss0b += x1 * x1;
      }
    }
    for (size_t l = 0; l < vec::kDoubleLanes; ++l) {
      e.s1[u0 + l] += a_s1a[l];
      e.ss1[u0 + l] += a_ss1a[l];
      e.s0[u0 + l] += a_s0a[l];
      e.ss0[u0 + l] += a_ss0a[l];
      e.s1[u0 + vec::kDoubleLanes + l] += a_s1b[l];
      e.ss1[u0 + vec::kDoubleLanes + l] += a_ss1b[l];
      e.s0[u0 + vec::kDoubleLanes + l] += a_s0b[l];
      e.ss0[u0 + vec::kDoubleLanes + l] += a_ss0b[l];
    }
  }
  const size_t tail0 = panels * kPanel;
#else
  const size_t tail0 = 0;
#endif
  for (size_t r = 0; r < rows; ++r) {
    const bool pos = hyp[r] >= 0.5f;
    (pos ? e.n1 : e.n0) += 1;
    double* const s = (pos ? e.s1 : e.s0).data();
    double* const ss = (pos ? e.ss1 : e.ss0).data();
    const float* const row = units.row_data(r);
    for (size_t u = tail0; u < num_units_; ++u) {
      const double x = row[u];
      s[u] += x;
      ss[u] += x * x;
    }
  }
  n1_ += e.n1;
  n0_ += e.n0;
  AddInto(&s1_, e.s1);
  AddInto(&ss1_, e.ss1);
  AddInto(&s0_, e.s0);
  AddInto(&ss0_, e.ss0);
  entries_.push_back(std::move(e));
}

std::unique_ptr<Measure> DiffMeansMeasure::CloneState() const {
  return std::make_unique<DiffMeansMeasure>(num_units_);
}

void DiffMeansMeasure::MergeFrom(const Measure& other) {
  const auto& o = MergePeer<DiffMeansMeasure>(other);
  DB_DCHECK(o.num_units_ == num_units_);
  entries_.insert(entries_.end(), o.entries_.begin(), o.entries_.end());
  AddInto(&s1_, o.s1_);
  AddInto(&ss1_, o.ss1_);
  AddInto(&s0_, o.s0_);
  AddInto(&ss0_, o.ss0_);
  n1_ += o.n1_;
  n0_ += o.n0_;
}

bool DiffMeansMeasure::SerializeState(codec::Writer* w) const {
  w->U8(static_cast<uint8_t>(StateKind::kDiffMeans));
  w->U32(static_cast<uint32_t>(num_units_));
  w->U64(n1_);
  w->U64(n0_);
  WriteVec(w, s1_);
  WriteVec(w, ss1_);
  WriteVec(w, s0_);
  WriteVec(w, ss0_);
  w->U32(static_cast<uint32_t>(entries_.size()));
  for (const Entry& e : entries_) {
    w->U64(e.occ);
    w->U64(e.serial);
    w->U64(e.n1);
    w->U64(e.n0);
    WriteVec(w, e.s1);
    WriteVec(w, e.ss1);
    WriteVec(w, e.s0);
    WriteVec(w, e.ss0);
  }
  return true;
}

bool DiffMeansMeasure::DeserializeState(codec::Reader* r) {
  if (r->U8() != static_cast<uint8_t>(StateKind::kDiffMeans)) return false;
  if (r->U32() != num_units_) return false;
  n1_ = r->U64();
  n0_ = r->U64();
  if (!ReadVec(r, num_units_, &s1_)) return false;
  if (!ReadVec(r, num_units_, &ss1_)) return false;
  if (!ReadVec(r, num_units_, &s0_)) return false;
  if (!ReadVec(r, num_units_, &ss0_)) return false;
  const uint32_t count = r->U32();
  // An entry is 4 scalars and 4 length-prefixed vectors of num_units_.
  const size_t entry_bytes = 4 * 8 + 4 * (4 + 8 * num_units_);
  if (!r->ok() || r->remaining() / entry_bytes < count) return false;
  entries_.clear();
  entries_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Entry e;
    e.occ = r->U64();
    e.serial = r->U64();
    e.n1 = r->U64();
    e.n0 = r->U64();
    if (!ReadVec(r, num_units_, &e.s1)) return false;
    if (!ReadVec(r, num_units_, &e.ss1)) return false;
    if (!ReadVec(r, num_units_, &e.s0)) return false;
    if (!ReadVec(r, num_units_, &e.ss0)) return false;
    entries_.push_back(std::move(e));
  }
  return r->ok();
}

DiffMeansMeasure::Entry DiffMeansMeasure::ReducedEntry() const {
  if (entries_.empty()) {
    Entry zero;
    zero.s1.assign(num_units_, 0.0);
    zero.ss1.assign(num_units_, 0.0);
    zero.s0.assign(num_units_, 0.0);
    zero.ss0.assign(num_units_, 0.0);
    return zero;
  }
  return PairwiseReduce(SortedByKey(entries_), 0, entries_.size(),
                        [](Entry* a, const Entry& b) {
                          a->n1 += b.n1;
                          a->n0 += b.n0;
                          AddInto(&a->s1, b.s1);
                          AddInto(&a->ss1, b.ss1);
                          AddInto(&a->s0, b.s0);
                          AddInto(&a->ss0, b.ss0);
                        });
}

MeasureScores DiffMeansMeasure::Scores() const {
  const Entry e = ReducedEntry();
  MeasureScores out;
  out.unit_scores.resize(num_units_, 0.0f);
  if (e.n1 == 0 || e.n0 == 0) return out;
  for (size_t u = 0; u < num_units_; ++u) {
    const double m1 = e.s1[u] / e.n1, m0 = e.s0[u] / e.n0;
    const double v1 = std::max(0.0, e.ss1[u] / e.n1 - m1 * m1);
    const double v0 = std::max(0.0, e.ss0[u] / e.n0 - m0 * m0);
    const double pooled = std::sqrt((e.n1 * v1 + e.n0 * v0) /
                                    std::max<uint64_t>(1, e.n1 + e.n0));
    out.unit_scores[u] =
        pooled > 1e-9 ? static_cast<float>((m1 - m0) / pooled) : 0.0f;
  }
  return out;
}

double DiffMeansMeasure::ErrorEstimate() const {
  if (n1_ < 8 || n0_ < 8) return std::numeric_limits<double>::infinity();
  // CI half-width of a standardized mean difference ~ 1.96*sqrt(1/n1+1/n0).
  return 1.96 * std::sqrt(1.0 / n1_ + 1.0 / n0_);
}

// ---------------------------------------------------------------- Jaccard

JaccardMeasure::JaccardMeasure(size_t num_units, double top_quantile)
    : num_units_(num_units),
      top_quantile_(top_quantile),
      inter_(num_units, 0),
      uni_(num_units, 0) {}

void JaccardMeasure::ProcessBlock(const Matrix& units,
                                  std::span<const float> hyp) {
  DB_DCHECK(units.cols() == num_units_ && units.rows() == hyp.size());
  // An empty block counts nothing and leaves the calibration pending.
  if (units.rows() == 0) return;
  if (!thresholds_ready_) {
    // The (1 - q) activation quantile per unit, from this block.
    const size_t rank = static_cast<size_t>(
        (1.0 - top_quantile_) * static_cast<double>(units.rows() - 1));
    thresholds_.resize(num_units_);
    order_stats::Select(units, {&rank, 1}, thresholds_.data());
    thresholds_ready_ = true;
  }
  const size_t rows = units.rows();
  const float* const th = thresholds_.data();
  size_t* const inter = inter_.data();
  size_t* const uni = uni_.data();
  // Decomposition that turns the per-row AND/OR walk into two per-unit
  // exceedance counts: with c1[u] = #(hyp=1 ∧ x>th), c0[u] = #(hyp=0 ∧
  // x>th) and n1 = #(hyp=1), intersection += c1 and union += n1 + c0.
  // Integer counting in either build — bit-identical and still kExact.
  size_t n1 = 0;
  for (size_t r = 0; r < rows; ++r) n1 += hyp[r] >= 0.5f ? 1 : 0;
#if DEEPBASE_SIMD_ENABLED
  namespace stdx = vec::stdx;
  const size_t panels = num_units_ / vec::kCountLanes;
  for (size_t p = 0; p < panels; ++p) {
    const size_t u0 = p * vec::kCountLanes;
    const vec::FloatC th_v(th + u0, stdx::element_aligned);
    vec::CountV c1(0u), c0(0u);
    for (size_t r = 0; r < rows; ++r) {
      const vec::FloatC xv(units.row_data(r) + u0, stdx::element_aligned);
      const vec::CountM on(xv > th_v);
      if (hyp[r] >= 0.5f) {
        stdx::where(on, c1) = c1 + 1u;
      } else {
        stdx::where(on, c0) = c0 + 1u;
      }
    }
    for (size_t l = 0; l < vec::kCountLanes; ++l) {
      inter[u0 + l] += c1[l];
      uni[u0 + l] += n1 + c0[l];
    }
  }
  const size_t tail0 = panels * vec::kCountLanes;
#else
  const size_t tail0 = 0;
#endif
  for (size_t u = tail0; u < num_units_; ++u) {
    size_t c1 = 0, c0 = 0;
    for (size_t r = 0; r < rows; ++r) {
      const bool on = units.row_data(r)[u] > th[u];
      if (!on) continue;
      (hyp[r] >= 0.5f ? c1 : c0) += 1;
    }
    inter[u] += c1;
    uni[u] += n1 + c0;
  }
  n_ += rows;
}

std::unique_ptr<Measure> JaccardMeasure::CloneState() const {
  auto clone = std::make_unique<JaccardMeasure>(num_units_, top_quantile_);
  // Replicas inherit the calibration so all shards binarize identically.
  clone->thresholds_ = thresholds_;
  clone->thresholds_ready_ = thresholds_ready_;
  return clone;
}

void JaccardMeasure::MergeFrom(const Measure& other) {
  const auto& o = MergePeer<JaccardMeasure>(other);
  DB_DCHECK(o.num_units_ == num_units_);
  for (size_t u = 0; u < num_units_; ++u) {
    inter_[u] += o.inter_[u];
    uni_[u] += o.uni_[u];
  }
  n_ += o.n_;
}

bool JaccardMeasure::SerializeState(codec::Writer* w) const {
  w->U8(static_cast<uint8_t>(StateKind::kJaccard));
  w->U32(static_cast<uint32_t>(num_units_));
  w->F64(top_quantile_);
  w->U8(thresholds_ready_ ? 1 : 0);
  WriteVec(w, thresholds_);
  WriteVec(w, inter_);
  WriteVec(w, uni_);
  w->U64(n_);
  return true;
}

bool JaccardMeasure::DeserializeState(codec::Reader* r) {
  if (r->U8() != static_cast<uint8_t>(StateKind::kJaccard)) return false;
  if (r->U32() != num_units_) return false;
  if (r->F64() != top_quantile_) return false;
  thresholds_ready_ = r->U8() != 0;
  if (!ReadVec(r, thresholds_ready_ ? num_units_ : 0, &thresholds_)) {
    return false;
  }
  if (!ReadVec(r, num_units_, &inter_)) return false;
  if (!ReadVec(r, num_units_, &uni_)) return false;
  n_ = r->U64();
  return r->ok();
}

MeasureScores JaccardMeasure::Scores() const {
  MeasureScores out;
  out.unit_scores.resize(num_units_, 0.0f);
  for (size_t u = 0; u < num_units_; ++u) {
    out.unit_scores[u] =
        uni_[u] == 0 ? 0.0f
                     : static_cast<float>(static_cast<double>(inter_[u]) /
                                          static_cast<double>(uni_[u]));
  }
  return out;
}

double JaccardMeasure::ErrorEstimate() const {
  if (n_ < 64) return std::numeric_limits<double>::infinity();
  double worst = 0;
  for (size_t u = 0; u < num_units_; ++u) {
    if (uni_[u] == 0) continue;
    const double j = static_cast<double>(inter_[u]) / uni_[u];
    worst = std::max(
        worst, 1.96 * std::sqrt(j * (1 - j) / static_cast<double>(uni_[u])));
  }
  return worst;
}

// ------------------------------------------------------------ Mutual info

MutualInfoMeasure::MutualInfoMeasure(size_t num_units, int num_classes,
                                     int num_bins)
    : num_units_(num_units),
      num_classes_(num_classes >= 2 ? num_classes : num_bins),
      num_bins_(num_bins),
      hyp_numeric_(num_classes < 2) {
  counts_.assign(num_units_ * num_bins_ * num_classes_, 0);
}

int MutualInfoMeasure::HypClass(float v) const {
  if (!hyp_numeric_) {
    int c = static_cast<int>(v + 0.5f);
    return std::clamp(c, 0, num_classes_ - 1);
  }
  int c = 0;
  for (float e : hyp_edges_) {
    if (v > e) ++c;
  }
  return std::min(c, num_classes_ - 1);
}

void MutualInfoMeasure::RebuildEdgePlanes() {
  // Bin-major transpose of edges_ so the vectorized binning can load one
  // contiguous 16-unit span of edge b.
  const size_t nb1 = static_cast<size_t>(num_bins_ - 1);
  edges_t_.assign(nb1 * num_units_, 0.0f);
  for (size_t u = 0; u < num_units_; ++u) {
    for (size_t b = 0; b < nb1; ++b) {
      edges_t_[b * num_units_ + u] = edges_[u * nb1 + b];
    }
  }
}

void MutualInfoMeasure::ProcessBlock(const Matrix& units,
                                     std::span<const float> hyp) {
  DB_DCHECK(units.cols() == num_units_ && units.rows() == hyp.size());
  const size_t rows = units.rows();
  // An empty block counts nothing and leaves the calibration pending.
  if (rows == 0) return;
  const size_t nb = static_cast<size_t>(num_bins_);
  const size_t nc = static_cast<size_t>(num_classes_);
  if (!edges_ready_) {
    // Quantile bin edges per unit (and per numeric hypothesis) from the
    // first block: the values at ranks b·n/num_bins, b = 1..num_bins-1.
    std::vector<size_t> ranks(nb - 1);
    for (size_t b = 1; b < nb; ++b) ranks[b - 1] = b * rows / nb;
    edges_.resize(num_units_ * (nb - 1));
    order_stats::Select(units, ranks, edges_.data());
    if (hyp_numeric_) {
      hyp_edges_.resize(nb - 1);
      order_stats::Select(hyp.data(), rows, 1, 1, ranks, hyp_edges_.data());
    }
    RebuildEdgePlanes();
    edges_ready_ = true;
  }
  std::vector<uint32_t> cls(rows);
  for (size_t r = 0; r < rows; ++r) {
    cls[r] = static_cast<uint32_t>(HypClass(hyp[r]));
  }
#if DEEPBASE_SIMD_ENABLED
  // One vector lane per unit keeps, per (class, edge), how many rows
  // exceed the edge: over[c·(nb-1) + b] = #(class c ∧ x > e[b]). The
  // bin a row lands in is the number of edges it exceeds, and the edges
  // are nondecreasing, so #(bin b) = #(x > e[b-1]) − #(x > e[b]), with
  // #(x > e[-1]) the class's rows and #(x > e[nb-1]) zero. Integer
  // counts: the same as the scalar loop below in either build.
  namespace stdx = vec::stdx;
  const size_t ne = nb - 1;
  const size_t panels = num_units_ / vec::kCountLanes;
  std::vector<size_t> class_rows(nc, 0);
  for (uint32_t c : cls) ++class_rows[c];
  std::vector<vec::CountV> over(nc * ne);
  for (size_t p = 0; p < panels; ++p) {
    const size_t u0 = p * vec::kCountLanes;
    std::fill(over.begin(), over.end(), vec::CountV(0u));
    for (size_t r = 0; r < rows; ++r) {
      const vec::FloatC xv(units.row_data(r) + u0, stdx::element_aligned);
      vec::CountV* const o = over.data() + cls[r] * ne;
      for (size_t b = 0; b < ne; ++b) {
        const vec::FloatC ev(edges_t_.data() + b * num_units_ + u0,
                             stdx::element_aligned);
        stdx::where(vec::CountM(xv > ev), o[b]) = o[b] + 1u;
      }
    }
    for (size_t l = 0; l < vec::kCountLanes; ++l) {
      size_t* const cu = &counts_[(u0 + l) * nb * nc];
      for (size_t c = 0; c < nc; ++c) {
        size_t above = class_rows[c];
        for (size_t b = 0; b < ne; ++b) {
          const size_t next = over[c * ne + b][l];
          cu[b * nc + c] += above - next;
          above = next;
        }
        cu[ne * nc + c] += above;
      }
    }
  }
  const size_t tail0 = panels * vec::kCountLanes;
#else
  const size_t tail0 = 0;
#endif
  for (size_t r = 0; r < rows; ++r) {
    const float* const row = units.row_data(r);
    for (size_t u = tail0; u < num_units_; ++u) {
      const float* e = &edges_[u * (nb - 1)];
      size_t bin = 0;
      for (size_t b = 0; b + 1 < nb; ++b) {
        if (row[u] > e[b]) ++bin;
      }
      ++counts_[(u * nb + bin) * nc + cls[r]];
    }
  }
  n_ += rows;
}

std::unique_ptr<Measure> MutualInfoMeasure::CloneState() const {
  auto clone = std::make_unique<MutualInfoMeasure>(
      num_units_, hyp_numeric_ ? 0 : num_classes_, num_bins_);
  // Replicas inherit the calibrated bin edges so shard counts are
  // compatible and MergeFrom stays exact.
  clone->edges_ = edges_;
  clone->edges_t_ = edges_t_;
  clone->hyp_edges_ = hyp_edges_;
  clone->edges_ready_ = edges_ready_;
  return clone;
}

void MutualInfoMeasure::MergeFrom(const Measure& other) {
  const auto& o = MergePeer<MutualInfoMeasure>(other);
  DB_DCHECK(o.num_units_ == num_units_ && o.num_classes_ == num_classes_ &&
            o.num_bins_ == num_bins_);
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
  n_ += o.n_;
}

bool MutualInfoMeasure::SerializeState(codec::Writer* w) const {
  w->U8(static_cast<uint8_t>(StateKind::kMutualInfo));
  w->U32(static_cast<uint32_t>(num_units_));
  w->U32(static_cast<uint32_t>(num_classes_));
  w->U32(static_cast<uint32_t>(num_bins_));
  w->U8(hyp_numeric_ ? 1 : 0);
  w->U8(edges_ready_ ? 1 : 0);
  WriteVec(w, edges_);
  WriteVec(w, hyp_edges_);
  WriteVec(w, counts_);
  w->U64(n_);
  return true;
}

bool MutualInfoMeasure::DeserializeState(codec::Reader* r) {
  if (r->U8() != static_cast<uint8_t>(StateKind::kMutualInfo)) return false;
  if (r->U32() != num_units_) return false;
  if (r->U32() != static_cast<uint32_t>(num_classes_)) return false;
  if (r->U32() != static_cast<uint32_t>(num_bins_)) return false;
  if ((r->U8() != 0) != hyp_numeric_) return false;
  edges_ready_ = r->U8() != 0;
  const size_t edge_count =
      edges_ready_ ? num_units_ * static_cast<size_t>(num_bins_ - 1) : 0;
  if (!ReadVec(r, edge_count, &edges_)) return false;
  // ProcessBlock's exceedance counts need each unit's edges nondecreasing
  // in the kernel's key order (so NaN only at the top), as calibration
  // makes them: any other edges would wrap #(x > e[b-1]) − #(x > e[b]).
  const size_t per_unit = static_cast<size_t>(num_bins_ - 1);
  for (size_t i = 1; i < edges_.size(); ++i) {
    if (i % per_unit != 0 &&
        order_stats::Key(edges_[i - 1]) > order_stats::Key(edges_[i])) {
      return false;
    }
  }
  const size_t hyp_edge_count =
      (edges_ready_ && hyp_numeric_) ? static_cast<size_t>(num_bins_ - 1) : 0;
  if (!ReadVec(r, hyp_edge_count, &hyp_edges_)) return false;
  if (!ReadVec(r, num_units_ * num_bins_ * num_classes_, &counts_)) {
    return false;
  }
  n_ = r->U64();
  if (edges_ready_) RebuildEdgePlanes();
  return r->ok();
}

MeasureScores MutualInfoMeasure::Scores() const {
  MeasureScores out;
  out.unit_scores.resize(num_units_, 0.0f);
  if (n_ == 0) return out;
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (size_t u = 0; u < num_units_; ++u) {
    std::vector<double> pb(num_bins_, 0), pc(num_classes_, 0);
    for (int b = 0; b < num_bins_; ++b) {
      for (int c = 0; c < num_classes_; ++c) {
        const double p =
            counts_[(u * num_bins_ + b) * num_classes_ + c] * inv_n;
        pb[b] += p;
        pc[c] += p;
      }
    }
    double mi = 0;
    for (int b = 0; b < num_bins_; ++b) {
      for (int c = 0; c < num_classes_; ++c) {
        const double p =
            counts_[(u * num_bins_ + b) * num_classes_ + c] * inv_n;
        if (p > 0 && pb[b] > 0 && pc[c] > 0) {
          mi += p * std::log2(p / (pb[b] * pc[c]));
        }
      }
    }
    out.unit_scores[u] = static_cast<float>(std::max(0.0, mi));
  }
  return out;
}

double MutualInfoMeasure::ErrorEstimate() const {
  if (n_ < 64) return std::numeric_limits<double>::infinity();
  // Miller–Madow bias of the plug-in MI estimator.
  size_t nonzero = 0;
  for (size_t c : counts_) nonzero += (c > 0);
  const double cells = static_cast<double>(nonzero) /
                       std::max<size_t>(1, num_units_);
  return (cells - 1.0) / (2.0 * static_cast<double>(n_) * std::log(2.0));
}

}  // namespace deepbase
