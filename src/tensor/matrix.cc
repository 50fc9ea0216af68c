#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>

#include "tensor/simd.h"
#include "util/codec.h"

namespace deepbase {

namespace {

// ------------------------------------------------------------------------
// Span kernels: each walks one logical row (or a whole contiguous matrix
// as a single span). SIMD main loop + scalar tail when DEEPBASE_SIMD is
// on; plain scalar loops otherwise.
// ------------------------------------------------------------------------

#if DEEPBASE_SIMD_ENABLED
namespace stdx = vec::stdx;
using vec::DoubleV;
using vec::FloatV;
#endif

inline void AddSpan(float* d, const float* s, size_t n) {
  size_t i = 0;
#if DEEPBASE_SIMD_ENABLED
  for (; i + FloatV::size() <= n; i += FloatV::size()) {
    FloatV dv(d + i, stdx::element_aligned);
    FloatV sv(s + i, stdx::element_aligned);
    (dv + sv).copy_to(d + i, stdx::element_aligned);
  }
#endif
  for (; i < n; ++i) d[i] += s[i];
}

inline void SubSpan(float* d, const float* s, size_t n) {
  size_t i = 0;
#if DEEPBASE_SIMD_ENABLED
  for (; i + FloatV::size() <= n; i += FloatV::size()) {
    FloatV dv(d + i, stdx::element_aligned);
    FloatV sv(s + i, stdx::element_aligned);
    (dv - sv).copy_to(d + i, stdx::element_aligned);
  }
#endif
  for (; i < n; ++i) d[i] -= s[i];
}

inline void MulSpan(float* d, const float* s, size_t n) {
  size_t i = 0;
#if DEEPBASE_SIMD_ENABLED
  for (; i + FloatV::size() <= n; i += FloatV::size()) {
    FloatV dv(d + i, stdx::element_aligned);
    FloatV sv(s + i, stdx::element_aligned);
    (dv * sv).copy_to(d + i, stdx::element_aligned);
  }
#endif
  for (; i < n; ++i) d[i] *= s[i];
}

inline void ScaleSpan(float* d, float s, size_t n) {
  size_t i = 0;
#if DEEPBASE_SIMD_ENABLED
  const FloatV sv(s);
  for (; i + FloatV::size() <= n; i += FloatV::size()) {
    FloatV dv(d + i, stdx::element_aligned);
    (dv * sv).copy_to(d + i, stdx::element_aligned);
  }
#endif
  for (; i < n; ++i) d[i] *= s;
}

using vec::AddScaledSpan;

inline double SumSpan(const float* s, size_t n) {
  double acc = 0;
  size_t i = 0;
#if DEEPBASE_SIMD_ENABLED
  DoubleV accv(0.0);
  for (; i + vec::kDoubleLanes <= n; i += vec::kDoubleLanes) {
    accv += vec::WidenLoad(s + i);
  }
  acc = stdx::reduce(accv);
#endif
  for (; i < n; ++i) acc += s[i];
  return acc;
}

inline double SumSqSpan(const float* s, size_t n) {
  double acc = 0;
  size_t i = 0;
#if DEEPBASE_SIMD_ENABLED
  DoubleV accv(0.0);
  for (; i + vec::kDoubleLanes <= n; i += vec::kDoubleLanes) {
    const DoubleV v = vec::WidenLoad(s + i);
    accv += v * v;
  }
  acc = stdx::reduce(accv);
#endif
  for (; i < n; ++i) acc += static_cast<double>(s[i]) * s[i];
  return acc;
}

inline double DotSpan(const float* a, const float* b, size_t n) {
  double acc = 0;
  size_t i = 0;
#if DEEPBASE_SIMD_ENABLED
  DoubleV accv(0.0);
  for (; i + vec::kDoubleLanes <= n; i += vec::kDoubleLanes) {
    accv += vec::WidenLoad(a + i) * vec::WidenLoad(b + i);
  }
  acc = stdx::reduce(accv);
#endif
  for (; i < n; ++i) acc += static_cast<double>(a[i]) * b[i];
  return acc;
}

inline float MinSpan(const float* s, size_t n, float init) {
  float m = init;
  size_t i = 0;
#if DEEPBASE_SIMD_ENABLED
  if (n >= FloatV::size()) {
    FloatV mv(s, stdx::element_aligned);
    for (i = FloatV::size(); i + FloatV::size() <= n; i += FloatV::size()) {
      mv = stdx::min(mv, FloatV(s + i, stdx::element_aligned));
    }
    m = std::min(m, stdx::hmin(mv));
  }
#endif
  for (; i < n; ++i) m = std::min(m, s[i]);
  return m;
}

inline float MaxSpan(const float* s, size_t n, float init) {
  float m = init;
  size_t i = 0;
#if DEEPBASE_SIMD_ENABLED
  if (n >= FloatV::size()) {
    FloatV mv(s, stdx::element_aligned);
    for (i = FloatV::size(); i + FloatV::size() <= n; i += FloatV::size()) {
      mv = stdx::max(mv, FloatV(s + i, stdx::element_aligned));
    }
    m = std::max(m, stdx::hmax(mv));
  }
#endif
  for (; i < n; ++i) m = std::max(m, s[i]);
  return m;
}

// Iterate the logical elements of (dst, src) pairs row by row, collapsing
// to one flat span when both sides are contiguous.
template <typename F>
inline void ForEachPairSpan(Matrix* dst, const Matrix& src, F f) {
  if (dst->empty()) return;
  if (dst->contiguous() && src.contiguous()) {
    f(dst->row_data(0), src.row_data(0), dst->size());
    return;
  }
  for (size_t r = 0; r < dst->rows(); ++r) {
    f(dst->row_data(r), src.row_data(r), dst->cols());
  }
}

template <typename F>
inline void ForEachConstSpan(const Matrix& m, F f) {
  if (m.empty()) return;
  if (m.contiguous()) {
    f(m.row_data(0), m.size());
    return;
  }
  for (size_t r = 0; r < m.rows(); ++r) f(m.row_data(r), m.cols());
}

template <typename F>
inline void ForEachMutSpan(Matrix* m, F f) {
  if (m->empty()) return;
  if (m->contiguous()) {
    f(m->row_data(0), m->size());
    return;
  }
  for (size_t r = 0; r < m->rows(); ++r) f(m->row_data(r), m->cols());
}

}  // namespace

size_t PaddedLda(size_t cols) {
  if (cols <= 1) return cols;
  return (cols + vec::kLdaFloats - 1) / vec::kLdaFloats * vec::kLdaFloats;
}

void Matrix::AlignedDelete::operator()(float* p) const {
  ::operator delete(p, std::align_val_t(vec::kByteAlign));
}

void Matrix::Allocate(size_t rows, size_t cols) {
  const size_t lda = rows * cols > 0 ? PaddedLda(cols) : cols;
  size_t floats = 0;
  if (__builtin_mul_overflow(rows, lda, &floats) ||
      floats > std::numeric_limits<size_t>::max() / sizeof(float)) {
    throw std::bad_alloc();
  }
  float* fresh = nullptr;
  if (floats > 0) {
    fresh = static_cast<float*>(::operator new(
        floats * sizeof(float), std::align_val_t(vec::kByteAlign)));
    std::memset(fresh, 0, floats * sizeof(float));
  }
  buf_.reset(fresh);
  payload_.reset();
  base_ = fresh;
  capacity_ = floats;
  rows_ = rows;
  cols_ = cols;
  lda_ = lda;
}

Matrix::Matrix(size_t rows, size_t cols, float fill) {
  Allocate(rows, cols);
  if (fill != 0.0f) Fill(fill);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<float>> init) {
  Allocate(init.size(), init.size() ? init.begin()->size() : 0);
  size_t r = 0;
  for (const auto& row : init) {
    DB_DCHECK(row.size() == cols_);
    std::copy(row.begin(), row.end(), base_ + r * lda_);
    ++r;
  }
}

Matrix::Matrix(std::shared_ptr<const void> owner, const float* data,
               size_t rows, size_t cols)
    : rows_(rows),
      cols_(cols),
      lda_(cols),
      // Never written through: every non-const accessor detaches first.
      base_(const_cast<float*>(data)),
      payload_(std::move(owner)) {
  DB_DCHECK(payload_ != nullptr && data != nullptr);
}

Matrix::Matrix(const Matrix& o) {
  if (o.payload_ != nullptr) {
    // Shared read-only payload: share it; a mutating access on either
    // handle detaches a private copy first.
    rows_ = o.rows_;
    cols_ = o.cols_;
    lda_ = o.lda_;
    base_ = o.base_;
    payload_ = o.payload_;
    return;
  }
  // Owned buffer: deep copy (plain value semantics; the handles never
  // alias). Both sides pad to PaddedLda(cols), so the rows copy as one span.
  Allocate(o.rows_, o.cols_);
  if (capacity_ > 0) {
    std::memcpy(base_, o.base_, rows_ * lda_ * sizeof(float));
  }
}

Matrix& Matrix::operator=(const Matrix& o) {
  if (this != &o) {
    Matrix tmp(o);
    *this = std::move(tmp);
  }
  return *this;
}

Matrix::Matrix(Matrix&& o) noexcept { *this = std::move(o); }

Matrix& Matrix::operator=(Matrix&& o) noexcept {
  buf_ = std::move(o.buf_);
  payload_ = std::move(o.payload_);
  base_ = std::exchange(o.base_, nullptr);
  capacity_ = std::exchange(o.capacity_, 0);
  rows_ = std::exchange(o.rows_, 0);
  cols_ = std::exchange(o.cols_, 0);
  lda_ = std::exchange(o.lda_, 0);
  return *this;
}

void Matrix::Detach() {
  Matrix copy(rows_, cols_);
  for (size_t r = 0; r < rows_ && !empty(); ++r) {
    std::memcpy(copy.base_ + r * copy.lda_, base_ + r * lda_,
                cols_ * sizeof(float));
  }
  *this = std::move(copy);
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

Matrix Matrix::RandomNormal(size_t rows, size_t cols, Rng* rng, float mean,
                            float stddev) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    float* row = m.row_data(r);
    for (size_t c = 0; c < cols; ++c) {
      row[c] = static_cast<float>(rng->Normal(mean, stddev));
    }
  }
  return m;
}

Matrix Matrix::RandomUniform(size_t rows, size_t cols, Rng* rng, float lo,
                             float hi) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    float* row = m.row_data(r);
    for (size_t c = 0; c < cols; ++c) {
      row[c] = static_cast<float>(rng->Uniform(lo, hi));
    }
  }
  return m;
}

Matrix Matrix::Glorot(size_t fan_in, size_t fan_out, Rng* rng) {
  float limit = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return RandomUniform(fan_in, fan_out, rng, -limit, limit);
}

Matrix Matrix::Col(size_t c) const {
  DB_DCHECK(c < cols_);
  Matrix out(rows_, 1);
  const float* src = base();
  float* dst = out.row_data(0);  // n×1 is packed (lda == 1)
  for (size_t r = 0; r < rows_; ++r) dst[r] = src[r * lda_ + c];
  return out;
}

Matrix Matrix::RowSlice(size_t begin, size_t end) const {
  DB_DCHECK(begin <= end && end <= rows_);
  Matrix out(end - begin, cols_);
  for (size_t r = begin; r < end; ++r) {
    std::memcpy(out.row_data(r - begin), row_data(r), cols_ * sizeof(float));
  }
  return out;
}

Matrix Matrix::VStack(const Matrix& top, const Matrix& bottom) {
  if (top.empty()) return bottom;
  if (bottom.empty()) return top;
  DB_DCHECK(top.cols() == bottom.cols());
  Matrix out(top.rows() + bottom.rows(), top.cols());
  const size_t cols = top.cols();
  for (size_t r = 0; r < top.rows(); ++r) {
    std::memcpy(out.row_data(r), top.row_data(r), cols * sizeof(float));
  }
  for (size_t r = 0; r < bottom.rows(); ++r) {
    std::memcpy(out.row_data(top.rows() + r), bottom.row_data(r),
                cols * sizeof(float));
  }
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  if (empty()) return out;
  const float* src = base();
  float* dst = out.row_data(0);
  const size_t out_lda = out.lda();
  for (size_t r = 0; r < rows_; ++r) {
    const float* srow = src + r * lda_;
    for (size_t c = 0; c < cols_; ++c) dst[c * out_lda + r] = srow[c];
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  DB_DCHECK(SameShape(o));
  ForEachPairSpan(this, o, [](float* d, const float* s, size_t n) {
    AddSpan(d, s, n);
  });
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  DB_DCHECK(SameShape(o));
  ForEachPairSpan(this, o, [](float* d, const float* s, size_t n) {
    SubSpan(d, s, n);
  });
  return *this;
}

Matrix& Matrix::operator*=(float s) {
  if (empty()) return *this;
  if (contiguous()) {
    ScaleSpan(row_data(0), s, size());
  } else {
    for (size_t r = 0; r < rows_; ++r) ScaleSpan(row_data(r), s, cols_);
  }
  return *this;
}

Matrix& Matrix::HadamardInPlace(const Matrix& o) {
  DB_DCHECK(SameShape(o));
  ForEachPairSpan(this, o, [](float* d, const float* s, size_t n) {
    MulSpan(d, s, n);
  });
  return *this;
}

void Matrix::AddRowBroadcast(const Matrix& row_vec) {
  DB_DCHECK(row_vec.size() == cols_ && row_vec.contiguous());
  if (empty()) return;
  const float* src = row_vec.row_data(0);
  for (size_t r = 0; r < rows_; ++r) AddSpan(row_data(r), src, cols_);
}

float Matrix::Sum() const {
  double s = 0;
  ForEachConstSpan(*this, [&](const float* p, size_t n) { s += SumSpan(p, n); });
  return static_cast<float>(s);
}

float Matrix::Mean() const {
  return empty() ? 0.0f : Sum() / static_cast<float>(size());
}

float Matrix::Min() const {
  float m = std::numeric_limits<float>::infinity();
  ForEachConstSpan(*this,
                   [&](const float* p, size_t n) { m = MinSpan(p, n, m); });
  return m;
}

float Matrix::Max() const {
  float m = -std::numeric_limits<float>::infinity();
  ForEachConstSpan(*this,
                   [&](const float* p, size_t n) { m = MaxSpan(p, n, m); });
  return m;
}

float Matrix::SquaredNorm() const {
  double s = 0;
  ForEachConstSpan(*this,
                   [&](const float* p, size_t n) { s += SumSqSpan(p, n); });
  return static_cast<float>(s);
}

Matrix Matrix::ColMeans() const {
  Matrix out(1, cols_);
  if (rows_ == 0 || cols_ == 0) return out;
  float* acc = out.row_data(0);
  for (size_t r = 0; r < rows_; ++r) AddSpan(acc, row_data(r), cols_);
  ScaleSpan(acc, 1.0f / static_cast<float>(rows_), cols_);
  return out;
}

std::vector<size_t> Matrix::ArgmaxRows() const {
  std::vector<size_t> out(rows_, 0);
  for (size_t r = 0; r < rows_; ++r) {
    const float* src = row_data(r);
    size_t best = 0;
    for (size_t c = 1; c < cols_; ++c) {
      if (src[c] > src[best]) best = c;
    }
    out[r] = best;
  }
  return out;
}

void Matrix::Fill(float v) {
  if (empty()) return;
  if (contiguous()) {
    std::fill_n(row_data(0), size(), v);
    return;
  }
  for (size_t r = 0; r < rows_; ++r) std::fill_n(row_data(r), cols_, v);
}

void Matrix::Resize(size_t rows, size_t cols) {
  const size_t lda = PaddedLda(cols);
  size_t floats = 0;
  if (rows * cols == 0 || payload_ != nullptr ||
      __builtin_mul_overflow(rows, lda, &floats) || floats > capacity_) {
    // Empty, read-only or too small: values are unspecified after Resize,
    // so a fresh buffer (none when empty) is equivalent.
    Allocate(rows, cols);
    return;
  }
  rows_ = rows;
  cols_ = cols;
  lda_ = lda;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream out;
  out.precision(precision);
  out << std::fixed;
  out << "[" << rows_ << "x" << cols_ << "]\n";
  for (size_t r = 0; r < std::min<size_t>(rows_, 8); ++r) {
    for (size_t c = 0; c < std::min<size_t>(cols_, 12); ++c) {
      out << (*this)(r, c) << " ";
    }
    if (cols_ > 12) out << "...";
    out << "\n";
  }
  if (rows_ > 8) out << "...\n";
  return out.str();
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  DB_DCHECK(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  // i-k-j loop order: streams through b and out row-wise (cache friendly);
  // the inner row update vectorizes as one fused span op.
  for (size_t i = 0; i < n; ++i) {
    const float* arow = a.row_data(i);
    float* orow = out.row_data(i);
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      AddScaledSpan(orow, b.row_data(kk), av, m);
    }
  }
  return out;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  DB_DCHECK(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols());
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  for (size_t i = 0; i < n; ++i) {
    const float* arow = a.row_data(i);
    const float* brow = b.row_data(i);
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      AddScaledSpan(out.row_data(kk), brow, av, m);
    }
  }
  return out;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  DB_DCHECK(a.cols() == b.cols());
  Matrix out(a.rows(), b.rows());
  const size_t k = a.cols(), m = b.rows();
  for (size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row_data(i);
    float* orow = out.row_data(i);
    for (size_t j = 0; j < m; ++j) {
      orow[j] = static_cast<float>(DotSpan(arow, b.row_data(j), k));
    }
  }
  return out;
}

Matrix operator+(Matrix a, const Matrix& b) {
  a += b;
  return a;
}
Matrix operator-(Matrix a, const Matrix& b) {
  a -= b;
  return a;
}
Matrix operator*(Matrix a, float s) {
  a *= s;
  return a;
}
Matrix Hadamard(Matrix a, const Matrix& b) {
  a.HadamardInPlace(b);
  return a;
}

Matrix Softmax(const Matrix& logits) {
  Matrix out = logits;
  for (size_t r = 0; r < out.rows(); ++r) {
    float* row = out.row_data(r);
    const size_t c_count = out.cols();
    const float mx = MaxSpan(row, c_count, -std::numeric_limits<float>::infinity());
    size_t c = 0;
#if DEEPBASE_SIMD_ENABLED
    const FloatV mxv(mx);
    for (; c + FloatV::size() <= c_count; c += FloatV::size()) {
      FloatV v(row + c, stdx::element_aligned);
      stdx::exp(v - mxv).copy_to(row + c, stdx::element_aligned);
    }
#endif
    for (; c < c_count; ++c) row[c] = std::exp(row[c] - mx);
    const double total = SumSpan(row, c_count);
    ScaleSpan(row, static_cast<float>(1.0 / total), c_count);
  }
  return out;
}

Matrix Sigmoid(const Matrix& x) {
  Matrix out = x;
  ForEachMutSpan(&out, [](float* p, size_t n) {
    size_t i = 0;
#if DEEPBASE_SIMD_ENABLED
    const FloatV one(1.0f);
    for (; i + FloatV::size() <= n; i += FloatV::size()) {
      FloatV v(p + i, stdx::element_aligned);
      (one / (one + stdx::exp(-v))).copy_to(p + i, stdx::element_aligned);
    }
#endif
    for (; i < n; ++i) p[i] = 1.0f / (1.0f + std::exp(-p[i]));
  });
  return out;
}

Matrix Tanh(const Matrix& x) {
  Matrix out = x;
  ForEachMutSpan(&out, [](float* p, size_t n) {
    size_t i = 0;
#if DEEPBASE_SIMD_ENABLED
    for (; i + FloatV::size() <= n; i += FloatV::size()) {
      FloatV v(p + i, stdx::element_aligned);
      stdx::tanh(v).copy_to(p + i, stdx::element_aligned);
    }
#endif
    for (; i < n; ++i) p[i] = std::tanh(p[i]);
  });
  return out;
}

Matrix Relu(const Matrix& x) {
  Matrix out = x;
  ForEachMutSpan(&out, [](float* p, size_t n) {
    size_t i = 0;
#if DEEPBASE_SIMD_ENABLED
    const FloatV zero(0.0f);
    for (; i + FloatV::size() <= n; i += FloatV::size()) {
      FloatV v(p + i, stdx::element_aligned);
      stdx::max(v, zero).copy_to(p + i, stdx::element_aligned);
    }
#endif
    for (; i < n; ++i) p[i] = p[i] > 0 ? p[i] : 0.0f;
  });
  return out;
}

void WriteMatrix(const Matrix& m, codec::Writer* out) {
  out->U64(m.rows());
  out->U64(m.cols());
  WriteMatrixPayload(m, out);
}

Result<Matrix> ReadMatrix(codec::Reader* in) {
  const uint64_t rows = in->U64();
  const uint64_t cols = in->U64();
  if (!in->ok()) return Status::Invalid("truncated matrix header");
  return ReadMatrixPayload(in, rows, cols);
}

void WriteMatrixPayload(const Matrix& m, codec::Writer* out) {
  out->Reserve(m.size() * sizeof(float));
  for (size_t r = 0; r < m.rows(); ++r) out->F32s(m.row_data(r), m.cols());
}

Result<Matrix> ReadMatrixPayload(codec::Reader* in, uint64_t rows,
                                 uint64_t cols) {
  uint64_t floats = 0;
  if (__builtin_mul_overflow(rows, cols, &floats) ||
      floats > in->remaining() / sizeof(float)) {
    return Status::Invalid("matrix dimensions exceed the bytes that remain");
  }
  Matrix m(rows, cols);
  for (uint64_t r = 0; r < rows && cols > 0; ++r) {
    in->F32s(m.row_data(r), cols);
  }
  return m;
}

float MaxAbsDiff(const Matrix& a, const Matrix& b) {
  DB_DCHECK(a.SameShape(b));
  float m = 0;
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* pa = a.row_data(r);
    const float* pb = b.row_data(r);
    for (size_t c = 0; c < a.cols(); ++c) {
      m = std::max(m, std::fabs(pa[c] - pb[c]));
    }
  }
  return m;
}

}  // namespace deepbase
