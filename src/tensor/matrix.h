// Dense row-major float32 matrix — the numeric substrate for the NN library
// and for behavior matrices ("skinny and tall" symbol × unit blocks).
//
// A Matrix holds its shape, leading dimension (lda) and base pointer
// itself — the havok (pointer, rows, cols, lda) layout — over one of two
// backings:
//   - an owned buffer: 64-byte-aligned and zero-initialized, with lda
//     padded by PaddedLda so every row starts on a cache-line boundary and
//     kernels vectorize. Copies deep-copy; Resize reuses the capacity.
//   - a shared read-only payload: packed rows×cols floats (lda == cols)
//     kept alive by an owner handle — BehaviorStore's mmap handout of a
//     store file. Copies share it; the first non-const access detaches a
//     private owned, padded copy.
// Element access is a plain load from the base pointer, with no dispatch.
//
// Addressing contract: element (r, c) lives at row_data(r)[c] with
// row_data(r) = base + r*lda(); the bytes between cols() and lda() of each
// row are padding that no kernel reads for logical values. There is no
// whole-matrix data() accessor — anything walking raw memory must go
// through row_data()/lda() (or check contiguous() first and treat row 0 as
// a flat span of size() floats). Serialization never pads: WriteMatrix,
// ReadMatrix and the BehaviorStore file layout carry logical rows×cols, so
// files round-trip bit-identically across builds with different vector
// widths. They encode and decode through codec (util/codec.h), like every
// other byte string the program reads back.

#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"

namespace deepbase {

namespace codec {
class Reader;
class Writer;
}  // namespace codec

/// \brief Leading dimension for a padded in-memory row: cols rounded up to
/// a multiple of vec::kLdaFloats (16 floats = one cache line). Matrices of
/// at most one column stay packed — a single column is already a
/// contiguous, fully vectorizable array, and padding would multiply the
/// footprint of tall n×1 behavior vectors by 16.
size_t PaddedLda(size_t cols);

/// \brief Dense row-major matrix of floats (owned or shared read-only).
///
/// Rows×cols with per-row contiguous storage; behaviors, weights, and
/// activations in the rest of the library are all Matrix. A Vector is a
/// 1×n or n×1 Matrix by convention; free functions below operate
/// generically.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, float fill = 0.0f);

  /// \brief Construct from nested initializer lists (row-major).
  Matrix(std::initializer_list<std::initializer_list<float>> init);

  /// \brief Read-only matrix over `rows`×`cols` packed floats (lda ==
  /// cols) at `data`, which `owner` keeps alive (BehaviorStore's mmap
  /// handout holds the file mapping).
  Matrix(std::shared_ptr<const void> owner, const float* data, size_t rows,
         size_t cols);

  Matrix(const Matrix& o);
  Matrix& operator=(const Matrix& o);
  /// \brief Moves leave the source an empty 0×0 matrix.
  Matrix(Matrix&& o) noexcept;
  Matrix& operator=(Matrix&& o) noexcept;

  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }
  static Matrix Ones(size_t rows, size_t cols) {
    return Matrix(rows, cols, 1.0f);
  }
  static Matrix Identity(size_t n);
  /// \brief i.i.d. N(mean, stddev) entries.
  static Matrix RandomNormal(size_t rows, size_t cols, Rng* rng,
                             float mean = 0.0f, float stddev = 1.0f);
  /// \brief i.i.d. U[lo, hi) entries.
  static Matrix RandomUniform(size_t rows, size_t cols, Rng* rng, float lo,
                              float hi);
  /// \brief Glorot/Xavier uniform initialization for a fan_in×fan_out weight.
  static Matrix Glorot(size_t fan_in, size_t fan_out, Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// \brief Logical element count (rows*cols — never counts lda padding).
  size_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  /// \brief Leading dimension: the float stride between consecutive rows.
  /// lda() >= cols(); owned buffers pad it to a cache-line multiple.
  size_t lda() const { return lda_; }
  /// \brief True when rows are adjacent in memory (lda == cols), so the
  /// whole matrix may be walked as one flat span of size() floats.
  bool contiguous() const { return lda_ == cols_ || rows_ <= 1; }

  float& operator()(size_t r, size_t c) {
    DB_DCHECK(r < rows_ && c < cols_);
    return wbase()[r * lda_ + c];
  }
  float operator()(size_t r, size_t c) const {
    DB_DCHECK(r < rows_ && c < cols_);
    return base()[r * lda_ + c];
  }

  const float* row_data(size_t r) const {
    DB_DCHECK(r < rows_);
    return base() + r * lda_;
  }
  float* row_data(size_t r) {
    DB_DCHECK(r < rows_);
    return wbase() + r * lda_;
  }

  /// \brief The backing — "mem" (owned buffer) or "mmap" (shared
  /// read-only payload) — for diagnostics and tests.
  const char* tier() const { return payload_ ? "mmap" : "mem"; }

  /// \brief Copy of column c as a rows×1 matrix.
  Matrix Col(size_t c) const;
  /// \brief Copy rows [begin, end) as a new matrix.
  Matrix RowSlice(size_t begin, size_t end) const;

  /// \brief Stack `top` above `bottom`; column counts must match.
  static Matrix VStack(const Matrix& top, const Matrix& bottom);

  Matrix Transpose() const;

  // Elementwise in-place ops (shapes must match).
  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(float s);
  /// \brief Hadamard (elementwise) product in place.
  Matrix& HadamardInPlace(const Matrix& o);

  /// \brief Apply fn to every element in place. Template on the callable:
  /// no per-element indirect call, and the loop body can inline.
  template <typename Fn>
  void ApplyInPlace(Fn&& fn) {
    if (empty()) return;
    float* base = wbase();
    if (contiguous()) {
      const size_t n = size();
      for (size_t i = 0; i < n; ++i) base[i] = fn(base[i]);
      return;
    }
    for (size_t r = 0; r < rows_; ++r) {
      float* row = base + r * lda_;
      for (size_t c = 0; c < cols_; ++c) row[c] = fn(row[c]);
    }
  }

  /// \brief Apply fn to every element, returning a new matrix.
  template <typename Fn>
  Matrix Apply(Fn&& fn) const {
    Matrix out = *this;
    out.ApplyInPlace(std::forward<Fn>(fn));
    return out;
  }

  /// \brief Add a 1×cols row vector to every row (broadcast), in place.
  void AddRowBroadcast(const Matrix& row_vec);

  float Sum() const;
  float Mean() const;
  float Min() const;
  float Max() const;
  /// \brief Sum of squares of all entries.
  float SquaredNorm() const;
  /// \brief Column means as a 1×cols matrix.
  Matrix ColMeans() const;

  /// \brief Row-wise argmax indices.
  std::vector<size_t> ArgmaxRows() const;

  void Fill(float v);

  /// \brief Reshape in place to rows×cols. Element values are unspecified
  /// afterwards; an owned buffer's capacity is reused across calls, so
  /// per-block scratch buffers (engine gather/hypothesis buffers) avoid
  /// reallocating.
  void Resize(size_t rows, size_t cols);

  std::string ToString(int precision = 3) const;

  bool SameShape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

 private:
  /// Frees the owned buffer (64-byte-aligned operator new).
  struct AlignedDelete {
    void operator()(float* p) const;
  };

  const float* base() const { return base_; }
  float* wbase() {
    if (payload_ != nullptr) Detach();
    return base_;
  }
  /// \brief Become an owned rows×cols matrix over a fresh zeroed buffer,
  /// dropping the previous backing.
  void Allocate(size_t rows, size_t cols);
  /// \brief Replace a shared read-only payload with an owned padded copy.
  void Detach();

  size_t rows_ = 0, cols_ = 0, lda_ = 0;
  float* base_ = nullptr;
  /// Owned backing: rows_*lda_ <= capacity_ floats.
  std::unique_ptr<float[], AlignedDelete> buf_;
  size_t capacity_ = 0;
  /// Shared read-only backing's owner (null for an owned matrix).
  std::shared_ptr<const void> payload_;
};

/// \brief Matrix product a×b (cache-friendly i-k-j order, vectorized over
/// the output row when DEEPBASE_SIMD is on). Shapes must agree.
Matrix MatMul(const Matrix& a, const Matrix& b);
/// \brief a^T × b without materializing the transpose.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);
/// \brief a × b^T without materializing the transpose.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, float s);
/// \brief Elementwise product.
Matrix Hadamard(Matrix a, const Matrix& b);

/// \brief Numerically stable row-wise softmax.
Matrix Softmax(const Matrix& logits);
/// \brief Elementwise logistic sigmoid.
Matrix Sigmoid(const Matrix& x);
/// \brief Elementwise tanh.
Matrix Tanh(const Matrix& x);
/// \brief Elementwise max(0, x).
Matrix Relu(const Matrix& x);

/// \brief Max absolute elementwise difference; matrices must share shape.
float MaxAbsDiff(const Matrix& a, const Matrix& b);

/// \brief Binary serialization: rows, cols (u64 little-endian), then
/// WriteMatrixPayload's floats. A model file is a header and one of these
/// per weight.
void WriteMatrix(const Matrix& m, codec::Writer* out);
/// \brief Inverse of WriteMatrix; Invalid on malformed input.
Result<Matrix> ReadMatrix(codec::Reader* in);

/// \brief The logical rows×cols floats (little-endian), one bulk copy per
/// row — never the padded lda.
void WriteMatrixPayload(const Matrix& m, codec::Writer* out);
/// \brief A `rows`×`cols` matrix from the next WriteMatrixPayload bytes
/// of `in`. Invalid, before anything is allocated, when rows×cols
/// overflows or exceeds what `in` still holds.
Result<Matrix> ReadMatrixPayload(codec::Reader* in, uint64_t rows,
                                 uint64_t cols);

}  // namespace deepbase
