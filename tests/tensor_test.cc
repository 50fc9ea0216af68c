// Unit tests for src/tensor: shapes, ops, GEMM variants, activations,
// the layout invariants (lda padding, alignment, zero padding), and the
// logical-shape serialization contract. The shared read-only (mmap)
// backing is covered with the store that hands it out
// (behavior_store_test).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "tensor/matrix.h"
#include "tensor/simd.h"
#include "util/codec.h"
#include "util/rng.h"

namespace deepbase {
namespace {

TEST(MatrixTest, InitializerListConstruction) {
  Matrix m = {{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FLOAT_EQ(m(1, 2), 6.0f);
}

TEST(MatrixTest, IdentityAndFill) {
  Matrix id = Matrix::Identity(3);
  EXPECT_FLOAT_EQ(id(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(id(0, 1), 0.0f);
  id.Fill(2.0f);
  EXPECT_FLOAT_EQ(id.Sum(), 18.0f);
}

TEST(MatrixTest, RowColSlicing) {
  Matrix m = {{1, 2}, {3, 4}, {5, 6}};
  Matrix c = m.Col(0);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_FLOAT_EQ(c(2, 0), 5.0f);
  Matrix s = m.RowSlice(1, 3);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_FLOAT_EQ(s(0, 0), 3.0f);
}

TEST(MatrixTest, StackingRoundTrips) {
  Matrix a = {{1, 2}}, b = {{3, 4}};
  Matrix v = Matrix::VStack(a, b);
  EXPECT_EQ(v.rows(), 2u);
  EXPECT_FLOAT_EQ(v(1, 0), 3.0f);
  // Stacking with empty is identity.
  EXPECT_EQ(Matrix::VStack(Matrix(), a).rows(), 1u);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(1);
  Matrix m = Matrix::RandomNormal(5, 7, &rng);
  EXPECT_EQ(MaxAbsDiff(m.Transpose().Transpose(), m), 0.0f);
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{10, 20}, {30, 40}};
  EXPECT_FLOAT_EQ((a + b)(1, 1), 44.0f);
  EXPECT_FLOAT_EQ((b - a)(0, 0), 9.0f);
  EXPECT_FLOAT_EQ((a * 2.0f)(1, 0), 6.0f);
  EXPECT_FLOAT_EQ(Hadamard(a, b)(0, 1), 40.0f);
}

TEST(MatrixTest, RowBroadcastAddsToEveryRow) {
  Matrix m(3, 2, 1.0f);
  Matrix row = {{10, 20}};
  m.AddRowBroadcast(row);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_FLOAT_EQ(m(r, 0), 11.0f);
    EXPECT_FLOAT_EQ(m(r, 1), 21.0f);
  }
}

TEST(MatrixTest, Reductions) {
  Matrix m = {{1, -2}, {3, 4}};
  EXPECT_FLOAT_EQ(m.Sum(), 6.0f);
  EXPECT_FLOAT_EQ(m.Mean(), 1.5f);
  EXPECT_FLOAT_EQ(m.Min(), -2.0f);
  EXPECT_FLOAT_EQ(m.Max(), 4.0f);
  EXPECT_FLOAT_EQ(m.SquaredNorm(), 30.0f);
  Matrix cm = m.ColMeans();
  EXPECT_FLOAT_EQ(cm(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(cm(0, 1), 1.0f);
}

TEST(MatrixTest, ArgmaxRows) {
  Matrix m = {{0.1f, 0.9f, 0.2f}, {5, 1, 2}};
  std::vector<size_t> am = m.ArgmaxRows();
  EXPECT_EQ(am[0], 1u);
  EXPECT_EQ(am[1], 0u);
}

TEST(MatMulTest, KnownProduct) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{5, 6}, {7, 8}};
  Matrix c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(MatMulTest, IdentityIsNeutral) {
  Rng rng(2);
  Matrix m = Matrix::RandomNormal(4, 4, &rng);
  EXPECT_LT(MaxAbsDiff(MatMul(m, Matrix::Identity(4)), m), 1e-6f);
  EXPECT_LT(MaxAbsDiff(MatMul(Matrix::Identity(4), m), m), 1e-6f);
}

TEST(MatMulTest, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(3);
  Matrix a = Matrix::RandomNormal(6, 4, &rng);
  Matrix b = Matrix::RandomNormal(6, 5, &rng);
  EXPECT_LT(MaxAbsDiff(MatMulTransA(a, b), MatMul(a.Transpose(), b)), 1e-4f);
  Matrix c = Matrix::RandomNormal(3, 4, &rng);
  Matrix d = Matrix::RandomNormal(7, 4, &rng);
  EXPECT_LT(MaxAbsDiff(MatMulTransB(c, d), MatMul(c, d.Transpose())), 1e-4f);
}

TEST(ActivationTest, SoftmaxRowsSumToOne) {
  Rng rng(4);
  Matrix logits = Matrix::RandomNormal(8, 10, &rng, 0, 5);
  Matrix p = Softmax(logits);
  for (size_t r = 0; r < p.rows(); ++r) {
    double total = 0;
    for (size_t c = 0; c < p.cols(); ++c) {
      EXPECT_GT(p(r, c), 0.0f);
      total += p(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(ActivationTest, SoftmaxIsShiftInvariant) {
  Matrix a = {{1, 2, 3}};
  Matrix b = {{101, 102, 103}};
  EXPECT_LT(MaxAbsDiff(Softmax(a), Softmax(b)), 1e-6f);
}

TEST(ActivationTest, SigmoidTanhReluPointwise) {
  Matrix x = {{0.0f, -1000.0f, 1000.0f}};
  Matrix s = Sigmoid(x);
  EXPECT_FLOAT_EQ(s(0, 0), 0.5f);
  EXPECT_NEAR(s(0, 1), 0.0f, 1e-6);
  EXPECT_NEAR(s(0, 2), 1.0f, 1e-6);
  Matrix t = Tanh(Matrix{{0.5f}});
  EXPECT_NEAR(t(0, 0), std::tanh(0.5f), 1e-6);
  Matrix r = Relu(Matrix{{-2.0f, 3.0f}});
  EXPECT_FLOAT_EQ(r(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(r(0, 1), 3.0f);
}

TEST(MatrixTest, GlorotWithinLimit) {
  Rng rng(5);
  Matrix w = Matrix::Glorot(30, 50, &rng);
  const float limit = std::sqrt(6.0f / 80.0f);
  EXPECT_LE(w.Max(), limit);
  EXPECT_GE(w.Min(), -limit);
}

// Property sweep: MatMul associativity-ish checks across shapes.
class MatMulShapeTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, MatchesManualComputation) {
  auto [n, k, m] = GetParam();
  Rng rng(100 + n * 31 + k * 7 + m);
  Matrix a = Matrix::RandomNormal(n, k, &rng);
  Matrix b = Matrix::RandomNormal(k, m, &rng);
  Matrix c = MatMul(a, b);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      double acc = 0;
      for (int kk = 0; kk < k; ++kk) acc += a(i, kk) * b(kk, j);
      ASSERT_NEAR(c(i, j), acc, 1e-3) << "at " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 5, 3),
                      std::make_tuple(4, 1, 4), std::make_tuple(7, 8, 9),
                      std::make_tuple(16, 3, 2), std::make_tuple(5, 17, 1)));

// ---------------------------------------------------------------- layout

TEST(LayoutTest, PaddedLdaRoundsUpToCacheLineExceptSingleColumn) {
  // Build-independent contract: SIMD and scalar builds share one layout.
  EXPECT_EQ(PaddedLda(0), 0u);
  EXPECT_EQ(PaddedLda(1), 1u);  // n×1 vectors stay packed
  EXPECT_EQ(PaddedLda(2), vec::kLdaFloats);
  EXPECT_EQ(PaddedLda(16), 16u);
  EXPECT_EQ(PaddedLda(17), 32u);
  EXPECT_EQ(PaddedLda(33), 48u);
}

TEST(LayoutTest, RowsStartOnCacheLineBoundariesAndPaddingIsZero) {
  Matrix m(5, 7, 3.0f);
  EXPECT_EQ(m.lda(), vec::kLdaFloats);
  EXPECT_FALSE(m.contiguous());
  for (size_t r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.row_data(r)) % vec::kByteAlign,
              0u)
        << "row " << r;
    // Bytes between cols() and lda() are zero-initialized padding.
    for (size_t c = m.cols(); c < m.lda(); ++c) {
      EXPECT_EQ(m.row_data(r)[c], 0.0f) << "row " << r << " pad " << c;
    }
  }
}

TEST(LayoutTest, SingleColumnAndSingleRowStayContiguous) {
  Matrix col(100, 1, 1.0f);
  EXPECT_TRUE(col.contiguous());
  EXPECT_EQ(col.lda(), 1u);
  Matrix row(1, 23, 1.0f);
  EXPECT_TRUE(row.contiguous());
}

TEST(LayoutTest, SizeCountsLogicalElementsNeverPadding) {
  Matrix m(4, 5);
  EXPECT_EQ(m.size(), 20u);
  EXPECT_GT(m.lda(), m.cols());
}

// --------------------------------------------------------- serialization

TEST(SerializationTest, WriteMatrixEmitsLogicalShapeNeverLda) {
  Rng rng(11);
  Matrix m = Matrix::RandomNormal(6, 7, &rng);  // lda 16 > cols 7
  codec::Writer out;
  WriteMatrix(m, &out);
  // rows(8) + cols(8) + rows*cols floats — no padding travels.
  EXPECT_EQ(out.bytes().size(), 16u + 6 * 7 * sizeof(float));
}

TEST(SerializationTest, RoundTripsAcrossLayouts) {
  Rng rng(13);
  // Padded matrix and packed column vector: both must round-trip to
  // bit-identical logical contents.
  Matrix padded = Matrix::RandomNormal(5, 18, &rng);
  Matrix packed = Matrix::RandomNormal(40, 1, &rng);
  for (const Matrix* m : {&padded, &packed}) {
    codec::Writer out;
    WriteMatrix(*m, &out);
    codec::Reader in(out.bytes());
    Result<Matrix> back = ReadMatrix(&in);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(in.exhausted());
    ASSERT_TRUE(back->SameShape(*m));
    for (size_t r = 0; r < m->rows(); ++r) {
      for (size_t c = 0; c < m->cols(); ++c) {
        EXPECT_EQ((*back)(r, c), (*m)(r, c));
      }
    }
  }
}

}  // namespace
}  // namespace deepbase
