#include "wsq/linalg/matrix.h"

#include <gtest/gtest.h>

#include "support/matrix.h"

namespace wsq {
namespace {

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(m.At(r, c), 0.0);
  }
}

TEST(MatrixTest, IdentityAndColumnVector) {
  Matrix id = Matrix::Identity(3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(id(r, c), r == c ? 1.0 : 0.0);
    }
  }
  Matrix v = Matrix::ColumnVector({5.0, 6.0});
  EXPECT_EQ(v.rows(), 2u);
  EXPECT_EQ(v.cols(), 1u);
  EXPECT_EQ(v(1, 0), 6.0);
}

TEST(MatrixTest, Transpose) {
  Matrix m = MatrixOf({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t(0, 0), 1.0);
}

TEST(MatrixTest, Multiply) {
  Matrix a = MatrixOf({{1.0, 2.0}, {3.0, 4.0}});
  Matrix b = MatrixOf({{5.0}, {6.0}});
  Result<Matrix> p = a.Multiply(b);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value()(0, 0), 17.0);
  EXPECT_EQ(p.value()(1, 0), 39.0);
}

TEST(MatrixTest, MultiplyDimensionMismatch) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_EQ(a.Multiply(b).status().code(), StatusCode::kInvalidArgument);
}

TEST(MatrixTest, MultiplyByIdentityIsNoop) {
  Matrix a = MatrixOf({{1.5, -2.0}, {0.0, 7.0}});
  Result<Matrix> p = a.Multiply(Matrix::Identity(2));
  ASSERT_TRUE(p.ok());
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 2; ++c) EXPECT_EQ(p.value()(r, c), a(r, c));
  }
}

TEST(MatrixTest, Scaled) {
  Matrix m = MatrixOf({{1.0, -2.0}}).Scaled(2.0);
  EXPECT_EQ(m(0, 0), 2.0);
  EXPECT_EQ(m(0, 1), -4.0);
}

TEST(MatrixTest, Norms) {
  Matrix m = MatrixOf({{3.0, -4.0}});
  EXPECT_EQ(m.MaxAbs(), 4.0);
  EXPECT_EQ(Matrix(0, 0).MaxAbs(), 0.0);
}

TEST(MatrixTest, ColumnExtraction) {
  Matrix m = MatrixOf({{1.0, 2.0}, {3.0, 4.0}});
  std::vector<double> col = m.Column(1);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col[0], 2.0);
  EXPECT_EQ(col[1], 4.0);
}

TEST(MatrixDeathTest, RaggedInitializerAborts) {
  EXPECT_DEATH(MatrixOf({{1.0, 2.0}, {3.0}}), "ragged");
  EXPECT_DEATH(MatrixOf({{1.0}, {2.0, 3.0}}), "ragged");
}

}  // namespace
}  // namespace wsq
