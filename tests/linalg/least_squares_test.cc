#include "wsq/linalg/least_squares.h"

#include <cmath>

#include <gtest/gtest.h>

#include "support/matrix.h"
#include "wsq/common/random.h"

namespace wsq {
namespace {

TEST(SolveLinearSystemTest, Solves2x2) {
  Matrix a = MatrixOf({{2.0, 1.0}, {1.0, 3.0}});
  Matrix b = MatrixOf({{5.0}, {10.0}});
  Result<Matrix> x = SolveLinearSystem(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x.value()(1, 0), 3.0, 1e-12);
}

TEST(SolveLinearSystemTest, RequiresPivoting) {
  // Zero on the leading diagonal forces a row swap.
  Matrix a = MatrixOf({{0.0, 1.0}, {1.0, 0.0}});
  Matrix b = MatrixOf({{2.0}, {3.0}});
  Result<Matrix> x = SolveLinearSystem(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()(0, 0), 3.0, 1e-12);
  EXPECT_NEAR(x.value()(1, 0), 2.0, 1e-12);
}

TEST(SolveLinearSystemTest, SingularDetected) {
  Matrix a = MatrixOf({{1.0, 2.0}, {2.0, 4.0}});
  Matrix b = MatrixOf({{1.0}, {2.0}});
  EXPECT_EQ(SolveLinearSystem(a, b).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SolveLinearSystemTest, DimensionChecks) {
  EXPECT_EQ(SolveLinearSystem(Matrix(2, 3), Matrix(2, 1)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SolveLinearSystem(Matrix(2, 2), Matrix(3, 1)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SolveLinearSystem(Matrix(2, 2), Matrix(2, 2)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LeastSquaresTest, ExactFitWhenSquare) {
  // y = 2x + 1 through two points.
  Matrix x = MatrixOf({{1.0, 1.0}, {2.0, 1.0}});
  Matrix y = MatrixOf({{3.0}, {5.0}});
  Result<Matrix> d = LeastSquares(x, y);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.value()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(d.value()(1, 0), 1.0, 1e-12);
}

TEST(LeastSquaresTest, OverdeterminedMinimizesResidual) {
  // Line through noisy points; LS must recover slope/intercept closely.
  Matrix x(5, 2);
  Matrix y(5, 1);
  const double xs[] = {0.0, 1.0, 2.0, 3.0, 4.0};
  const double ys[] = {1.1, 2.9, 5.2, 6.8, 9.1};
  for (int i = 0; i < 5; ++i) {
    x.At(i, 0) = xs[i];
    x.At(i, 1) = 1.0;
    y.At(i, 0) = ys[i];
  }
  Result<Matrix> d = LeastSquares(x, y);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.value()(0, 0), 2.0, 0.1);
  EXPECT_NEAR(d.value()(1, 0), 1.0, 0.3);
}

TEST(LeastSquaresTest, UnderdeterminedRejected) {
  EXPECT_EQ(LeastSquares(Matrix(2, 3), Matrix(2, 1)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FitQuadraticTest, RecoversExactCoefficients) {
  // y = 0.5 x^2 - 3x + 7
  std::vector<double> x = {1, 2, 3, 4, 5, 6};
  std::vector<double> y;
  for (double v : x) y.push_back(0.5 * v * v - 3.0 * v + 7.0);
  Result<FitResult> fit = FitQuadratic(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().params[0], 0.5, 1e-9);
  EXPECT_NEAR(fit.value().params[1], -3.0, 1e-8);
  EXPECT_NEAR(fit.value().params[2], 7.0, 1e-8);
  EXPECT_NEAR(fit.value().rmse, 0.0, 1e-9);
  EXPECT_NEAR(fit.value().r_squared, 1.0, 1e-12);
}

TEST(FitParabolicTest, RecoversExactCoefficients) {
  // y = 100/x + 0.002 x + 5  — the paper's Eq. (9) family.
  std::vector<double> x = {100, 2000, 5000, 10000, 15000, 20000};
  std::vector<double> y;
  for (double v : x) y.push_back(100.0 / v + 0.002 * v + 5.0);
  Result<FitResult> fit = FitParabolic(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().params[0], 100.0, 1e-6);
  EXPECT_NEAR(fit.value().params[1], 0.002, 1e-9);
  EXPECT_NEAR(fit.value().params[2], 5.0, 1e-6);
}

TEST(FitQuadraticTest, NoisyFitStillConcave) {
  Random rng(3);
  std::vector<double> x;
  std::vector<double> y;
  for (double v = 100; v <= 20000; v += 2000) {
    x.push_back(v);
    const double clean = 1e-6 * (v - 9000) * (v - 9000) + 40.0;
    y.push_back(clean * rng.Uniform(0.9, 1.1));
  }
  Result<FitResult> fit = FitQuadratic(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_GT(fit.value().params[0], 0.0);
  // Vertex near 9000.
  const double vertex =
      -fit.value().params[1] / (2.0 * fit.value().params[0]);
  EXPECT_NEAR(vertex, 9000.0, 2500.0);
}

TEST(FitTest, InputValidation) {
  EXPECT_EQ(FitQuadratic({1, 2}, {1, 2}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FitQuadratic({1, 2, 3}, {1, 2}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FitParabolic({0, 2, 3}, {1, 2, 3}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FitWithBasis(Matrix(3, 3), {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FitTest, RSquaredDropsWithNoise) {
  std::vector<double> x = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> clean;
  std::vector<double> noisy;
  Random rng(17);
  for (double v : x) {
    const double base = v * v;
    clean.push_back(base);
    noisy.push_back(base + rng.Uniform(-10.0, 10.0));
  }
  const double r2_clean = FitQuadratic(x, clean).value().r_squared;
  const double r2_noisy = FitQuadratic(x, noisy).value().r_squared;
  EXPECT_GT(r2_clean, r2_noisy);
  EXPECT_GT(r2_noisy, 0.5);
}

}  // namespace
}  // namespace wsq
