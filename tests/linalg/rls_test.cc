#include "wsq/linalg/rls.h"

#include <cmath>

#include <gtest/gtest.h>

#include "wsq/common/random.h"

namespace wsq {
namespace {

TEST(RlsTest, ConvergesToLinearModel) {
  // y = 3 a + 2 b - 1, regressors phi = (a, b, 1).
  RecursiveLeastSquares rls(3, /*forgetting=*/1.0);
  Random rng(5);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.Uniform(-5, 5);
    const double b = rng.Uniform(-5, 5);
    ASSERT_TRUE(rls.Update({a, b, 1.0}, 3.0 * a + 2.0 * b - 1.0).ok());
  }
  EXPECT_NEAR(rls.params()[0], 3.0, 1e-6);
  EXPECT_NEAR(rls.params()[1], 2.0, 1e-6);
  EXPECT_NEAR(rls.params()[2], -1.0, 1e-6);
  EXPECT_EQ(rls.num_updates(), 200u);
}

TEST(RlsTest, ForgettingTracksDriftingModel) {
  // Model switches slope halfway; the forgetting learner must track,
  // the non-forgetting one lags.
  RecursiveLeastSquares forgetting(2, 0.9);
  RecursiveLeastSquares remembering(2, 1.0);
  Random rng(7);
  for (int i = 0; i < 300; ++i) {
    const double x = rng.Uniform(0, 10);
    const double slope = i < 150 ? 1.0 : 5.0;
    const double y = slope * x;
    ASSERT_TRUE(forgetting.Update({x, 1.0}, y).ok());
    ASSERT_TRUE(remembering.Update({x, 1.0}, y).ok());
  }
  const double err_forgetting = std::fabs(forgetting.params()[0] - 5.0);
  const double err_remembering = std::fabs(remembering.params()[0] - 5.0);
  EXPECT_LT(err_forgetting, err_remembering);
  EXPECT_LT(err_forgetting, 0.1);
}

TEST(RlsTest, ArityMismatchRejected) {
  RecursiveLeastSquares rls(3, 1.0);
  EXPECT_EQ(rls.Update({1.0, 2.0}, 3.0).code(),
            StatusCode::kInvalidArgument);
}

TEST(RlsTest, ResetRestoresPrior) {
  RecursiveLeastSquares rls(2, 1.0);
  ASSERT_TRUE(rls.Update({1.0, 1.0}, 10.0).ok());
  EXPECT_GT(std::fabs(rls.params()[0]), 0.0);
  rls.Reset();
  EXPECT_EQ(rls.params()[0], 0.0);
  EXPECT_EQ(rls.params()[1], 0.0);
  EXPECT_EQ(rls.num_updates(), 0u);
}

TEST(RlsTest, ForgettingFactorClamped) {
  RecursiveLeastSquares rls(1, -5.0);  // clamped to a small positive value
  EXPECT_GT(rls.forgetting(), 0.0);
  RecursiveLeastSquares rls2(1, 2.0);  // clamped to 1
  EXPECT_LE(rls2.forgetting(), 1.0);
}

TEST(RlsTest, QuadraticBasisIdentifiesProfileModel) {
  // Identify y = a x^2 + b x + c online, paper Eq. (8) with RLS.
  RecursiveLeastSquares rls(3, 1.0);
  Random rng(11);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.Uniform(100, 20000) / 1000.0;  // scaled for conditioning
    const double y = 0.7 * x * x - 9.0 * x + 50.0;
    ASSERT_TRUE(rls.Update({x * x, x, 1.0}, y).ok());
  }
  EXPECT_NEAR(rls.params()[0], 0.7, 1e-5);
  EXPECT_NEAR(rls.params()[1], -9.0, 1e-4);
  EXPECT_NEAR(rls.params()[2], 50.0, 1e-3);
}

}  // namespace
}  // namespace wsq
