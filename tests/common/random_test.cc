#include "wsq/common/random.h"

#include <gtest/gtest.h>

#include "wsq/stats/running_stats.h"

namespace wsq {
namespace {

TEST(RandomTest, SameSeedSameStream) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Gaussian(0.0, 1.0), b.Gaussian(0.0, 1.0));
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int differences = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Uniform(0.0, 1.0) != b.Uniform(0.0, 1.0)) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RandomTest, UniformRespectsBounds) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RandomTest, UniformIntRespectsBoundsInclusive) {
  Random rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, GaussianMomentsRoughlyCorrect) {
  Random rng(99);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Gaussian(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RandomTest, LognormalMultiplierMedianNearOne) {
  Random rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 10001; ++i) samples.push_back(rng.LognormalMultiplier(0.3));
  std::sort(samples.begin(), samples.end());
  EXPECT_NEAR(samples[samples.size() / 2], 1.0, 0.05);
  for (double s : samples) EXPECT_GT(s, 0.0);
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
  // Out-of-range probabilities are clamped rather than UB.
  EXPECT_TRUE(rng.Bernoulli(2.0));
  EXPECT_FALSE(rng.Bernoulli(-1.0));
}

}  // namespace
}  // namespace wsq
