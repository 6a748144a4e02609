#include "wsq/common/random.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wsq/stats/running_stats.h"

#ifdef __GLIBCXX__
#include <random>
#endif

namespace wsq {
namespace {

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// The first `n` results of `draw`, rendered with `render` and joined by
/// spaces.
template <typename Draw, typename Render>
std::string FirstDraws(int n, Draw draw, Render render) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += ' ';
    out += render(draw());
  }
  return out;
}

std::string Dec(int64_t v) { return std::to_string(v); }

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

// ---------------------------------------------------------------------------
// Pins, checked on every standard library. The streams are defined by
// wsq/common/random.{h,cc}, so these strings must not change anywhere.

TEST(RandomPinTest, EngineMatchesTheStandardsPredefinedValue) {
  // [rand.predef]: the 10000th output of a default-constructed
  // mt19937_64 (seed 5489) is 9981545732273789042.
  Mt19937_64 engine(5489);
  EXPECT_EQ(FirstDraws(3, std::ref(engine),
                       [](uint64_t v) { return std::to_string(v); }),
            "14514284786278117030 4620546740167642908 13109570281517897720");
  for (int i = 3; i < 9999; ++i) engine();
  EXPECT_EQ(engine(), uint64_t{9981545732273789042u});
}

TEST(RandomPinTest, CanonicalClampsBelowOne) {
  EXPECT_EQ(ToCanonical(0), 0.0);
  EXPECT_EQ(ToCanonical(uint64_t{1} << 63), 0.5);
  const double below_one = std::nextafter(1.0, 0.0);
  // Draws from 2^64 - 1024 up round to 2^64 as doubles, and the clamp
  // maps them to the largest double below 1. The draw just under them
  // rounds down to 2^64 - 2048, which scales to that same value.
  EXPECT_EQ(ToCanonical(~uint64_t{0}), below_one);
  EXPECT_EQ(ToCanonical(~uint64_t{0} - 1023), below_one);
  EXPECT_EQ(ToCanonical(~uint64_t{0} - 1024), below_one);
}

TEST(RandomPinTest, FirstDrawsOfEachMethod) {
  Random gaussian(42);
  EXPECT_EQ(FirstDraws(3, [&] { return gaussian.Gaussian(0.0, 1.0); }, Hex),
            "0x1.68f438d8aec29p-1 -0x1.25efc127557c7p-1 -0x1.e81c87dfcf302p+0");
  Random shifted(42);
  EXPECT_EQ(FirstDraws(3, [&] { return shifted.Gaussian(10.0, 2.5); }, Hex),
            "0x1.786628e1db4e6p+3 0x1.121289d1daa49p+3 0x1.4eee2b141e81fp+2");
  Random uniform(42);
  EXPECT_EQ(FirstDraws(3, [&] { return uniform.Uniform(2.0, 5.0); }, Hex),
            "0x1.10fd679e132c6p+2 0x1.f563579695b78p+1 0x1.106970df4ac6ep+2");
  Random lognormal(42);
  EXPECT_EQ(
      FirstDraws(3, [&] { return lognormal.LognormalMultiplier(0.3); }, Hex),
      "0x1.3c4b6824269cdp+0 0x1.aefeafaca6dd3p-1 0x1.20f808ea8acfdp-1");
  Random small(42);
  EXPECT_EQ(FirstDraws(3, [&] { return small.UniformInt(0, 9); }, Dec),
            "7 6 7");
  Random full(42);
  EXPECT_EQ(
      FirstDraws(3, [&] { return full.UniformInt(kInt64Min, kInt64Max); }, Dec),
      "4706788815403344598 2564676540648719016 4651257987612965642");
  Random coin(42);
  EXPECT_EQ(FirstDraws(8, [&] { return int64_t{coin.Bernoulli(0.5)}; }, Dec),
            "0 0 0 1 0 1 0 1");
}

// ---------------------------------------------------------------------------
// Differential tests against libstdc++, whose algorithms random.cc
// reproduces. Each std:: distribution is built fresh for each draw, as
// the library's streams were defined before they moved in-tree.

#ifdef __GLIBCXX__

/// Bitwise equality, so that -0.0 and 0.0 differ.
::testing::AssertionResult SameBits(double ours, double std_value) {
  if (std::bit_cast<uint64_t>(ours) == std::bit_cast<uint64_t>(std_value)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << Hex(ours) << " != std " << Hex(std_value);
}

constexpr uint64_t kSeeds[] = {0, 1, 42, 5489, 0xFFFFFFFFFFFFFFFF};
constexpr int kDraws = 100000;

TEST(RandomDifferentialTest, EngineMatchesStdMt19937_64) {
  for (uint64_t seed : kSeeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 reference(seed);
    int mismatches = 0;
    for (int i = 0; i < 250000; ++i) mismatches += ours() != reference();
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
  }
}

/// An engine with mt19937_64's range that always returns `value`.
struct FixedEngine {
  using result_type = uint64_t;
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }
  uint64_t operator()() { return value; }
  uint64_t value;
};

TEST(RandomDifferentialTest, CanonicalMatchesGenerateCanonical) {
  const uint64_t top = ~uint64_t{0};
  for (uint64_t bits : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 11,
                        uint64_t{1} << 63, top - 2048, top - 1025, top - 1024,
                        top - 1, top}) {
    FixedEngine engine{bits};
    EXPECT_TRUE(SameBits(ToCanonical(bits),
                         std::generate_canonical<double, 53>(engine)))
        << "bits " << bits;
  }
  // Random words shifted right by 0..63 bits, so that every leading-zero
  // count and rounding case of the conversion is met.
  Mt19937_64 source(9);
  for (int i = 0; i < kDraws; ++i) {
    FixedEngine engine{source() >> (i % 64)};
    ASSERT_TRUE(SameBits(ToCanonical(engine.value),
                         std::generate_canonical<double, 53>(engine)))
        << "bits " << engine.value;
  }
}

TEST(RandomDifferentialTest, GaussianMatchesNormalDistribution) {
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {10.0, 2.5}, {-3.0, 0.01}};
  for (uint64_t seed : kSeeds) {
    for (auto [mean, stddev] : params) {
      Random ours(seed);
      std::mt19937_64 reference(seed);
      for (int i = 0; i < kDraws; ++i) {
        ASSERT_TRUE(SameBits(
            ours.Gaussian(mean, stddev),
            std::normal_distribution<double>(mean, stddev)(reference)))
            << "seed " << seed << " N(" << mean << ", " << stddev
            << ") draw " << i;
      }
    }
  }
}

TEST(RandomDifferentialTest, LognormalMatchesLognormalDistribution) {
  for (uint64_t seed : kSeeds) {
    for (double sigma : {0.1, 0.3}) {
      Random ours(seed);
      std::mt19937_64 reference(seed);
      for (int i = 0; i < kDraws; ++i) {
        ASSERT_TRUE(SameBits(
            ours.LognormalMultiplier(sigma),
            std::lognormal_distribution<double>(0.0, sigma)(reference)))
            << "seed " << seed << " sigma " << sigma << " draw " << i;
      }
    }
  }
}

TEST(RandomDifferentialTest, UniformMatchesUniformRealDistribution) {
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {2.0, 5.0}, {-400.0, 400.0}};
  for (uint64_t seed : kSeeds) {
    for (auto [lo, hi] : params) {
      Random ours(seed);
      std::mt19937_64 reference(seed);
      for (int i = 0; i < kDraws; ++i) {
        ASSERT_TRUE(SameBits(
            ours.Uniform(lo, hi),
            std::uniform_real_distribution<double>(lo, hi)(reference)))
            << "seed " << seed << " [" << lo << ", " << hi << ") draw " << i;
      }
    }
  }
}

TEST(RandomDifferentialTest, UniformIntMatchesUniformIntDistribution) {
  const std::pair<int64_t, int64_t> params[] = {
      {0, 3},
      {1, 6},
      {-5, 5},
      {7, 7},
      {kInt64Min, -1},
      // span 2^63 + 1: 2^64 mod span is 2^63 - 1, so about half of the
      // draws are rejected and redrawn.
      {-1, kInt64Max},
      {kInt64Min, kInt64Max},
  };
  for (uint64_t seed : kSeeds) {
    for (auto [lo, hi] : params) {
      Random ours(seed);
      std::mt19937_64 reference(seed);
      for (int i = 0; i < kDraws; ++i) {
        ASSERT_EQ(ours.UniformInt(lo, hi),
                  std::uniform_int_distribution<int64_t>(lo, hi)(reference))
            << "seed " << seed << " [" << lo << ", " << hi << "] draw " << i;
      }
    }
  }
}

TEST(RandomDifferentialTest, BernoulliMatchesBernoulliDistribution) {
  for (uint64_t seed : kSeeds) {
    for (double p : {0.0, 1.0, 0.001, 0.3, 0.5, 0.999, -1.0, 2.0}) {
      Random ours(seed);
      std::mt19937_64 reference(seed);
      for (int i = 0; i < kDraws; ++i) {
        ASSERT_EQ(ours.Bernoulli(p),
                  std::bernoulli_distribution(std::clamp(p, 0.0, 1.0))(
                      reference))
            << "seed " << seed << " p " << p << " draw " << i;
      }
    }
  }
}

TEST(RandomDifferentialTest, InterleavedMethodsShareOneStream) {
  // The simulators mix methods on one stream; each must consume exactly
  // the draws its std:: counterpart does.
  Random ours(2024);
  std::mt19937_64 reference(2024);
  for (int i = 0; i < kDraws; ++i) {
    switch (i % 5) {
      case 0:
        ASSERT_TRUE(SameBits(
            ours.Gaussian(0.0, 1.0),
            std::normal_distribution<double>(0.0, 1.0)(reference)));
        break;
      case 1:
        ASSERT_TRUE(SameBits(
            ours.LognormalMultiplier(0.1),
            std::lognormal_distribution<double>(0.0, 0.1)(reference)));
        break;
      case 2:
        ASSERT_TRUE(SameBits(
            ours.Uniform(3.0, 9.0),
            std::uniform_real_distribution<double>(3.0, 9.0)(reference)));
        break;
      case 3:
        ASSERT_EQ(ours.UniformInt(0, 999),
                  std::uniform_int_distribution<int64_t>(0, 999)(reference));
        break;
      default:
        ASSERT_EQ(ours.Bernoulli(0.2),
                  std::bernoulli_distribution(0.2)(reference));
    }
  }
}

#endif  // __GLIBCXX__

}  // namespace
}  // namespace wsq
