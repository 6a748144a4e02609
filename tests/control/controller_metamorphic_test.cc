// Metamorphic check: the switching law decides on sign(Δȳ·Δx̄) (Eq. 1)
// and its adaptive gain on Δȳ/ȳ (Eq. 3), so multiplying every response
// time by a positive constant must not change a single decision. A
// power-of-two scale is exact in binary floating point (no rounding in
// the products, sums, differences or ratios the controllers form), so
// the block-size sequences must match bit for bit, not just roughly.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wsq/control/factories.h"

namespace wsq {
namespace {

constexpr int kSteps = 300;

/// Per-tuple cost of a noisy paging profile: overhead amortised over the
/// block, a flat transfer cost, and a quadratic penalty past a buffer.
/// The noise stream is seeded per run, so every run sees the same noise.
std::vector<int64_t> Drive(Controller& controller, double scale,
                           uint64_t noise_seed) {
  std::mt19937_64 noise(noise_seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<int64_t> sizes;
  int64_t x = controller.initial_block_size();
  for (int k = 0; k < kSteps; ++k) {
    sizes.push_back(x);
    const double size = static_cast<double>(x);
    const double past_buffer = size > 6000.0 ? size - 6000.0 : 0.0;
    const double y = (120.0 / size + 0.05 + 2e-9 * past_buffer * past_buffer) *
                     (1.0 + 0.1 * unit(noise));
    x = controller.NextBlockSize(scale * y);
  }
  return sizes;
}

struct Case {
  std::string name;
  std::function<Result<std::unique_ptr<Controller>>()> make;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  for (GainMode mode : {GainMode::kConstant, GainMode::kAdaptive}) {
    cases.push_back({std::string("switching_") + std::string(GainModeName(mode)),
                     [mode] {
                       SwitchingConfig config = PaperSwitchingConfig();
                       config.gain_mode = mode;
                       return ControllerFactory::MakeSwitching(config);
                     }});
  }
  for (PhaseCriterion criterion :
       {PhaseCriterion::kSignSwitches, PhaseCriterion::kWindowMeans}) {
    cases.push_back(
        {std::string("hybrid_") + std::string(PhaseCriterionName(criterion)),
         [criterion] {
           HybridConfig config = PaperHybridConfig();
           config.criterion = criterion;
           return ControllerFactory::MakeHybrid(config);
         }});
  }
  cases.push_back({"mimd", [] { return ControllerFactory::MakeMimd({}); }});
  return cases;
}

TEST(ControllerMetamorphicTest, PowerOfTwoScaledResponseTimesGiveIdenticalSizes) {
  for (const Case& c : Cases()) {
    for (uint64_t noise_seed : {1u, 7u, 1234u}) {
      auto reference = c.make();
      ASSERT_TRUE(reference.ok()) << c.name;
      const std::vector<int64_t> expected =
          Drive(*reference.value(), 1.0, noise_seed);
      for (double scale : {0.5, 4.0, 1024.0}) {
        auto scaled = c.make();
        ASSERT_TRUE(scaled.ok()) << c.name;
        EXPECT_EQ(Drive(*scaled.value(), scale, noise_seed), expected)
            << c.name << " noise seed " << noise_seed << " scale " << scale;
      }
    }
  }
}

// The check above is only worth something if the controllers actually
// move: each must visit several sizes on this profile.
TEST(ControllerMetamorphicTest, ControllersExploreTheProfile) {
  for (const Case& c : Cases()) {
    auto controller = c.make();
    ASSERT_TRUE(controller.ok()) << c.name;
    const std::vector<int64_t> sizes = Drive(*controller.value(), 1.0, 1);
    int64_t lo = sizes.front(), hi = sizes.front();
    for (int64_t x : sizes) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    EXPECT_GT(hi - lo, 1000) << c.name;
  }
}

}  // namespace
}  // namespace wsq
