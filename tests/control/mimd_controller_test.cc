#include "wsq/control/mimd_controller.h"

#include <cmath>

#include <gtest/gtest.h>

#include "wsq/common/random.h"

namespace wsq {
namespace {

MimdConfig BaseConfig() {
  MimdConfig config;
  config.factor = 1.5;
  config.averaging_horizon = 1;
  config.scale_window = 3;
  config.limits = {100, 20000};
  config.initial_block_size = 1000;
  return config;
}

double Bowl(double x, double optimum) {
  const double z = (x - optimum) / optimum;
  return 1.0 + z * z;
}

TEST(MimdConfigTest, Validation) {
  EXPECT_TRUE(BaseConfig().Validate().ok());
  MimdConfig bad = BaseConfig();
  bad.factor = 1.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = BaseConfig();
  bad.averaging_horizon = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = BaseConfig();
  bad.scale_window = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = BaseConfig();
  bad.limits = {0, 10};
  EXPECT_FALSE(bad.Validate().ok());
  bad = BaseConfig();
  bad.initial_block_size = 0;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(MimdControllerTest, MovesOnGeometricGrid) {
  MimdController controller(BaseConfig());
  EXPECT_EQ(controller.initial_block_size(), 1000);
  // First step: one notch up.
  EXPECT_EQ(controller.NextBlockSize(5.0), 1500);
  EXPECT_EQ(controller.exponent(), 1);
  // Improvement: another notch up, x = 1000 * 1.5^2 = 2250.
  EXPECT_EQ(controller.NextBlockSize(4.0), 2250);
  EXPECT_EQ(controller.exponent(), 2);
}

TEST(MimdControllerTest, ReversesOnDegradation) {
  MimdController controller(BaseConfig());
  controller.NextBlockSize(5.0);  // -> 1500
  controller.NextBlockSize(4.0);  // improving -> 2250
  const int64_t down = controller.NextBlockSize(10.0);  // worse -> back
  EXPECT_EQ(down, 1500);
  EXPECT_EQ(controller.exponent(), 1);
}

TEST(MimdControllerTest, GridValuesClampToLimits) {
  MimdConfig config = BaseConfig();
  config.factor = 4.0;
  MimdController controller(config);
  int64_t x = controller.initial_block_size();
  for (int i = 0; i < 10; ++i) {
    // Always "improving" drives the exponent up; values must clamp.
    x = controller.NextBlockSize(1.0 / (i + 1));
    EXPECT_LE(x, 20000);
  }
  EXPECT_EQ(x, 20000);
  // Exponent must not wind up unboundedly while pinned at the limit.
  EXPECT_LE(controller.exponent(), 6);
}

TEST(MimdControllerTest, ExponentDoesNotWindUpBelowTheMinimum) {
  // Grid 1000 * 4^p: p = -2 is the first exponent pinned at min 100.
  MimdConfig config = BaseConfig();
  config.factor = 4.0;
  MimdController controller(config);
  int64_t x = controller.NextBlockSize(1.0);  // mandatory first step up
  EXPECT_EQ(x, 4000);
  x = controller.NextBlockSize(10.0);  // worse at the larger size: back down
  // From here smaller blocks always answer faster, so the controller
  // keeps shrinking into the floor.
  for (int i = 0; i < 10; ++i) {
    x = controller.NextBlockSize(static_cast<double>(x) / 1000.0);
    EXPECT_GE(x, 100);
    EXPECT_GE(controller.exponent(), -2);
  }
  // Pinned at the floor (dx = 0), the paper sign convention steps up at
  // once instead of first unwinding exponents below -2.
  EXPECT_EQ(x, 250);
}

TEST(MimdControllerTest, ScaleAveragingSmoothsRevisits) {
  // Property: widening the scale-averaging window must not increase the
  // number of direction reversals on a noisy-but-trending input.
  auto reversals_with_window = [](int scale_window) {
    MimdConfig config = BaseConfig();
    config.scale_window = scale_window;
    MimdController controller(config);
    int64_t x = controller.initial_block_size();
    int64_t prev = x;
    int reversals = 0;
    Random rng(13);
    const double base = 10.0;
    for (int i = 0; i < 40; ++i) {
      const double y =
          base / (1.0 + 0.05 * i) * rng.Uniform(0.85, 1.15);
      x = controller.NextBlockSize(y);
      if (x < prev) ++reversals;
      prev = x;
    }
    return reversals;
  };
  EXPECT_LE(reversals_with_window(4), reversals_with_window(1) + 1);
}

TEST(MimdControllerTest, HoversNearBowlOptimum) {
  MimdConfig config = BaseConfig();
  config.factor = 1.3;
  MimdController controller(config);
  int64_t x = controller.initial_block_size();
  double late_mean = 0.0;
  int late = 0;
  for (int i = 0; i < 80; ++i) {
    x = controller.NextBlockSize(Bowl(static_cast<double>(x), 5000.0));
    if (i >= 50) {
      late_mean += static_cast<double>(x);
      ++late;
    }
  }
  late_mean /= late;
  // MIMD is coarse (geometric grid), so the tolerance is wide.
  EXPECT_GT(late_mean, 2500.0);
  EXPECT_LT(late_mean, 10000.0);
}

TEST(MimdControllerTest, AveragingHorizonBatchesMeasurements) {
  MimdConfig config = BaseConfig();
  config.averaging_horizon = 3;
  MimdController controller(config);
  // Two raw measurements: no adaptivity step yet.
  EXPECT_EQ(controller.NextBlockSize(5.0), 1000);
  EXPECT_EQ(controller.NextBlockSize(5.0), 1000);
  EXPECT_EQ(controller.adaptivity_steps(), 0);
  // Third completes the window -> first step.
  EXPECT_EQ(controller.NextBlockSize(5.0), 1500);
  EXPECT_EQ(controller.adaptivity_steps(), 1);
}

TEST(MimdControllerTest, ResetRestoresInitialState) {
  MimdController controller(BaseConfig());
  controller.NextBlockSize(5.0);
  controller.NextBlockSize(4.0);
  controller.Reset();
  EXPECT_EQ(controller.exponent(), 0);
  EXPECT_EQ(controller.adaptivity_steps(), 0);
  EXPECT_EQ(controller.NextBlockSize(5.0), 1500);  // first step again
}

TEST(MimdControllerTest, Name) {
  EXPECT_EQ(MimdController(BaseConfig()).name(), "mimd");
}

}  // namespace
}  // namespace wsq
