#include "wsq/control/self_tuning_controller.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/snapshot.h"
#include "wsq/common/logging.h"
#include "wsq/linalg/rls.h"

namespace wsq {
namespace {

SelfTuningConfig BaseConfig(Continuation continuation) {
  SelfTuningConfig config;
  config.identification.model = IdentificationModel::kQuadratic;
  config.identification.num_samples = 6;
  config.identification.samples_per_size = 1;
  config.identification.limits = {100, 20000};
  config.continuation = continuation;
  config.controller.base.b1 = 800.0;
  config.controller.base.b2 = 25.0;
  config.controller.base.dither_factor = 0.0;
  config.controller.base.averaging_horizon = 1;
  config.controller.base.limits = {100, 20000};
  config.controller.base.initial_block_size = 1000;
  config.controller.base.seed = 2;
  return config;
}

double Bowl(double x, double optimum) {
  const double z = (x - optimum) / optimum;
  return 1.0 + z * z;
}

TEST(SelfTuningConfigTest, Validation) {
  EXPECT_TRUE(BaseConfig(Continuation::kHybrid).Validate().ok());
  SelfTuningConfig bad = BaseConfig(Continuation::kHybrid);
  bad.identification.num_samples = 1;
  EXPECT_FALSE(bad.Validate().ok());
  bad = BaseConfig(Continuation::kHybrid);
  bad.rls_forgetting = 1.5;
  EXPECT_FALSE(bad.Validate().ok());
  bad = BaseConfig(Continuation::kHybrid);
  bad.rls_recenter_period = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = BaseConfig(Continuation::kHybrid);
  bad.rls_recenter_tolerance = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(SelfTuningControllerTest, IdentifiesThenSeedsContinuation) {
  SelfTuningController controller(BaseConfig(Continuation::kHybrid));
  EXPECT_FALSE(controller.in_continuation());
  EXPECT_EQ(controller.seed_estimate().status().code(),
            StatusCode::kFailedPrecondition);

  int64_t x = controller.initial_block_size();
  for (int i = 0; i < 6; ++i) {
    x = controller.NextBlockSize(Bowl(static_cast<double>(x), 7500.0));
  }
  EXPECT_TRUE(controller.in_continuation());
  auto seed = controller.seed_estimate();
  ASSERT_TRUE(seed.ok());
  EXPECT_NEAR(static_cast<double>(seed.value()), 7500.0, 500.0);
  // The continuation starts at the seed.
  EXPECT_NEAR(static_cast<double>(x), static_cast<double>(seed.value()),
              1.0);
}

TEST(SelfTuningControllerTest, FixedContinuationHoldsEstimate) {
  SelfTuningController controller(BaseConfig(Continuation::kFixed));
  int64_t x = controller.initial_block_size();
  for (int i = 0; i < 6; ++i) {
    x = controller.NextBlockSize(Bowl(static_cast<double>(x), 7500.0));
  }
  const int64_t estimate = x;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(controller.NextBlockSize(1.0), estimate);
  }
}

TEST(SelfTuningControllerTest, HybridContinuationRefinesTowardOptimum) {
  // Make the fit land off the true optimum by using an asymmetric cost;
  // the hybrid continuation should walk toward the real minimum.
  SelfTuningController controller(BaseConfig(Continuation::kHybrid));
  auto cost = [](double x) {
    // Asymmetric: quadratic + a 1/x term the quadratic fit mismodels.
    return 200.0 / x + 1.0 + 1.5e-9 * (x - 9000.0) * (x - 9000.0);
  };
  int64_t x = controller.initial_block_size();
  for (int i = 0; i < 80; ++i) {
    x = controller.NextBlockSize(cost(static_cast<double>(x)));
  }
  EXPECT_NEAR(static_cast<double>(x), 9000.0, 2500.0);
}

TEST(SelfTuningControllerTest, ConstantAndAdaptiveContinuationsRun) {
  for (Continuation continuation :
       {Continuation::kConstantGain, Continuation::kAdaptiveGain}) {
    SelfTuningController controller(BaseConfig(continuation));
    int64_t x = controller.initial_block_size();
    for (int i = 0; i < 30; ++i) {
      x = controller.NextBlockSize(Bowl(static_cast<double>(x), 7500.0));
      EXPECT_GE(x, 100);
      EXPECT_LE(x, 20000);
    }
    EXPECT_TRUE(controller.in_continuation());
    EXPECT_GT(controller.adaptivity_steps(), 6);
  }
}

TEST(SelfTuningControllerTest, RlsRecentersStagnantContinuation) {
  // Adaptive gain famously stagnates when the optimum moves away
  // (paper Fig. 4(a)); the RLS extension must rescue it: the dither
  // keeps the regressors locally excited, the forgetting factor ages
  // out pre-move data, and the analytic optimum of the refreshed model
  // re-seeds the controller.
  SelfTuningConfig config = BaseConfig(Continuation::kAdaptiveGain);
  config.controller.base.dither_factor = 100.0;  // local excitation
  config.enable_rls = true;
  config.rls_forgetting = 0.9;
  config.rls_recenter_period = 10;
  config.rls_recenter_tolerance = 0.5;
  SelfTuningController controller(config);

  int64_t x = controller.initial_block_size();
  // Identification on a bowl at 4000; the adaptive continuation parks
  // near its seed.
  for (int i = 0; i < 20; ++i) {
    x = controller.NextBlockSize(Bowl(static_cast<double>(x), 4000.0));
  }
  EXPECT_NEAR(static_cast<double>(x), 4000.0, 1200.0);
  // The optimum jumps to 12000. Stagnant adaptive gain would stay near
  // 4000 forever; the RLS model sees exact quadratic data through the
  // dither window and re-centers.
  for (int i = 0; i < 120; ++i) {
    x = controller.NextBlockSize(Bowl(static_cast<double>(x), 12000.0));
  }
  EXPECT_GE(controller.recenter_count(), 1);
  EXPECT_NEAR(static_cast<double>(x), 12000.0, 3000.0);
}

TEST(SelfTuningControllerTest, RlsFailuresWarnOnceAndAreCounted) {
  // Forgetting 0.5 at a held operating point: the unexcited directions
  // of the covariance double every step until it overflows, and from
  // then on every update is rejected. A mirror filter fed the same
  // (command, response) pairs says how many updates must fail.
  SelfTuningConfig config = BaseConfig(Continuation::kFixed);
  config.enable_rls = true;
  config.rls_forgetting = 0.5;
  SelfTuningController controller(config);
  RecursiveLeastSquares mirror(/*num_params=*/3, config.rls_forgetting);

  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  std::vector<std::string> warnings;
  SetLogSink([&warnings](LogLevel level, const std::string& line) {
    if (level == LogLevel::kWarning) warnings.push_back(line);
  });
  int64_t expected_failures = 0;
  int64_t x = controller.initial_block_size();
  for (int i = 0; i < 3000; ++i) {
    const double xd = static_cast<double>(x);
    const double y = Bowl(xd, 4000.0);
    if (!mirror.Update({xd * xd, xd, 1.0}, y).ok()) ++expected_failures;
    x = controller.NextBlockSize(y);
  }
  SetLogSink(nullptr);
  SetLogLevel(saved_level);

  ASSERT_GT(expected_failures, 100);
  EXPECT_EQ(controller.rls_update_failures(), expected_failures);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("RLS update failed"), std::string::npos);
  const StateSnapshot state = controller.DebugState();
  ASSERT_TRUE(SnapshotNumber(state, "rls_update_failures").ok());
  EXPECT_EQ(SnapshotNumber(state, "rls_update_failures").value(),
            static_cast<double>(expected_failures));

  controller.Reset();
  EXPECT_EQ(controller.rls_update_failures(), 0);
}

TEST(SelfTuningControllerTest, ResetRestartsIdentification) {
  SelfTuningController controller(BaseConfig(Continuation::kHybrid));
  int64_t x = controller.initial_block_size();
  for (int i = 0; i < 10; ++i) {
    x = controller.NextBlockSize(Bowl(static_cast<double>(x), 7500.0));
  }
  ASSERT_TRUE(controller.in_continuation());
  controller.Reset();
  EXPECT_FALSE(controller.in_continuation());
  EXPECT_EQ(controller.adaptivity_steps(), 0);
  EXPECT_EQ(controller.recenter_count(), 0);
}

TEST(SelfTuningControllerTest, Names) {
  EXPECT_EQ(SelfTuningController(BaseConfig(Continuation::kHybrid)).name(),
            "model_quadratic+hybrid");
  SelfTuningConfig with_rls = BaseConfig(Continuation::kConstantGain);
  with_rls.enable_rls = true;
  with_rls.identification.model = IdentificationModel::kParabolic;
  EXPECT_EQ(SelfTuningController(with_rls).name(),
            "model_parabolic+constant_gain+rls");
  EXPECT_EQ(ContinuationName(Continuation::kFixed), "fixed");
  EXPECT_EQ(ContinuationName(Continuation::kAdaptiveGain), "adaptive_gain");
}

}  // namespace
}  // namespace wsq
