// Property sweeps across whole families of environments: for any
// profile in the family and any seed, the paper's qualitative claims
// about the controllers must hold.

#include <gtest/gtest.h>

#include "wsq/control/factories.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/sim/experiment.h"
#include "wsq/sim/ground_truth.h"
#include "wsq/sim/profile.h"

namespace wsq {
namespace {

/// A family of environments parameterized by where the paging knee sits
/// and how noisy measurements are.
struct Environment {
  double buffer_tuples;
  double noise;
  uint64_t seed;
};

ParametricProfile MakeProfile(const Environment& env) {
  ParametricProfile::Params p;
  p.name = "family";
  p.dataset_tuples = 200000;
  p.overhead_ms = 120.0;
  p.per_tuple_ms = 0.05;
  p.paging_ms = 1.2e-3;
  p.buffer_tuples = env.buffer_tuples;
  return ParametricProfile(p);
}

SimOptions Options(const Environment& env) {
  SimOptions options;
  options.noise_amplitude = env.noise;
  options.seed = env.seed;
  return options;
}

class EnvironmentSweepTest : public ::testing::TestWithParam<Environment> {
 protected:
  static ControllerFactoryFn Hybrid() {
    return []() {
      HybridConfig config = PaperHybridConfig();
      config.base.b1 = 1200.0;
      return std::unique_ptr<Controller>(new HybridController(config));
    };
  }
  static ControllerFactoryFn Constant() {
    return []() {
      SwitchingConfig config = PaperSwitchingConfig();
      config.b1 = 1200.0;
      return std::unique_ptr<Controller>(
          new SwitchingExtremumController(config));
    };
  }
};

TEST_P(EnvironmentSweepTest, HybridStaysWithinFortyPercentOfOptimum) {
  const Environment env = GetParam();
  ParametricProfile profile = MakeProfile(env);
  Result<GroundTruth> gt = ComputeGroundTruth(
      profile, PaperSwitchingConfig().limits, 500, 4, Options(env));
  ASSERT_TRUE(gt.ok());

  Result<RepeatedRunSummary> summary =
      RunRepeated(Hybrid(), profile, 6, Options(env));
  ASSERT_TRUE(summary.ok());
  EXPECT_LT(summary.value().NormalizedMean(gt.value().optimum_mean_ms),
            1.4)
      << "buffer=" << env.buffer_tuples << " noise=" << env.noise;
}

TEST_P(EnvironmentSweepTest, HybridNeverMuchWorseThanConstant) {
  const Environment env = GetParam();
  ParametricProfile profile = MakeProfile(env);

  Result<RepeatedRunSummary> hybrid =
      RunRepeated(Hybrid(), profile, 6, Options(env));
  Result<RepeatedRunSummary> constant =
      RunRepeated(Constant(), profile, 6, Options(env));
  ASSERT_TRUE(hybrid.ok());
  ASSERT_TRUE(constant.ok());
  // Robustness claim: the hybrid may win or tie, but must never blow up
  // relative to its own transient-phase controller.
  EXPECT_LT(hybrid.value().total_time_ms.mean(),
            constant.value().total_time_ms.mean() * 1.15)
      << "buffer=" << env.buffer_tuples << " noise=" << env.noise;
}

TEST_P(EnvironmentSweepTest, CommandsAlwaysWithinLimits) {
  const Environment env = GetParam();
  ParametricProfile profile = MakeProfile(env);
  const BlockSizeLimits limits = PaperSwitchingConfig().limits;

  for (const char* name : {"constant", "adaptive", "hybrid", "mimd"}) {
    auto controller = ControllerFactory::FromName(name);
    ASSERT_TRUE(controller.ok());
    SimEngine engine(Options(env));
    Result<SimRunResult> run =
        engine.RunQuery(controller.value().get(), profile);
    ASSERT_TRUE(run.ok()) << name;
    for (const SimStep& step : run.value().steps) {
      EXPECT_GE(step.block_size, limits.min_size) << name;
      EXPECT_LE(step.block_size, limits.max_size) << name;
    }
  }
}

TEST_P(EnvironmentSweepTest, EveryControllerDeliversTheWholeDataset) {
  const Environment env = GetParam();
  ParametricProfile profile = MakeProfile(env);
  for (const char* name :
       {"fixed:700", "constant", "adaptive", "hybrid", "hybrid_s", "mimd",
        "model_quadratic", "model_parabolic", "self_tuning"}) {
    auto controller = ControllerFactory::FromName(name);
    ASSERT_TRUE(controller.ok());
    SimEngine engine(Options(env));
    Result<SimRunResult> run =
        engine.RunQuery(controller.value().get(), profile);
    ASSERT_TRUE(run.ok()) << name;
    EXPECT_EQ(run.value().total_tuples, profile.dataset_tuples()) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BufferAndNoiseSweep, EnvironmentSweepTest,
    ::testing::Values(Environment{3000.0, 0.05, 101},
                      Environment{3000.0, 0.15, 102},
                      Environment{6000.0, 0.05, 103},
                      Environment{6000.0, 0.15, 104},
                      Environment{9000.0, 0.10, 105},
                      Environment{12000.0, 0.05, 106},
                      Environment{12000.0, 0.20, 107},
                      Environment{16000.0, 0.10, 108}));

/// Seeds sweep: determinism and seed-sensitivity of a full adaptive run.
class SeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweepTest, RunsAreDeterministicPerSeed) {
  ParametricProfile profile = MakeProfile({6000.0, 0.12, GetParam()});
  SimOptions options;
  options.noise_amplitude = 0.12;
  options.seed = GetParam();

  auto run_once = [&]() {
    HybridController controller(PaperHybridConfig());
    SimEngine engine(options);
    return engine.RunQuery(&controller, profile).value().total_time_ms;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(1, 7, 42, 1234, 99991));

}  // namespace
}  // namespace wsq
