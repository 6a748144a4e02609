#include "wsq/sim/sim_engine.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "wsq/control/fixed_controller.h"
#include "wsq/control/switching_controller.h"
#include "wsq/fault/fault_injector.h"
#include "wsq/sim/profile.h"

namespace wsq {
namespace {

ParametricProfile::Params FlatParams() {
  ParametricProfile::Params p;
  p.name = "flat";
  p.dataset_tuples = 10000;
  p.overhead_ms = 0.0;
  p.per_tuple_ms = 1.0;  // per-tuple cost exactly 1 ms, any block size
  return p;
}

SimOptions Quiet(uint64_t seed = 1) {
  SimOptions options;
  options.noise_amplitude = 0.0;
  options.seed = seed;
  return options;
}

TEST(SimEngineTest, RunQueryAccountsExactTotalOnFlatProfile) {
  ParametricProfile profile(FlatParams());
  SimEngine engine(Quiet());
  FixedController controller(1000);
  Result<RunTrace> result = engine.RunQuery(&controller, profile);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().total_tuples, 10000);
  EXPECT_EQ(result.value().total_blocks, 10);
  EXPECT_NEAR(result.value().total_time_ms, 10000.0, 1e-6);
  ASSERT_EQ(result.value().steps.size(), 10u);
  EXPECT_EQ(result.value().steps[3].requested_size, 1000);
  EXPECT_NEAR(result.value().steps[3].per_tuple_ms, 1.0, 1e-9);
}

TEST(SimEngineTest, TailBlockCountsPartialTuples) {
  ParametricProfile profile(FlatParams());
  SimEngine engine(Quiet());
  FixedController controller(3000);
  Result<RunTrace> result = engine.RunQuery(&controller, profile);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().total_blocks, 4);  // 3+3+3+1K tail
  EXPECT_EQ(result.value().total_tuples, 10000);
  EXPECT_NEAR(result.value().total_time_ms, 10000.0, 1e-6);
}

TEST(SimEngineTest, NoiseIsBoundedUniform) {
  ParametricProfile profile(FlatParams());
  SimOptions options = Quiet(7);
  options.noise_amplitude = 0.2;
  SimEngine engine(options);
  FixedController controller(100);
  Result<RunTrace> result = engine.RunQuery(&controller, profile);
  ASSERT_TRUE(result.ok());
  bool varied = false;
  for (const RunStep& step : result.value().steps) {
    EXPECT_GE(step.per_tuple_ms, 0.8 - 1e-9);
    EXPECT_LE(step.per_tuple_ms, 1.2 + 1e-9);
    if (std::fabs(step.per_tuple_ms - 1.0) > 1e-6) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST(SimEngineTest, SameSeedReproduces) {
  ParametricProfile profile(FlatParams());
  SimOptions options = Quiet(42);
  options.noise_amplitude = 0.3;

  auto run = [&]() {
    SimEngine engine(options);
    FixedController controller(500);
    return engine.RunQuery(&controller, profile).value().total_time_ms;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimEngineTest, DriftMovesTheOptimum) {
  // With heavy positive drift clamped at 2.0, the same block size is
  // evaluated at x/scale, changing the measured value.
  ParametricProfile::Params p = FlatParams();
  p.overhead_ms = 100.0;  // so the value depends on x
  ParametricProfile profile(p);
  SimOptions options = Quiet(3);
  options.drift_sigma = 0.1;
  SimEngine engine(options);
  FixedController controller(1000);
  Result<RunTrace> result = engine.RunQuery(&controller, profile);
  ASSERT_TRUE(result.ok());
  std::set<double> values;
  for (const RunStep& step : result.value().steps) {
    values.insert(step.per_tuple_ms);
  }
  EXPECT_GT(values.size(), 1u);
}

TEST(SimEngineTest, RunScheduleSwitchesProfiles) {
  ParametricProfile::Params cheap = FlatParams();
  cheap.per_tuple_ms = 1.0;
  ParametricProfile::Params expensive = FlatParams();
  expensive.per_tuple_ms = 10.0;
  ParametricProfile a(cheap);
  ParametricProfile b(expensive);

  SimEngine engine(Quiet());
  FixedController controller(1000);
  Result<RunTrace> result =
      engine.RunSchedule(&controller, {&a, &b}, 5, 10);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().steps.size(), 10u);
  EXPECT_NEAR(result.value().steps[0].per_tuple_ms, 1.0, 1e-9);
  EXPECT_NEAR(result.value().steps[4].per_tuple_ms, 1.0, 1e-9);
  EXPECT_NEAR(result.value().steps[5].per_tuple_ms, 10.0, 1e-9);
  EXPECT_NEAR(result.value().steps[9].per_tuple_ms, 10.0, 1e-9);
}

TEST(SimEngineTest, RunScheduleLastProfilePersists) {
  ParametricProfile a(FlatParams());
  SimEngine engine(Quiet());
  FixedController controller(100);
  // total_steps beyond schedule length * steps_per_profile.
  Result<RunTrace> result =
      engine.RunSchedule(&controller, {&a}, 5, 20);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().steps.size(), 20u);
}

TEST(SimEngineTest, InputValidation) {
  ParametricProfile profile(FlatParams());
  SimEngine engine(Quiet());
  FixedController controller(100);
  EXPECT_FALSE(engine.RunQuery(nullptr, profile).ok());
  EXPECT_FALSE(engine.RunSchedule(nullptr, {&profile}, 5, 10).ok());
  EXPECT_FALSE(engine.RunSchedule(&controller, {}, 5, 10).ok());
  EXPECT_FALSE(
      engine.RunSchedule(&controller, {&profile, nullptr}, 5, 10).ok());
  EXPECT_FALSE(engine.RunSchedule(&controller, {&profile}, 0, 10).ok());
  EXPECT_FALSE(engine.RunSchedule(&controller, {&profile}, 5, 0).ok());
}

// An engine given an injector but no policy runs the default config:
// block 0's two injected timeouts are retried within its budget of 2, as
// on every backend, instead of failing the run.
TEST(SimEngineTest, RunWithoutPolicyRetriesOnTheDefaultBudget) {
  FaultPlan plan;
  FaultSpec burst;
  burst.kind = FaultKind::kUnavailability;
  burst.first_block = 0;
  burst.last_block = 0;
  burst.faults_per_block = 2;
  plan.specs.push_back(burst);
  FaultInjector injector(plan, /*run_seed=*/1);

  ParametricProfile profile(FlatParams());
  SimEngine engine(Quiet());
  engine.set_fault_injection(&injector, /*policy=*/nullptr);
  FixedController controller(1000);
  Result<RunTrace> result = engine.RunQuery(&controller, profile);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().total_retries, 2);
  EXPECT_DOUBLE_EQ(result.value().total_retry_time_ms, 2.0 * plan.timeout_ms);
  EXPECT_EQ(result.value().steps[0].retries, 2);
  EXPECT_NEAR(result.value().total_time_ms, 10000.0 + 2.0 * plan.timeout_ms,
              1e-6);
}

TEST(SimEngineTest, ControllerDrivesBlockSizes) {
  // End-to-end: a constant-gain controller fed by the engine must
  // actually change the requested sizes.
  ParametricProfile::Params p = FlatParams();
  p.dataset_tuples = 200000;
  p.overhead_ms = 120.0;
  ParametricProfile profile(p);

  SwitchingConfig config;
  config.b1 = 1000.0;
  config.dither_factor = 0.0;
  config.averaging_horizon = 1;
  config.limits = {100, 20000};
  config.initial_block_size = 1000;
  SwitchingExtremumController controller(config);

  SimEngine engine(Quiet());
  Result<RunTrace> result = engine.RunQuery(&controller, profile);
  ASSERT_TRUE(result.ok());
  std::set<int64_t> sizes;
  for (const RunStep& step : result.value().steps) {
    sizes.insert(step.requested_size);
  }
  EXPECT_GT(sizes.size(), 3u);
}

}  // namespace
}  // namespace wsq
