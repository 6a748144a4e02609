#include "wsq/backend/experiment.h"

#include <gtest/gtest.h>

#include "wsq/control/fixed_controller.h"
#include "wsq/control/switching_controller.h"

namespace wsq {
namespace {

ParametricProfile::Params SmallProfile() {
  ParametricProfile::Params p;
  p.name = "small";
  p.dataset_tuples = 20000;
  p.overhead_ms = 50.0;
  p.per_tuple_ms = 0.5;
  return p;
}

SimOptions Noisy(uint64_t seed = 1) {
  SimOptions options;
  options.noise_amplitude = 0.1;
  options.seed = seed;
  return options;
}

ControllerFactoryFn FixedFactory(int64_t size) {
  return [size]() {
    return std::unique_ptr<Controller>(new FixedController(size));
  };
}

TEST(RunRepeatedTest, AggregatesAcrossRuns) {
  ParametricProfile profile(SmallProfile());
  Result<RepeatedRunSummary> summary =
      RunRepeated(FixedFactory(2000), profile, 5, Noisy());
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().controller_name, "fixed_2000");
  EXPECT_EQ(summary.value().total_time_ms.count(), 5u);
  EXPECT_GT(summary.value().total_time_ms.mean(), 0.0);
  // Noise across seeds -> nonzero spread.
  EXPECT_GT(summary.value().total_time_ms.stddev(), 0.0);
  // 20000 tuples at 2000/block = 10 steps.
  EXPECT_EQ(summary.value().mean_decision_per_step.size(), 10u);
  for (double decision : summary.value().mean_decision_per_step) {
    EXPECT_DOUBLE_EQ(decision, 2000.0);
  }
  EXPECT_DOUBLE_EQ(summary.value().final_block_size.mean(), 2000.0);
}

TEST(RunRepeatedTest, NormalizedMean) {
  ParametricProfile profile(SmallProfile());
  Result<RepeatedRunSummary> summary =
      RunRepeated(FixedFactory(2000), profile, 3, Noisy());
  ASSERT_TRUE(summary.ok());
  const double mean = summary.value().total_time_ms.mean();
  EXPECT_NEAR(summary.value().NormalizedMean(mean), 1.0, 1e-12);
  EXPECT_NEAR(summary.value().NormalizedMean(mean / 2.0), 2.0, 1e-12);
  EXPECT_EQ(summary.value().NormalizedMean(0.0), 0.0);
}

TEST(RunRepeatedTest, TruncatesToShortestRun) {
  // An adaptive controller produces different run lengths across seeds;
  // the mean decision trace must be the common prefix.
  ParametricProfile profile(SmallProfile());
  auto factory = []() {
    SwitchingConfig config;
    config.b1 = 500.0;
    config.averaging_horizon = 1;
    config.dither_factor = 25.0;
    config.limits = {100, 20000};
    config.initial_block_size = 500;
    return std::unique_ptr<Controller>(
        new SwitchingExtremumController(config));
  };
  Result<RepeatedRunSummary> summary =
      RunRepeated(factory, profile, 4, Noisy(9));
  ASSERT_TRUE(summary.ok());
  EXPECT_GT(summary.value().mean_decision_per_step.size(), 3u);
  EXPECT_EQ(summary.value().final_block_size.count(), 4u);
}

TEST(RunRepeatedTest, Validation) {
  ParametricProfile profile(SmallProfile());
  EXPECT_FALSE(RunRepeated(FixedFactory(100), profile, 0, Noisy()).ok());
  auto null_factory = []() { return std::unique_ptr<Controller>(); };
  EXPECT_FALSE(RunRepeated(null_factory, profile, 2, Noisy()).ok());
}

TEST(RunRepeatedScheduleTest, RunsFixedStepCount) {
  ParametricProfile profile(SmallProfile());
  Result<RepeatedRunSummary> summary = RunRepeatedSchedule(
      FixedFactory(1000), {&profile}, 10, 30, 3, Noisy());
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().mean_decision_per_step.size(), 30u);
  EXPECT_EQ(summary.value().total_time_ms.count(), 3u);
}

TEST(RunRepeatedScheduleTest, SingleProfileScheduleActsLikeUnboundedRun) {
  // A one-entry schedule: the profile stays active for all steps, even
  // past steps_per_profile (the last entry extends to the end).
  ParametricProfile profile(SmallProfile());
  Result<RepeatedRunSummary> summary = RunRepeatedSchedule(
      FixedFactory(1500), {&profile}, /*steps_per_profile=*/5,
      /*total_steps=*/23, /*runs=*/2, Noisy());
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().mean_decision_per_step.size(), 23u);
  for (double decision : summary.value().mean_decision_per_step) {
    EXPECT_DOUBLE_EQ(decision, 1500.0);
  }
  EXPECT_EQ(summary.value().total_time_ms.count(), 2u);
}

TEST(RunRepeatedScheduleTest, TotalStepsNotMultipleOfStepsPerProfile) {
  // 16 steps over two profiles at 7 steps each: the second profile
  // serves the ragged tail (steps 14 and 15) instead of the schedule
  // running out.
  ParametricProfile cheap(SmallProfile());
  ParametricProfile::Params expensive_params = SmallProfile();
  expensive_params.name = "expensive";
  expensive_params.per_tuple_ms = 5.0;
  ParametricProfile expensive(expensive_params);

  Result<RepeatedRunSummary> summary = RunRepeatedSchedule(
      FixedFactory(1000), {&cheap, &expensive}, /*steps_per_profile=*/7,
      /*total_steps=*/16, /*runs=*/3, Noisy());
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().mean_decision_per_step.size(), 16u);

  // The run must cost more than 16 steps of the cheap profile alone
  // would: the expensive tail profile was genuinely active.
  Result<RepeatedRunSummary> cheap_only = RunRepeatedSchedule(
      FixedFactory(1000), {&cheap}, 7, 16, 3, Noisy());
  ASSERT_TRUE(cheap_only.ok());
  EXPECT_GT(summary.value().total_time_ms.mean(),
            cheap_only.value().total_time_ms.mean());
}

TEST(RunRepeatedScheduleTest, Validation) {
  ParametricProfile profile(SmallProfile());
  EXPECT_FALSE(RunRepeatedSchedule(FixedFactory(100), {&profile}, 10, 30, 0,
                                   Noisy())
                   .ok());
  EXPECT_FALSE(
      RunRepeatedSchedule(FixedFactory(100), {}, 10, 30, 2, Noisy()).ok());
}

}  // namespace
}  // namespace wsq
