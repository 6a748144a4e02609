// Controller introspection: every controller exposes its internal state
// through DebugState(), and the hybrid supervisor's snapshot is
// cross-checked against the paper's Eq. (4)-(5) phase transition on a
// deterministic response profile.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/snapshot.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/control/hybrid_controller.h"
#include "wsq/control/mimd_controller.h"
#include "wsq/control/model_based_controller.h"
#include "wsq/control/self_tuning_controller.h"
#include "wsq/control/switching_controller.h"
#include "wsq/obs/state_snapshot.h"

namespace wsq {
namespace {

/// Deterministic convex per-tuple response curve with its optimum at
/// 2500 tuples — the stand-in for the paper's Fig. 3 profile shape.
double ConvexCost(int64_t block_size) {
  const double x = static_cast<double>(block_size);
  return 1.0 + 0.2 * ((x - 2500.0) / 1000.0) * ((x - 2500.0) / 1000.0);
}

TEST(ControllerIntrospectionTest, BaseSnapshotHasNameAndSteps) {
  FixedController controller(1200);
  StateSnapshot state = controller.DebugState();
  EXPECT_EQ(*SnapshotFind(state, "name"), "fixed_1200");
  EXPECT_EQ(SnapshotNumber(state, "adaptivity_steps").value(), 0.0);
  EXPECT_EQ(SnapshotNumber(state, "block_size").value(), 1200.0);
}

TEST(ControllerIntrospectionTest, SwitchingExposesGainAndSigns) {
  SwitchingConfig config;
  config.dither_factor = 0.0;  // deterministic
  SwitchingExtremumController controller(config);
  int64_t x = controller.initial_block_size();
  for (int i = 0; i < 10; ++i) {
    x = controller.NextBlockSize(ConvexCost(x));
  }
  StateSnapshot state = controller.DebugState();
  EXPECT_EQ(*SnapshotFind(state, "gain_mode"), "constant_gain");
  EXPECT_EQ(SnapshotNumber(state, "gain").value(), config.b1);
  EXPECT_EQ(SnapshotNumber(state, "b1").value(), config.b1);
  EXPECT_EQ(SnapshotNumber(state, "b2").value(), config.b2);
  EXPECT_EQ(SnapshotNumber(state, "dither_factor").value(), 0.0);
  ASSERT_TRUE(SnapshotNumber(state, "sign_switches").ok());
  ASSERT_TRUE(SnapshotNumber(state, "last_sign").ok());
  // The commanded size in the snapshot matches the controller's output.
  EXPECT_EQ(static_cast<int64_t>(SnapshotNumber(state, "command").value()), x);
}

TEST(ControllerIntrospectionTest, CountSignSwitchesCountsAdjacentFlips) {
  EXPECT_EQ(CountSignSwitches({}), 0);
  EXPECT_EQ(CountSignSwitches({1}), 0);
  EXPECT_EQ(CountSignSwitches({1, 1, 1}), 0);
  EXPECT_EQ(CountSignSwitches({1, -1, 1, -1}), 3);
  EXPECT_EQ(CountSignSwitches({1, 1, -1, -1, 1}), 2);
}

// The Eq. (4)-(5) cross-check: drive the hybrid controller over the
// deterministic convex profile, sample DebugState() every adaptivity
// step, and verify that the phase flips to steady state exactly when the
// sign criterion |sum of the last n' signs| <= s first holds — computed
// independently in the test from the sampled per-step sign terms.
TEST(ControllerIntrospectionTest, HybridPhaseTransitionMatchesEq45) {
  HybridConfig config;
  config.base.dither_factor = 0.0;  // deterministic run
  config.base.b1 = 500.0;
  config.base.averaging_horizon = 1;
  config.criterion = PhaseCriterion::kSignSwitches;
  config.criterion_horizon = 5;
  config.criterion_threshold = 1;
  HybridController controller(config);

  struct Sample {
    std::string phase;
    std::string gain_mode;
    double gain = 0.0;
    int64_t sign_switches = 0;
    int last_sign = 0;
    bool has_sign = false;
  };
  std::vector<Sample> samples;

  int64_t x = controller.initial_block_size();
  for (int step = 0; step < 120; ++step) {
    x = controller.NextBlockSize(ConvexCost(x));
    StateSnapshot state = controller.DebugState();
    Sample sample;
    sample.phase = *SnapshotFind(state, "phase");
    sample.gain_mode = *SnapshotFind(state, "gain_mode");
    sample.gain = SnapshotNumber(state, "gain").value();
    sample.sign_switches =
        static_cast<int64_t>(SnapshotNumber(state, "sign_switches").value());
    if (SnapshotFind(state, "last_sign") != nullptr) {
      sample.last_sign = static_cast<int>(SnapshotNumber(state, "last_sign").value());
      sample.has_sign = true;
    }
    samples.push_back(sample);
    // Eq. (4): the gain mode is slaved to the phase.
    EXPECT_EQ(sample.gain_mode, sample.phase == "transient"
                                    ? "constant_gain"
                                    : "adaptive_gain")
        << "step " << step;
  }

  // The run must reach steady state on a convex deterministic profile.
  size_t transition = samples.size();
  for (size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].phase == "steady_state") {
      transition = i;
      break;
    }
  }
  ASSERT_LT(transition, samples.size()) << "never reached steady state";
  ASSERT_GE(transition, 1u);

  // Reconstruct the per-step sign series from the sampled last_sign
  // values (one new sign per adaptivity step once deltas exist).
  std::vector<int> signs;
  for (size_t i = 0; i <= transition; ++i) {
    if (samples[i].has_sign) signs.push_back(samples[i].last_sign);
  }

  // Eq. (5) at the transition step: the last n' signs nearly cancel.
  const size_t n = static_cast<size_t>(config.criterion_horizon);
  ASSERT_GE(signs.size(), n);
  int sum = 0;
  for (size_t i = signs.size() - n; i < signs.size(); ++i) sum += signs[i];
  EXPECT_LE(std::abs(sum), config.criterion_threshold)
      << "criterion did not hold at the reported transition";

  // ... and at no earlier step with a full window did it hold (otherwise
  // the controller should have flipped there).
  for (size_t end = n; end < signs.size(); ++end) {
    int early = 0;
    for (size_t i = end - n; i < end; ++i) early += signs[i];
    EXPECT_GT(std::abs(early), config.criterion_threshold)
        << "criterion held " << signs.size() - end
        << " sign(s) before the transition";
  }

  // Once steady (no-switch-back flavor), the phase never reverts, the
  // transition count is exactly 1, and sign switches keep accumulating
  // as the saw-tooth oscillates (Eq. 5's rationale).
  for (size_t i = transition; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].phase, "steady_state");
  }
  StateSnapshot final_state = controller.DebugState();
  EXPECT_EQ(SnapshotNumber(final_state, "phase_transitions").value(), 1.0);
  EXPECT_EQ(*SnapshotFind(final_state, "criterion"), "sign_switches");
  EXPECT_EQ(SnapshotNumber(final_state, "criterion_horizon").value(), 5.0);
  EXPECT_GT(samples.back().sign_switches, 0);
  EXPECT_EQ(controller.phase(), GainPhase::kSteadyState);
}

TEST(ControllerIntrospectionTest, MimdExposesGridState) {
  MimdConfig config;
  MimdController controller(config);
  int64_t x = controller.initial_block_size();
  for (int i = 0; i < 6; ++i) x = controller.NextBlockSize(ConvexCost(x));
  StateSnapshot state = controller.DebugState();
  EXPECT_EQ(SnapshotNumber(state, "factor").value(), config.factor);
  ASSERT_TRUE(SnapshotNumber(state, "exponent").ok());
  ASSERT_TRUE(SnapshotNumber(state, "command").ok());
  ASSERT_TRUE(SnapshotNumber(state, "grid_points_visited").ok());
}

TEST(ControllerIntrospectionTest, ModelBasedExposesFitAfterIdentification) {
  ModelBasedConfig config;
  ModelBasedController controller(config);
  int64_t x = controller.initial_block_size();
  // Identification: num_samples * samples_per_size measurements.
  for (int i = 0; i < config.num_samples * config.samples_per_size + 5; ++i) {
    x = controller.NextBlockSize(ConvexCost(x));
    StateSnapshot state = controller.DebugState();
    ASSERT_NE(SnapshotFind(state, "identification_complete"), nullptr);
  }
  StateSnapshot state = controller.DebugState();
  EXPECT_EQ(*SnapshotFind(state, "identification_complete"), "true");
  ASSERT_TRUE(SnapshotNumber(state, "optimum").ok());
  ASSERT_TRUE(SnapshotNumber(state, "fit_rmse").ok());
  ASSERT_TRUE(SnapshotNumber(state, "fit_param_0").ok());
}

TEST(ControllerIntrospectionTest, SelfTuningExposesRlsAndInnerState) {
  SelfTuningConfig config;
  config.enable_rls = true;
  config.controller.base.dither_factor = 0.0;
  SelfTuningController controller(config);

  StateSnapshot during = controller.DebugState();
  EXPECT_EQ(*SnapshotFind(during, "stage"), "identification");
  EXPECT_EQ(*SnapshotFind(during, "rls_enabled"), "true");
  ASSERT_TRUE(SnapshotNumber(during, "rls_covariance_trace").ok());

  int64_t x = controller.initial_block_size();
  for (int i = 0; i < 80 && !controller.in_continuation(); ++i) {
    x = controller.NextBlockSize(ConvexCost(x));
  }
  ASSERT_TRUE(controller.in_continuation());

  StateSnapshot after = controller.DebugState();
  EXPECT_EQ(*SnapshotFind(after, "stage"), "continuation");
  ASSERT_TRUE(SnapshotNumber(after, "seed_estimate").ok());
  ASSERT_TRUE(SnapshotNumber(after, "rls_updates").ok());
  EXPECT_GT(SnapshotNumber(after, "rls_updates").value(), 0.0);
  EXPECT_EQ(SnapshotNumber(after, "rls_forgetting").value(), config.rls_forgetting);
  // RLS covariance contracts as measurements accumulate.
  EXPECT_LT(SnapshotNumber(after, "rls_covariance_trace").value(),
            SnapshotNumber(during, "rls_covariance_trace").value());
  // The driving hybrid controller's state is nested under inner_.
  ASSERT_NE(SnapshotFind(after, "inner_phase"), nullptr);
  ASSERT_TRUE(SnapshotNumber(after, "inner_b1").ok());
}

}  // namespace
}  // namespace wsq
