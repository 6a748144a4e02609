#include <memory>

#include <gtest/gtest.h>

#include "wsq/control/factories.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/control/model_based_controller.h"
#include "wsq/sim/experiment.h"
#include "wsq/sim/ground_truth.h"
#include "wsq/sim/profile_library.h"

namespace wsq {
namespace {

/// Shape-level regression tests for the paper's headline claims, run on
/// the profile-driven simulation path. These pin down "who wins" facts,
/// not absolute numbers.
class PaperPropertiesTest : public ::testing::Test {
 protected:
  static SimOptions OptionsFor(const ConfiguredProfile& conf,
                               uint64_t seed = 11) {
    SimOptions options;
    options.noise_amplitude = conf.noise_amplitude;
    options.seed = seed;
    return options;
  }

  static SwitchingConfig BaseFor(const ConfiguredProfile& conf,
                                 GainMode mode) {
    SwitchingConfig config = PaperSwitchingConfig();
    config.gain_mode = mode;
    config.b1 = conf.paper_b1;
    config.limits = conf.limits;
    return config;
  }

  static ControllerFactoryFn SwitchingFactory(const ConfiguredProfile& conf,
                                              GainMode mode) {
    return [conf, mode]() {
      return std::unique_ptr<Controller>(
          new SwitchingExtremumController(BaseFor(conf, mode)));
    };
  }

  static ControllerFactoryFn HybridFactory(const ConfiguredProfile& conf) {
    return [conf]() {
      HybridConfig config = PaperHybridConfig();
      config.base = BaseFor(conf, GainMode::kConstant);
      return std::unique_ptr<Controller>(new HybridController(config));
    };
  }

  static ControllerFactoryFn FixedFactory(int64_t size) {
    return [size]() {
      return std::unique_ptr<Controller>(new FixedController(size));
    };
  }

  static double Normalized(const ControllerFactoryFn& factory,
                           const ConfiguredProfile& conf, int runs,
                           double optimum_ms) {
    Result<RepeatedRunSummary> summary =
        RunRepeated(factory, *conf.profile, runs, OptionsFor(conf));
    EXPECT_TRUE(summary.ok());
    return summary.value().NormalizedMean(optimum_ms);
  }

  static double OptimumMs(const ConfiguredProfile& conf) {
    Result<GroundTruth> gt = ComputeGroundTruth(
        *conf.profile, conf.limits, 500, 5, OptionsFor(conf, 3));
    EXPECT_TRUE(gt.ok());
    return gt.value().optimum_mean_ms;
  }
};

TEST_F(PaperPropertiesTest, StaticSmallBlocksCostSeveralTensOfPercent) {
  // Table I, column "1000 tuples": 1.39x - 2.05x of the optimum.
  for (const ConfiguredProfile& conf : {Conf1_1(), Conf1_2(), Conf1_3()}) {
    const double optimum = OptimumMs(conf);
    const double normalized =
        Normalized(FixedFactory(1000), conf, 5, optimum);
    EXPECT_GT(normalized, 1.25) << conf.profile->name();
    EXPECT_LT(normalized, 2.6) << conf.profile->name();
  }
}

TEST_F(PaperPropertiesTest, AdaptiveControllersNearOptimalOnWan) {
  // Table I: constant/adaptive/hybrid all land close to 1.0 on conf1.x.
  for (const ConfiguredProfile& conf : {Conf1_1(), Conf1_3()}) {
    const double optimum = OptimumMs(conf);
    EXPECT_LT(Normalized(SwitchingFactory(conf, GainMode::kConstant), conf,
                         6, optimum),
              1.25)
        << conf.profile->name();
    EXPECT_LT(Normalized(HybridFactory(conf), conf, 6, optimum), 1.25)
        << conf.profile->name();
  }
}

TEST_F(PaperPropertiesTest, HybridBeatsConstantAndAdaptiveOnLan) {
  // Fig. 6/7 + Table III: on the LAN profiles the hybrid controller
  // clearly wins; adaptive gain is the worst adaptive scheme.
  for (const ConfiguredProfile& conf : {Conf2_1(), Conf2_2()}) {
    const double optimum = OptimumMs(conf);
    const double hybrid =
        Normalized(HybridFactory(conf), conf, 8, optimum);
    const double constant = Normalized(
        SwitchingFactory(conf, GainMode::kConstant), conf, 8, optimum);
    const double adaptive = Normalized(
        SwitchingFactory(conf, GainMode::kAdaptive), conf, 8, optimum);
    EXPECT_LT(hybrid, constant) << conf.profile->name();
    EXPECT_LT(constant, adaptive) << conf.profile->name();
    EXPECT_LT(hybrid, 1.30) << conf.profile->name();
  }
}

TEST_F(PaperPropertiesTest, AdaptiveGainOvershootsOnLan) {
  // Fig. 6(b): adaptive gain overshoots toward the upper limit and
  // stagnates there.
  const ConfiguredProfile conf = Conf2_2();
  Result<RepeatedRunSummary> summary =
      RunRepeated(SwitchingFactory(conf, GainMode::kAdaptive),
                  *conf.profile, 6, OptionsFor(conf));
  ASSERT_TRUE(summary.ok());
  EXPECT_GT(summary.value().final_block_size.mean(), 12000.0);
}

TEST_F(PaperPropertiesTest, HybridSuppressesSteadyStateOscillation) {
  // Fig. 7(b): constant gain keeps oscillating, the hybrid goes quiet.
  const ConfiguredProfile conf = Conf2_2();
  auto tail_amplitude = [&](const ControllerFactoryFn& factory) {
    Result<RepeatedRunSummary> summary =
        RunRepeated(factory, *conf.profile, 6, OptionsFor(conf));
    EXPECT_TRUE(summary.ok());
    const auto& steps = summary.value().mean_decision_per_step;
    EXPECT_GT(steps.size(), 30u);
    double lo = 1e18;
    double hi = 0.0;
    for (size_t i = steps.size() - 20; i < steps.size(); ++i) {
      lo = std::min(lo, steps[i]);
      hi = std::max(hi, steps[i]);
    }
    return hi - lo;
  };
  EXPECT_LT(tail_amplitude(HybridFactory(conf)),
            tail_amplitude(SwitchingFactory(conf, GainMode::kConstant)));
}

TEST_F(PaperPropertiesTest, LargerB1ConvergesFasterFromFarAway) {
  // Fig. 5: on conf1.1, the time to reach 80% of the optimum shrinks as
  // b1 grows.
  const ConfiguredProfile conf = Conf1_1();
  auto steps_to_reach = [&](double b1) {
    SwitchingConfig config = BaseFor(conf, GainMode::kConstant);
    config.b1 = b1;
    SimEngine engine(OptionsFor(conf, 17));
    SwitchingExtremumController controller(config);
    Result<SimRunResult> result =
        engine.RunQuery(&controller, *conf.profile);
    EXPECT_TRUE(result.ok());
    const auto& steps = result.value().steps;
    for (size_t i = 0; i < steps.size(); ++i) {
      if (steps[i].block_size >= 12000) return static_cast<int>(i);
    }
    return static_cast<int>(steps.size());
  };
  const int steps_800 = steps_to_reach(800.0);
  const int steps_2000 = steps_to_reach(2000.0);
  EXPECT_LT(steps_2000, steps_800);
}

TEST_F(PaperPropertiesTest, ModelBasedPicksNearOptimalSizes) {
  // Table II: on each tested configuration at least one of the two
  // models lands in the near-optimal region (normalized time <= ~1.2).
  for (const ConfiguredProfile& conf :
       {Conf1_1(), Conf1_3(), Conf2_1(), Conf2_2()}) {
    const double optimum = OptimumMs(conf);
    double best = 1e18;
    for (IdentificationModel model : {IdentificationModel::kQuadratic,
                                      IdentificationModel::kParabolic}) {
      ModelBasedConfig config = PaperModelBasedConfig();
      config.model = model;
      config.limits = conf.limits;
      auto factory = [config]() {
        return std::unique_ptr<Controller>(
            new ModelBasedController(config));
      };
      best = std::min(best, Normalized(factory, conf, 6, optimum));
    }
    // Paper Table II reports 1.025-1.14 for the winning model; our
    // substrate is a little harsher on conf2.1 (the paging penalty is
    // quadratic where Eq. 9 assumes linear), so allow up to 1.35 —
    // still far below the static baselines (1.6-2.8x).
    EXPECT_LT(best, 1.35) << conf.profile->name();
  }
}

TEST_F(PaperPropertiesTest, PeriodicResetHybridTracksProfileSwitches) {
  // Fig. 8: conf1.1 -> conf1.2 -> conf1.3 -> conf1.1, 100 steps each.
  const ConfiguredProfile c11 = Conf1_1();
  const ConfiguredProfile c12 = Conf1_2();
  const ConfiguredProfile c13 = Conf1_3();
  std::vector<const ResponseProfile*> schedule = {
      c11.profile.get(), c12.profile.get(), c13.profile.get(),
      c11.profile.get()};

  HybridConfig config = PaperHybridConfig();
  config.base.b1 = 2000.0;
  config.reset_period = 50;
  auto factory = [config]() {
    return std::unique_ptr<Controller>(new HybridController(config));
  };

  SimOptions options = OptionsFor(c11, 5);
  Result<RepeatedRunSummary> summary =
      RunRepeatedSchedule(factory, schedule, 100, 400, 4, options);
  ASSERT_TRUE(summary.ok());
  const auto& steps = summary.value().mean_decision_per_step;
  ASSERT_EQ(steps.size(), 400u);

  // In each regime's second half the controller must sit in a sensible
  // band for that profile (conf1.x optima are all >= ~10K).
  auto mean_over = [&](size_t from, size_t to) {
    double sum = 0.0;
    for (size_t i = from; i < to; ++i) sum += steps[i];
    return sum / static_cast<double>(to - from);
  };
  EXPECT_GT(mean_over(60, 100), 8000.0);   // tracked conf1.1
  EXPECT_GT(mean_over(260, 300), 8000.0);  // tracked conf1.3
  EXPECT_GT(mean_over(360, 400), 8000.0);  // back on conf1.1
}

}  // namespace
}  // namespace wsq
