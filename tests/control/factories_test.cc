#include "wsq/control/factories.h"

#include <gtest/gtest.h>

namespace wsq {
namespace {

TEST(PaperConfigsTest, MatchPaperParameters) {
  const SwitchingConfig sw = PaperSwitchingConfig();
  EXPECT_EQ(sw.b1, 2000.0);
  EXPECT_EQ(sw.b2, 25.0);
  EXPECT_EQ(sw.dither_factor, 25.0);
  EXPECT_EQ(sw.averaging_horizon, 3);
  EXPECT_EQ(sw.limits.min_size, 100);
  EXPECT_EQ(sw.limits.max_size, 20000);
  EXPECT_EQ(sw.initial_block_size, 1000);
  EXPECT_TRUE(sw.Validate().ok());

  const HybridConfig hy = PaperHybridConfig();
  EXPECT_EQ(hy.criterion_horizon, 5);
  EXPECT_EQ(hy.criterion_threshold, 1);
  EXPECT_EQ(hy.criterion, PhaseCriterion::kSignSwitches);
  EXPECT_EQ(hy.flavor, HybridFlavor::kNoSwitchBack);
  EXPECT_TRUE(hy.Validate().ok());

  const ModelBasedConfig mb = PaperModelBasedConfig();
  EXPECT_EQ(mb.num_samples, 6);
  EXPECT_EQ(mb.samples_per_size, 1);
  EXPECT_TRUE(mb.Validate().ok());
}

TEST(ControllerFactoryTest, MakersValidateConfigs) {
  EXPECT_TRUE(ControllerFactory::MakeFixed(1000).ok());
  EXPECT_FALSE(ControllerFactory::MakeFixed(0).ok());

  SwitchingConfig bad_sw = PaperSwitchingConfig();
  bad_sw.b1 = -1;
  EXPECT_FALSE(ControllerFactory::MakeSwitching(bad_sw).ok());
  EXPECT_TRUE(ControllerFactory::MakeSwitching(PaperSwitchingConfig()).ok());

  HybridConfig bad_hy = PaperHybridConfig();
  bad_hy.criterion_horizon = 0;
  EXPECT_FALSE(ControllerFactory::MakeHybrid(bad_hy).ok());
  EXPECT_TRUE(ControllerFactory::MakeHybrid(PaperHybridConfig()).ok());

  MimdConfig bad_mimd;
  bad_mimd.factor = 0.5;
  EXPECT_FALSE(ControllerFactory::MakeMimd(bad_mimd).ok());

  EXPECT_TRUE(
      ControllerFactory::MakeModelBased(PaperModelBasedConfig()).ok());

  SelfTuningConfig st;
  st.identification = PaperModelBasedConfig();
  st.controller = PaperHybridConfig();
  EXPECT_TRUE(ControllerFactory::MakeSelfTuning(st).ok());
}

TEST(ControllerFactoryTest, FromNameKnownControllers) {
  const std::pair<const char*, const char*> cases[] = {
      {"constant", "constant_gain"}, {"adaptive", "adaptive_gain"},
      {"hybrid", "hybrid"},          {"hybrid_s", "hybrid_s"},
      {"mimd", "mimd"},              {"model_quadratic", "model_quadratic"},
      {"model_parabolic", "model_parabolic"},
      {"self_tuning", "model_quadratic+hybrid"}};
  for (const auto& [spec, expected_name] : cases) {
    auto controller = ControllerFactory::FromName(spec);
    ASSERT_TRUE(controller.ok()) << spec;
    EXPECT_EQ(controller.value()->name(), expected_name) << spec;
  }
}

TEST(ControllerFactoryTest, FromNameFixedWithSize) {
  auto controller = ControllerFactory::FromName("fixed:2500");
  ASSERT_TRUE(controller.ok());
  EXPECT_EQ(controller.value()->name(), "fixed_2500");
  EXPECT_EQ(controller.value()->initial_block_size(), 2500);
}

TEST(ControllerFactoryTest, FromNameRejectsBadSpecs) {
  EXPECT_FALSE(ControllerFactory::FromName("unknown").ok());
  EXPECT_FALSE(ControllerFactory::FromName("fixed:").ok());
  EXPECT_FALSE(ControllerFactory::FromName("fixed:abc").ok());
  EXPECT_FALSE(ControllerFactory::FromName("fixed:-5").ok());
  EXPECT_FALSE(ControllerFactory::FromName("fixed:12x").ok());
  EXPECT_FALSE(ControllerFactory::FromName("").ok());
  // Overflowing and absurd sizes are rejected, not silently clamped to
  // LLONG_MAX (which used to crash downstream allocations).
  EXPECT_FALSE(
      ControllerFactory::FromName("fixed:999999999999999999999").ok());
  EXPECT_FALSE(ControllerFactory::FromName("fixed:20000000").ok());
}

TEST(ControllerFactoryTest, CheckNameAgreesWithFromName) {
  for (const char* name :
       {"constant", "adaptive", "hybrid", "hybrid_s", "mimd",
        "model_quadratic", "model_parabolic", "self_tuning", "fixed:500",
        "fixed:1", "fixed:10000000", "unknown", "", "fixed:", "fixed:abc",
        "fixed:-5", "fixed:12x", "fixed:20000000", "Hybrid", "hybrid ",
        "fixed", "mimd:2"}) {
    const Status checked = ControllerFactory::CheckName(name);
    const auto built = ControllerFactory::FromName(name);
    EXPECT_EQ(checked.ok(), built.ok()) << name;
    if (!built.ok()) {
      EXPECT_EQ(checked.ToString(), built.status().ToString()) << name;
    }
  }
}

TEST(ControllerFactoryTest, CreatedControllersAreUsable) {
  for (const char* name :
       {"constant", "adaptive", "hybrid", "hybrid_s", "mimd",
        "model_quadratic", "model_parabolic", "self_tuning", "fixed:500"}) {
    auto controller = ControllerFactory::FromName(name);
    ASSERT_TRUE(controller.ok()) << name;
    int64_t x = controller.value()->initial_block_size();
    EXPECT_GE(x, 1) << name;
    for (int i = 0; i < 20; ++i) {
      x = controller.value()->NextBlockSize(1.0 + 0.001 * i);
      EXPECT_GE(x, 1) << name;
      EXPECT_LE(x, 20000) << name;
    }
    controller.value()->Reset();
    EXPECT_EQ(controller.value()->adaptivity_steps(), 0) << name;
  }
}

TEST(ControllerFactoryTest, FamilyFactoriesBuildThroughValidatedMakers) {
  ConfiguredProfile good;
  good.limits.min_size = 100;
  good.limits.max_size = 20000;
  EXPECT_NE(FixedFactory(700)(), nullptr);
  EXPECT_NE(SwitchingFactory(good, GainMode::kAdaptive)(), nullptr);
  EXPECT_NE(HybridFactory(good)(), nullptr);
  EXPECT_NE(ModelFactory(good, IdentificationModel::kQuadratic)(), nullptr);
  EXPECT_NE(SelfTuningFactory(good, IdentificationModel::kQuadratic,
                              Continuation::kHybrid)(),
            nullptr);
  EXPECT_NE(NamedFactory("hybrid")(), nullptr);

  // A config the maker rejects yields no controller instead of a broken
  // one.
  ConfiguredProfile inverted = good;
  inverted.limits.min_size = 20000;
  inverted.limits.max_size = 100;
  EXPECT_EQ(FixedFactory(0)(), nullptr);
  EXPECT_EQ(SwitchingFactory(inverted, GainMode::kConstant)(), nullptr);
  EXPECT_EQ(HybridFactory(inverted)(), nullptr);
  EXPECT_EQ(ModelFactory(inverted, IdentificationModel::kQuadratic)(),
            nullptr);
  EXPECT_EQ(SelfTuningFactory(inverted, IdentificationModel::kQuadratic,
                              Continuation::kHybrid)(),
            nullptr);
  EXPECT_EQ(NamedFactory("no_such_controller")(), nullptr);
}

}  // namespace
}  // namespace wsq
