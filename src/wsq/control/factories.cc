#include "wsq/control/factories.h"

#include <cerrno>
#include <cstdlib>

namespace wsq {
namespace {

/// The controller `made` holds, or nullptr when its config was rejected.
std::unique_ptr<Controller> OrNull(Result<std::unique_ptr<Controller>> made) {
  if (!made.ok()) return nullptr;
  return std::move(made).value();
}

}  // namespace

SwitchingConfig PaperSwitchingConfig() {
  SwitchingConfig config;
  config.gain_mode = GainMode::kConstant;
  config.b1 = 2000.0;
  config.b2 = 25.0;
  config.dither_factor = 25.0;
  config.averaging_horizon = 3;
  config.limits.min_size = 100;
  config.limits.max_size = 20000;
  config.initial_block_size = 1000;
  config.seed = 42;
  return config;
}

HybridConfig PaperHybridConfig() {
  HybridConfig config;
  config.base = PaperSwitchingConfig();
  config.criterion = PhaseCriterion::kSignSwitches;
  config.criterion_horizon = 5;
  config.criterion_threshold = 1;
  config.flavor = HybridFlavor::kNoSwitchBack;
  config.reset_period = 0;
  return config;
}

ModelBasedConfig PaperModelBasedConfig() {
  ModelBasedConfig config;
  config.model = IdentificationModel::kQuadratic;
  config.num_samples = 6;
  config.samples_per_size = 1;
  config.limits.min_size = 100;
  config.limits.max_size = 20000;
  return config;
}

Result<std::unique_ptr<Controller>> ControllerFactory::MakeFixed(
    int64_t block_size) {
  if (block_size < 1) {
    return Status::InvalidArgument("fixed block size must be >= 1");
  }
  return std::unique_ptr<Controller>(new FixedController(block_size));
}

Result<std::unique_ptr<Controller>> ControllerFactory::MakeSwitching(
    const SwitchingConfig& config) {
  WSQ_RETURN_IF_ERROR(config.Validate());
  return std::unique_ptr<Controller>(
      new SwitchingExtremumController(config));
}

Result<std::unique_ptr<Controller>> ControllerFactory::MakeHybrid(
    const HybridConfig& config) {
  WSQ_RETURN_IF_ERROR(config.Validate());
  return std::unique_ptr<Controller>(new HybridController(config));
}

Result<std::unique_ptr<Controller>> ControllerFactory::MakeMimd(
    const MimdConfig& config) {
  WSQ_RETURN_IF_ERROR(config.Validate());
  return std::unique_ptr<Controller>(new MimdController(config));
}

Result<std::unique_ptr<Controller>> ControllerFactory::MakeModelBased(
    const ModelBasedConfig& config) {
  WSQ_RETURN_IF_ERROR(config.Validate());
  return std::unique_ptr<Controller>(new ModelBasedController(config));
}

Result<std::unique_ptr<Controller>> ControllerFactory::MakeSelfTuning(
    const SelfTuningConfig& config) {
  WSQ_RETURN_IF_ERROR(config.Validate());
  return std::unique_ptr<Controller>(new SelfTuningController(config));
}

Result<std::unique_ptr<Controller>> ControllerFactory::FromName(
    const std::string& name) {
  if (name.rfind("fixed:", 0) == 0) {
    const char* digits = name.c_str() + 6;
    char* end = nullptr;
    errno = 0;
    const long long size = std::strtoll(digits, &end, 10);
    // 10M tuples/block is far beyond any sane configuration; also
    // rejects silent strtoll overflow (errno == ERANGE).
    constexpr long long kMaxFixedSize = 10000000;
    if (end == digits || *end != '\0' || errno == ERANGE || size < 1 ||
        size > kMaxFixedSize) {
      return Status::InvalidArgument("bad fixed controller size in: " + name);
    }
    return MakeFixed(size);
  }
  if (name == "constant") {
    return MakeSwitching(PaperSwitchingConfig());
  }
  if (name == "adaptive") {
    SwitchingConfig config = PaperSwitchingConfig();
    config.gain_mode = GainMode::kAdaptive;
    return MakeSwitching(config);
  }
  if (name == "hybrid") {
    return MakeHybrid(PaperHybridConfig());
  }
  if (name == "hybrid_s") {
    HybridConfig config = PaperHybridConfig();
    config.flavor = HybridFlavor::kSwitchBack;
    return MakeHybrid(config);
  }
  if (name == "mimd") {
    MimdConfig config;
    config.limits = PaperSwitchingConfig().limits;
    config.initial_block_size = 1000;
    return MakeMimd(config);
  }
  if (name == "model_quadratic" || name == "model_parabolic") {
    ModelBasedConfig config = PaperModelBasedConfig();
    config.model = name == "model_quadratic"
                       ? IdentificationModel::kQuadratic
                       : IdentificationModel::kParabolic;
    return MakeModelBased(config);
  }
  if (name == "self_tuning") {
    SelfTuningConfig config;
    config.identification = PaperModelBasedConfig();
    config.controller = PaperHybridConfig();
    config.continuation = Continuation::kHybrid;
    return MakeSelfTuning(config);
  }
  return Status::InvalidArgument("unknown controller name: " + name);
}

SwitchingConfig BaseFor(const ConfiguredProfile& conf, GainMode mode,
                        uint64_t seed) {
  SwitchingConfig config = PaperSwitchingConfig();
  config.gain_mode = mode;
  config.b1 = conf.paper_b1;
  config.limits = conf.limits;
  config.seed = seed;
  return config;
}

ControllerFactoryFn FixedFactory(int64_t size) {
  return [size] { return OrNull(ControllerFactory::MakeFixed(size)); };
}

ControllerFactoryFn SwitchingFactory(const ConfiguredProfile& conf,
                                     GainMode mode, double b1_override) {
  return [conf, mode, b1_override] {
    SwitchingConfig config = BaseFor(conf, mode);
    if (b1_override > 0.0) config.b1 = b1_override;
    return OrNull(ControllerFactory::MakeSwitching(config));
  };
}

ControllerFactoryFn HybridFactory(const ConfiguredProfile& conf,
                                  HybridFlavor flavor,
                                  PhaseCriterion criterion,
                                  int64_t reset_period) {
  return [conf, flavor, criterion, reset_period] {
    HybridConfig config = PaperHybridConfig();
    config.base = BaseFor(conf, GainMode::kConstant);
    config.flavor = flavor;
    config.criterion = criterion;
    config.reset_period = reset_period;
    return OrNull(ControllerFactory::MakeHybrid(config));
  };
}

ControllerFactoryFn ModelFactory(const ConfiguredProfile& conf,
                                 IdentificationModel model) {
  return [conf, model] {
    ModelBasedConfig config = PaperModelBasedConfig();
    config.model = model;
    config.limits = conf.limits;
    return OrNull(ControllerFactory::MakeModelBased(config));
  };
}

ControllerFactoryFn SelfTuningFactory(const ConfiguredProfile& conf,
                                      IdentificationModel model,
                                      Continuation continuation) {
  return [conf, model, continuation] {
    SelfTuningConfig config;
    config.identification = PaperModelBasedConfig();
    config.identification.model = model;
    config.identification.limits = conf.limits;
    config.continuation = continuation;
    config.controller = PaperHybridConfig();
    config.controller.base = BaseFor(conf, GainMode::kConstant);
    return OrNull(ControllerFactory::MakeSelfTuning(config));
  };
}

ControllerFactoryFn NamedFactory(const std::string& name) {
  return [name] { return OrNull(ControllerFactory::FromName(name)); };
}

ControllerFactoryFn WithWatchdog(ControllerFactoryFn inner,
                                 WatchdogConfig config) {
  return [inner = std::move(inner),
          config]() -> std::unique_ptr<Controller> {
    std::unique_ptr<Controller> controller = inner();
    if (controller == nullptr) return nullptr;
    return std::unique_ptr<Controller>(
        new WatchdogController(std::move(controller), config));
  };
}

}  // namespace wsq
