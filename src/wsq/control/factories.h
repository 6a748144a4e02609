#ifndef WSQ_CONTROL_FACTORIES_H_
#define WSQ_CONTROL_FACTORIES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "wsq/common/status.h"
#include "wsq/control/controller.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/control/hybrid_controller.h"
#include "wsq/control/mimd_controller.h"
#include "wsq/control/model_based_controller.h"
#include "wsq/control/self_tuning_controller.h"
#include "wsq/control/switching_controller.h"
#include "wsq/control/watchdog_controller.h"
// ConfiguredProfile is a plain aggregate; this is a header-only
// dependency — wsq_control does not link against wsq_sim.
#include "wsq/sim/profile_library.h"

namespace wsq {

/// The switching-controller parameters of the paper's WAN evaluation
/// (Section III-B.1): b1=2000, b2=25, df=25, n=3, x0=1000 tuples,
/// limits [100, 20000]. Tweak fields for the other setups (e.g. b1=1200
/// and an upper limit of 7000 for LAN conf2.1).
SwitchingConfig PaperSwitchingConfig();

/// The hybrid supervisor parameters of the paper: Eq. (5) criterion with
/// n'=5, s=1, no switch-back, no periodic reset, on top of
/// PaperSwitchingConfig().
HybridConfig PaperHybridConfig();

/// The identification parameters of the paper (Section IV-A): 6 samples,
/// one measurement each, quadratic model, limits [100, 20000].
ModelBasedConfig PaperModelBasedConfig();

/// Constructors for every controller family. All return
/// kInvalidArgument on bad configs instead of constructing a broken
/// controller.
class ControllerFactory {
 public:
  static Result<std::unique_ptr<Controller>> MakeFixed(int64_t block_size);
  static Result<std::unique_ptr<Controller>> MakeSwitching(
      const SwitchingConfig& config);
  static Result<std::unique_ptr<Controller>> MakeHybrid(
      const HybridConfig& config);
  static Result<std::unique_ptr<Controller>> MakeMimd(
      const MimdConfig& config);
  static Result<std::unique_ptr<Controller>> MakeModelBased(
      const ModelBasedConfig& config);
  static Result<std::unique_ptr<Controller>> MakeSelfTuning(
      const SelfTuningConfig& config);

  /// Creates a controller from a short name using the paper's standard
  /// parameters; understood names: "fixed:<N>", "constant", "adaptive",
  /// "hybrid", "hybrid_s", "mimd", "model_quadratic", "model_parabolic",
  /// "self_tuning". Used by the examples' command lines.
  static Result<std::unique_ptr<Controller>> FromName(const std::string& name);
};

/// Builds a fresh controller for one run; experiments construct one per
/// repetition so runs are independent (mirrors the paper's "10 runs ...
/// scheduled in a round-robin fashion").
using ControllerFactoryFn = std::function<std::unique_ptr<Controller>()>;

/// Switching-controller config for a library configuration, paper-style:
/// b1 from the config, limits from the config, everything else the
/// paper's standard parameters.
SwitchingConfig BaseFor(const ConfiguredProfile& conf, GainMode mode,
                        uint64_t seed = 42);

/// Per-family factories. Each builds through its validated
/// ControllerFactory maker and yields nullptr when the config is
/// rejected, so a family has exactly one construction path.
ControllerFactoryFn FixedFactory(int64_t size);

ControllerFactoryFn SwitchingFactory(const ConfiguredProfile& conf,
                                     GainMode mode, double b1_override = 0.0);

ControllerFactoryFn HybridFactory(
    const ConfiguredProfile& conf,
    HybridFlavor flavor = HybridFlavor::kNoSwitchBack,
    PhaseCriterion criterion = PhaseCriterion::kSignSwitches,
    int64_t reset_period = 0);

ControllerFactoryFn ModelFactory(const ConfiguredProfile& conf,
                                 IdentificationModel model);

ControllerFactoryFn SelfTuningFactory(const ConfiguredProfile& conf,
                                      IdentificationModel model,
                                      Continuation continuation);

/// Factory over ControllerFactory::FromName ("hybrid", "fixed:<N>", ...);
/// the returned factory yields nullptr for unknown names (repeated-run
/// harnesses surface that as kInvalidArgument).
ControllerFactoryFn NamedFactory(const std::string& name);

/// Wraps every controller `inner` produces in a divergence watchdog
/// (chaos runs use this to guarantee bounded degradation; see
/// WatchdogController). Propagates nullptr from `inner` unchanged.
ControllerFactoryFn WithWatchdog(ControllerFactoryFn inner,
                                 WatchdogConfig config = {});

}  // namespace wsq

#endif  // WSQ_CONTROL_FACTORIES_H_
