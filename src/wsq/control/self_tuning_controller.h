#ifndef WSQ_CONTROL_SELF_TUNING_CONTROLLER_H_
#define WSQ_CONTROL_SELF_TUNING_CONTROLLER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "wsq/common/status.h"
#include "wsq/control/hybrid_controller.h"
#include "wsq/control/model_based_controller.h"
#include "wsq/control/switching_controller.h"
#include "wsq/linalg/rls.h"

namespace wsq {

/// What runs once the LS identification phase has produced an estimate.
enum class Continuation {
  /// Stay fixed at the estimate (plain model-based behavior).
  kFixed,
  /// Seed a constant-gain switching controller with the estimate — the
  /// "model based + constant gain" curve of Fig. 9. Escapes local minima
  /// the fit missed, at the cost of saw-tooth oscillation.
  kConstantGain,
  /// Seed an adaptive-gain controller — "model based + adaptive gain";
  /// the paper observes it gets stuck when the estimate is off.
  kAdaptiveGain,
  /// Seed the hybrid controller — "model based + hybrid gain"; moves to
  /// the global minimum and then suppresses oscillation.
  kHybrid,
};

std::string_view ContinuationName(Continuation continuation);

struct SelfTuningConfig {
  /// Identification (sampling + fit) phase parameters.
  ModelBasedConfig identification;
  Continuation continuation = Continuation::kHybrid;
  /// Gains/criteria for the continuation controller. `controller.base`'s
  /// initial_block_size and limits are overridden with the LS estimate
  /// and the identification limits respectively.
  HybridConfig controller;

  /// Enables the RLS-with-forgetting extension: every measurement keeps
  /// refining the model online; when the analytic optimum drifts far from
  /// the continuation controller's neighborhood, the controller is
  /// re-seeded. This implements the "self-tuning extremum control"
  /// direction the paper leaves as future work.
  bool enable_rls = false;
  /// Forgetting factor lambda in (0, 1]; smaller tracks faster.
  double rls_forgetting = 0.98;
  /// Adaptivity steps between drift checks.
  int64_t rls_recenter_period = 25;
  /// Relative drift |x*_new - x_cur| / x_cur that triggers re-seeding.
  double rls_recenter_tolerance = 0.25;

  Status Validate() const;
};

/// Self-tuning controller: LS system identification bootstraps the
/// operating point, then a switching/hybrid extremum controller takes
/// over from that estimate (paper Section IV-B, Fig. 9), eliminating the
/// need for a manually chosen initial block size. Optionally keeps the
/// model alive via recursive least squares with forgetting.
class SelfTuningController final : public Controller {
 public:
  explicit SelfTuningController(const SelfTuningConfig& config);

  int64_t initial_block_size() const override {
    return identifier_.initial_block_size();
  }
  int64_t NextBlockSize(double response_time_ms) override;
  int64_t adaptivity_steps() const override;
  void Reset() override;
  std::string name() const override;
  StateSnapshot DebugState() const override;

  const SelfTuningConfig& config() const { return config_; }

  /// True once the identification phase finished and the continuation
  /// controller is driving.
  bool in_continuation() const { return continuation_ != nullptr; }

  /// The LS estimate used to seed the continuation; FailedPrecondition
  /// during the identification phase.
  Result<int64_t> seed_estimate() const;

  /// Number of RLS-triggered re-centerings so far.
  int64_t recenter_count() const { return recenter_count_; }

  /// Number of RLS updates rejected so far (only the first is logged).
  int64_t rls_update_failures() const { return rls_update_failures_; }

 private:
  /// Builds the continuation controller seeded at `seed`.
  std::unique_ptr<Controller> MakeContinuation(int64_t seed) const;

  /// Regressor vector for the configured model family at block size x.
  std::vector<double> Regressors(double x) const;

  void MaybeRecenter();

  SelfTuningConfig config_;
  ModelBasedController identifier_;
  std::unique_ptr<Controller> continuation_;
  int64_t seed_estimate_ = 0;
  int64_t last_commanded_ = 0;

  RecursiveLeastSquares rls_;
  int64_t steps_since_recenter_check_ = 0;
  int64_t recenter_count_ = 0;
  int64_t rls_update_failures_ = 0;
};

}  // namespace wsq

#endif  // WSQ_CONTROL_SELF_TUNING_CONTROLLER_H_
