#include "wsq/control/self_tuning_controller.h"

#include <cmath>
#include <cstdlib>

#include "wsq/common/logging.h"

namespace wsq {

std::string_view ContinuationName(Continuation continuation) {
  switch (continuation) {
    case Continuation::kFixed:
      return "fixed";
    case Continuation::kConstantGain:
      return "constant_gain";
    case Continuation::kAdaptiveGain:
      return "adaptive_gain";
    case Continuation::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

Status SelfTuningConfig::Validate() const {
  WSQ_RETURN_IF_ERROR(identification.Validate());
  WSQ_RETURN_IF_ERROR(controller.Validate());
  if (rls_forgetting <= 0.0 || rls_forgetting > 1.0) {
    return Status::InvalidArgument("rls_forgetting must be in (0, 1]");
  }
  if (rls_recenter_period < 1) {
    return Status::InvalidArgument("rls_recenter_period must be >= 1");
  }
  if (rls_recenter_tolerance <= 0.0) {
    return Status::InvalidArgument("rls_recenter_tolerance must be > 0");
  }
  return Status::Ok();
}

SelfTuningController::SelfTuningController(const SelfTuningConfig& config)
    : config_(config),
      identifier_(config.identification),
      rls_(/*num_params=*/3, config.rls_forgetting) {
  last_commanded_ = identifier_.initial_block_size();
}

std::vector<double> SelfTuningController::Regressors(double x) const {
  if (config_.identification.model == IdentificationModel::kQuadratic) {
    return {x * x, x, 1.0};
  }
  return {1.0 / x, x, 1.0};
}

std::unique_ptr<Controller> SelfTuningController::MakeContinuation(
    int64_t seed) const {
  HybridConfig hybrid = config_.controller;
  hybrid.base.initial_block_size = seed;
  hybrid.base.limits = config_.identification.limits;
  switch (config_.continuation) {
    case Continuation::kFixed:
      return nullptr;
    case Continuation::kConstantGain: {
      SwitchingConfig sw = hybrid.base;
      sw.gain_mode = GainMode::kConstant;
      return std::make_unique<SwitchingExtremumController>(sw);
    }
    case Continuation::kAdaptiveGain: {
      SwitchingConfig sw = hybrid.base;
      sw.gain_mode = GainMode::kAdaptive;
      return std::make_unique<SwitchingExtremumController>(sw);
    }
    case Continuation::kHybrid:
      return std::make_unique<HybridController>(hybrid);
  }
  return nullptr;
}

int64_t SelfTuningController::NextBlockSize(double response_time_ms) {
  if (config_.enable_rls && last_commanded_ >= 1) {
    // Every raw measurement refines the online model, regardless of
    // which phase is driving.
    Status s = rls_.Update(Regressors(static_cast<double>(last_commanded_)),
                           response_time_ms);
    if (!s.ok()) {
      // A degenerate covariance stays degenerate, so every later update
      // fails the same way: warn once, count them all.
      if (rls_update_failures_ == 0) {
        WSQ_LOG(kWarning) << "RLS update failed: " << s.ToString();
      }
      ++rls_update_failures_;
    }
  }

  if (continuation_ == nullptr && !identifier_.identification_complete()) {
    last_commanded_ = identifier_.NextBlockSize(response_time_ms);
    if (identifier_.identification_complete()) {
      seed_estimate_ = identifier_.identified_model().value().optimum;
      continuation_ = MakeContinuation(seed_estimate_);
      if (continuation_ != nullptr) {
        last_commanded_ = continuation_->initial_block_size();
      }
    }
    return last_commanded_;
  }

  if (continuation_ == nullptr) {
    // kFixed continuation: hold the LS estimate.
    last_commanded_ = seed_estimate_;
  } else {
    last_commanded_ = continuation_->NextBlockSize(response_time_ms);
  }
  // The RLS re-centering applies to every continuation mode — a fixed
  // operating point especially benefits when the model detects drift.
  if (config_.enable_rls) {
    ++steps_since_recenter_check_;
    if (steps_since_recenter_check_ >= config_.rls_recenter_period) {
      steps_since_recenter_check_ = 0;
      MaybeRecenter();
    }
  }
  return last_commanded_;
}

void SelfTuningController::MaybeRecenter() {
  if (rls_.num_updates() < 6) return;  // not enough data for a stable model
  bool failed = false;
  const int64_t optimum =
      AnalyticOptimum(config_.identification.model, rls_.params(),
                      config_.identification.limits, &failed);
  if (failed) return;
  const double cur = static_cast<double>(last_commanded_);
  const double drift = std::fabs(static_cast<double>(optimum) - cur) /
                       std::max(cur, 1.0);
  if (drift <= config_.rls_recenter_tolerance) return;

  WSQ_LOG(kInfo) << "self-tuning recenter: " << last_commanded_ << " -> "
                 << optimum;
  continuation_ = MakeContinuation(optimum);
  seed_estimate_ = optimum;
  if (continuation_ != nullptr) {
    last_commanded_ = continuation_->initial_block_size();
  } else {
    last_commanded_ = optimum;
  }
  ++recenter_count_;
}

int64_t SelfTuningController::adaptivity_steps() const {
  return identifier_.adaptivity_steps() +
         (continuation_ != nullptr ? continuation_->adaptivity_steps() : 0);
}

Result<int64_t> SelfTuningController::seed_estimate() const {
  if (!identifier_.identification_complete()) {
    return Status::FailedPrecondition("identification phase still running");
  }
  return seed_estimate_;
}

void SelfTuningController::Reset() {
  identifier_.Reset();
  continuation_.reset();
  seed_estimate_ = 0;
  last_commanded_ = identifier_.initial_block_size();
  rls_.Reset();
  steps_since_recenter_check_ = 0;
  recenter_count_ = 0;
  rls_update_failures_ = 0;
}

std::string SelfTuningController::name() const {
  std::string out = "model_";
  out += IdentificationModelName(config_.identification.model);
  out += "+";
  out += ContinuationName(config_.continuation);
  if (config_.enable_rls) out += "+rls";
  return out;
}

StateSnapshot SelfTuningController::DebugState() const {
  StateSnapshot snapshot = Controller::DebugState();
  snapshot.Add("stage",
               continuation_ != nullptr ? "continuation" : "identification");
  snapshot.Add("continuation", ContinuationName(config_.continuation));
  snapshot.Add("seed_estimate", seed_estimate_);
  snapshot.Add("command", last_commanded_);
  snapshot.Add("rls_enabled", config_.enable_rls);
  if (config_.enable_rls) {
    snapshot.Add("rls_updates", static_cast<int64_t>(rls_.num_updates()));
    snapshot.Add("rls_forgetting", rls_.forgetting());
    snapshot.Add("rls_covariance_trace", rls_.CovarianceTrace());
    snapshot.Add("recenter_count", recenter_count_);
    snapshot.Add("rls_update_failures", rls_update_failures_);
    const std::vector<double>& theta = rls_.params();
    for (size_t i = 0; i < theta.size(); ++i) {
      snapshot.Add("rls_theta_" + std::to_string(i), theta[i]);
    }
  }
  // Nest the driving sub-controller's state under a stable prefix so one
  // flat snapshot still tells the whole story mid-run.
  const Controller* inner = continuation_ != nullptr
                                ? continuation_.get()
                                : static_cast<const Controller*>(&identifier_);
  const StateSnapshot inner_state = inner->DebugState();
  for (const auto& [key, value] : inner_state.entries()) {
    snapshot.Add("inner_" + key, value);
  }
  return snapshot;
}

}  // namespace wsq
