#include "wsq/fault/resilience_policy.h"

#include <algorithm>

namespace wsq {
namespace {

/// splitmix64 finalizer (same construction as FaultStreamSeed): derives
/// the jitter stream from (config seed, run seed) without coupling this
/// translation unit to fault_plan.h.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::string_view BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

Status ResilienceConfig::Validate() const {
  if (max_retries_per_call < 0) {
    return Status::InvalidArgument("max_retries_per_call must be >= 0");
  }
  if (backoff_initial_ms < 0.0) {
    return Status::InvalidArgument("backoff_initial_ms must be >= 0");
  }
  if (backoff_multiplier < 1.0) {
    return Status::InvalidArgument("backoff_multiplier must be >= 1");
  }
  if (backoff_max_ms <= 0.0) {
    return Status::InvalidArgument("backoff_max_ms must be > 0");
  }
  if (backoff_jitter < 0.0 || backoff_jitter >= 1.0) {
    return Status::InvalidArgument("backoff_jitter must be in [0, 1)");
  }
  if (deadline_base_ms < 0.0 || deadline_per_tuple_ms < 0.0) {
    return Status::InvalidArgument("deadline terms must be >= 0");
  }
  if (breaker_threshold < 0) {
    return Status::InvalidArgument("breaker_threshold must be >= 0");
  }
  if (breaker_fallback_size < 1) {
    return Status::InvalidArgument("breaker_fallback_size must be >= 1");
  }
  if (breaker_cooldown_blocks < 0) {
    return Status::InvalidArgument("breaker_cooldown_blocks must be >= 0");
  }
  return Status::Ok();
}

ResilienceConfig ResilienceConfig::Chaos() {
  ResilienceConfig config;
  config.max_retries_per_call = 6;
  config.backoff_initial_ms = 10.0;
  config.backoff_multiplier = 2.0;
  config.backoff_max_ms = 1000.0;
  config.backoff_jitter = 0.25;
  config.deadline_base_ms = 2000.0;
  config.deadline_per_tuple_ms = 0.5;
  config.breaker_threshold = 3;
  config.breaker_fallback_size = 500;
  config.breaker_cooldown_blocks = 3;
  return config;
}

ResiliencePolicy::ResiliencePolicy(const ResilienceConfig& config,
                                   uint64_t run_seed)
    : config_(config) {
  if (config_.backoff_jitter > 0.0) {
    rng_.emplace(Mix64(config.seed ^ Mix64(run_seed)));
  }
}

double ResiliencePolicy::BackoffMs(int retry_index) {
  if (config_.backoff_initial_ms <= 0.0 || retry_index < 1) return 0.0;
  double backoff = config_.backoff_initial_ms;
  for (int k = 1; k < retry_index && backoff < config_.backoff_max_ms; ++k) {
    backoff *= config_.backoff_multiplier;
  }
  backoff = std::min(backoff, config_.backoff_max_ms);
  if (config_.backoff_jitter > 0.0) {
    backoff *= rng_->Uniform(1.0 - config_.backoff_jitter,
                            1.0 + config_.backoff_jitter);
  }
  return backoff;
}

double ResiliencePolicy::DeadlineMs(int64_t block_size) const {
  return config_.deadline_base_ms +
         config_.deadline_per_tuple_ms * static_cast<double>(block_size);
}

double ResiliencePolicy::CapCostMs(double cost_ms, int64_t block_size) const {
  if (!HasDeadline()) return cost_ms;
  return std::min(cost_ms, DeadlineMs(block_size));
}

void ResiliencePolicy::TransitionTo(BreakerState next) {
  if (next == state_) return;
  pending_transitions_.emplace_back(state_, next);
  if (next == BreakerState::kOpen) {
    ++trips_;
    open_blocks_ = 0;
  }
  state_ = next;
}

void ResiliencePolicy::OnExchangeFailure() {
  ++consecutive_failures_;
  if (config_.breaker_threshold <= 0) return;
  if (state_ == BreakerState::kHalfOpen) {
    // The probe failed: back to degraded operation.
    TransitionTo(BreakerState::kOpen);
  } else if (state_ == BreakerState::kClosed &&
             consecutive_failures_ >= config_.breaker_threshold) {
    TransitionTo(BreakerState::kOpen);
  }
}

void ResiliencePolicy::OnExchangeSuccess() {
  consecutive_failures_ = 0;
  if (state_ == BreakerState::kHalfOpen) {
    TransitionTo(BreakerState::kClosed);
  }
}

int64_t ResiliencePolicy::GovernWithBreaker(int64_t controller_size) {
  switch (state_) {
    case BreakerState::kClosed:
    case BreakerState::kHalfOpen:
      return controller_size;
    case BreakerState::kOpen:
      if (open_blocks_ >= config_.breaker_cooldown_blocks) {
        // Cooldown served: probe one block at the controller's size.
        TransitionTo(BreakerState::kHalfOpen);
        return controller_size;
      }
      ++open_blocks_;
      return config_.breaker_fallback_size;
  }
  return controller_size;
}

}  // namespace wsq
