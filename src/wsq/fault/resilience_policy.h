#ifndef WSQ_FAULT_RESILIENCE_POLICY_H_
#define WSQ_FAULT_RESILIENCE_POLICY_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "wsq/common/random.h"
#include "wsq/common/status.h"

namespace wsq {

/// Client-side resilience knobs. Every Algorithm 1 pull loop runs a
/// policy; a caller that supplies none gets this default config: 2
/// retries, no backoff, no deadline, breaker off.
struct ResilienceConfig {
  /// Failed exchanges retried per call before the fetch gives up with
  /// kUnavailable. (Attempts = 1 + max_retries_per_call.)
  int max_retries_per_call = 2;

  /// Exponential backoff between retries, charged to the run clock so
  /// traces stay reproducible: retry k (1-based) sleeps
  /// `min(backoff_max_ms, backoff_initial_ms * backoff_multiplier^(k-1))`
  /// scaled by a deterministic jitter factor drawn uniformly from
  /// [1 - backoff_jitter, 1 + backoff_jitter). 0 = no backoff.
  double backoff_initial_ms = 0.0;
  double backoff_multiplier = 2.0;
  double backoff_max_ms = 5000.0;
  double backoff_jitter = 0.0;

  /// Per-call deadline scaled to the requested block size:
  /// `deadline_base_ms + deadline_per_tuple_ms * block_size`. A failed
  /// exchange's dead time is capped at the deadline (the client gives up
  /// waiting sooner than the full timeout). Both 0 = no deadline.
  double deadline_base_ms = 0.0;
  double deadline_per_tuple_ms = 0.0;

  /// Circuit breaker: after `breaker_threshold` *consecutive* failed
  /// exchanges the breaker opens and the pull loop degrades to
  /// `breaker_fallback_size` (a conservative fixed block size) instead
  /// of trusting the adaptive controller. After
  /// `breaker_cooldown_blocks` degraded blocks it half-opens: one probe
  /// block at the controller's commanded size — success closes the
  /// breaker, another failure reopens it. 0 = breaker off.
  int breaker_threshold = 0;
  int64_t breaker_fallback_size = 500;
  int breaker_cooldown_blocks = 4;

  /// Mixed with the run seed for the jitter stream (see
  /// ResiliencePolicy), so parallel lanes replay the serial schedule.
  uint64_t seed = 0;

  Status Validate() const;

  /// The default config, spelled out: what a pull loop runs when its
  /// caller supplies no policy.
  static ResilienceConfig Legacy() { return ResilienceConfig{}; }

  /// An opinionated chaos-survival config used by the conformance suite
  /// and the `--fault-plan=` bench mode: deep retry budget, gentle
  /// backoff, breaker on.
  static ResilienceConfig Chaos();
};

/// Circuit-breaker states, classic semantics.
enum class BreakerState {
  kClosed = 0,   // normal operation, controller in command
  kOpen,         // degraded: conservative fixed block size
  kHalfOpen,     // probing: one block at the controller's size
};

std::string_view BreakerStateName(BreakerState state);

/// Per-run resilience state machine: retry budget, backoff schedule,
/// deadline capping, and the circuit breaker. Deterministic for a given
/// (config, run_seed); not thread-safe — one policy per run, like the
/// FaultInjector. Only a config with backoff jitter seeds a jitter
/// stream, so a default policy costs no more to build than its config.
///
/// Call protocol per exchange attempt: on failure call
/// `OnExchangeFailure()` then, if retrying, charge `BackoffMs(k)` to the
/// clock; on a completed exchange call `OnExchangeSuccess()`. Once per
/// block, after the controller commands the next size, pass it through
/// `GovernNextSize()`. Breaker transitions latch and are drained with
/// `ConsumeTransition` so callers can emit them to the obs layer.
class ResiliencePolicy {
 public:
  /// `config` is copied; it must already be Validate()d.
  ResiliencePolicy(const ResilienceConfig& config, uint64_t run_seed);

  const ResilienceConfig& config() const { return config_; }
  int max_retries() const { return config_.max_retries_per_call; }

  /// Backoff charged before retry `retry_index` (1-based). Draws the
  /// jitter factor from the policy's private stream — call exactly once
  /// per retry, in retry order, to keep runs reproducible.
  double BackoffMs(int retry_index);

  /// Caps a failed exchange's dead time at the per-call deadline for a
  /// request of `block_size` tuples. Identity when no deadline is set.
  double CapCostMs(double cost_ms, int64_t block_size) const;

  /// Whether a deadline is configured (callers may skip plumbing caps
  /// into their transport when it is not).
  bool HasDeadline() const {
    return config_.deadline_base_ms > 0.0 ||
           config_.deadline_per_tuple_ms > 0.0;
  }
  double DeadlineMs(int64_t block_size) const;

  void OnExchangeFailure();
  void OnExchangeSuccess();

  /// Governs the controller's commanded next size through the breaker:
  /// open -> the conservative fallback size; half-open probe and closed
  /// -> the controller's size. Call once per block decision.
  int64_t GovernNextSize(int64_t controller_size) {
    if (config_.breaker_threshold <= 0) return controller_size;
    return GovernWithBreaker(controller_size);
  }

  BreakerState breaker_state() const { return state_; }
  /// Times the breaker transitioned into kOpen.
  int64_t breaker_trips() const { return trips_; }
  int consecutive_failures() const { return consecutive_failures_; }

  /// Pops the oldest unconsumed breaker transition; false when none.
  bool ConsumeTransition(BreakerState* from, BreakerState* to) {
    if (pending_transitions_.empty()) return false;
    *from = pending_transitions_.front().first;
    *to = pending_transitions_.front().second;
    pending_transitions_.erase(pending_transitions_.begin());
    return true;
  }

 private:
  /// GovernNextSize with the breaker on.
  int64_t GovernWithBreaker(int64_t controller_size);
  void TransitionTo(BreakerState next);

  ResilienceConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int open_blocks_ = 0;
  int64_t trips_ = 0;
  std::vector<std::pair<BreakerState, BreakerState>> pending_transitions_;
  /// The jitter stream; engaged iff config_.backoff_jitter > 0. Last, so
  /// the state every exchange touches shares cache lines with config_.
  std::optional<Random> rng_;
};

}  // namespace wsq

#endif  // WSQ_FAULT_RESILIENCE_POLICY_H_
