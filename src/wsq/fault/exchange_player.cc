#include "wsq/fault/exchange_player.h"

#include <cmath>

namespace wsq {
namespace {

int64_t Micros(int64_t base, double offset_ms) {
  return base + static_cast<int64_t>(std::llround(offset_ms * 1000.0));
}

}  // namespace

void EmitBreakerTransitions(ResiliencePolicy& policy, RunObserver* observer,
                            int64_t ts_micros) {
  BreakerState from, to;
  while (policy.ConsumeTransition(&from, &to)) {
    if (observer != nullptr) {
      observer->OnBreakerTransition(ts_micros, BreakerStateName(from),
                                    BreakerStateName(to));
    }
  }
}

ExchangePlay PlayExchange(FaultInjector* injector, ResiliencePolicy& policy,
                          int64_t block_index, double now_ms,
                          int64_t block_size, RunObserver* observer,
                          int64_t ts_micros_base) {
  ExchangePlay play;
  if (injector == nullptr) return play;
  while (true) {
    const double attempt_now = now_ms + play.dead_time_ms;
    const AttemptFault fault =
        injector->NextAttempt(block_index, attempt_now);
    if (!fault.faulted) break;
    const double cost = policy.CapCostMs(fault.cost_ms, block_size);
    if (observer != nullptr) {
      observer->OnFaultInjected(Micros(ts_micros_base, play.dead_time_ms),
                                FaultKindName(fault.kind), block_index, cost);
    }
    play.dead_time_ms += cost;
    policy.OnExchangeFailure();
    EmitBreakerTransitions(policy, observer,
                           Micros(ts_micros_base, play.dead_time_ms));
    if (play.retries >= policy.max_retries()) {
      // Budget exhausted: the failed attempt still cost its dead time,
      // but there is no retry to charge backoff for.
      play.completed = false;
      return play;
    }
    ++play.retries;
    play.dead_time_ms += policy.BackoffMs(static_cast<int>(play.retries));
    if (observer != nullptr) {
      observer->OnRetry(Micros(ts_micros_base, play.dead_time_ms), cost);
    }
  }
  play.perturbation =
      injector->OnSuccess(block_index, now_ms + play.dead_time_ms);
  if (play.perturbation.active() && observer != nullptr) {
    // Perturbation faults were appended to the injector's log; surface
    // them on the fault lane too (cost rides inside the block span).
    observer->OnFaultInjected(Micros(ts_micros_base, play.dead_time_ms),
                              play.perturbation.stall_ms > 0.0
                                  ? FaultKindName(FaultKind::kServerStall)
                                  : FaultKindName(FaultKind::kLatencySpike),
                              block_index, 0.0);
  }
  policy.OnExchangeSuccess();
  EmitBreakerTransitions(policy, observer,
                         Micros(ts_micros_base, play.dead_time_ms));
  return play;
}

}  // namespace wsq
