#ifndef WSQ_FAULT_EXCHANGE_PLAYER_H_
#define WSQ_FAULT_EXCHANGE_PLAYER_H_

#include <cstdint>

#include "wsq/fault/fault_injector.h"
#include "wsq/fault/resilience_policy.h"
#include "wsq/obs/run_observer.h"

namespace wsq {

/// Outcome of replaying the injected-fault attempt sequence of one block
/// exchange in virtual time (the simulated backends' path; the empirical
/// stack interleaves real WsClient calls and has its own loop in
/// BlockFetcher, but charges identical costs — that is the cross-backend
/// accounting invariant documented in run_trace.h).
struct ExchangePlay {
  /// False when the retry budget was exhausted before an attempt got
  /// through; the run must fail with kUnavailable.
  bool completed = true;
  /// Failed attempts that were retried (== injected failures when
  /// completed).
  int64_t retries = 0;
  /// Dead time of the failed attempts: per-kind (deadline-capped) fault
  /// costs plus backoff. Charged to the run total, never to the block.
  double dead_time_ms = 0.0;
  /// Perturbation to apply to the completed exchange (identity when the
  /// plan leaves this block alone or the exchange never completed).
  SuccessPerturbation perturbation;
};

/// Replays injected failures for one block request of `block_size`
/// tuples starting at run-clock `now_ms`: failed attempts accrue their
/// capped cost plus backoff into `dead_time_ms` until the injector lets
/// an attempt through or `policy`'s retry budget is exhausted. On a
/// completed exchange the injector's success perturbation is fetched.
/// Fault, retry, and breaker events are emitted into `observer` (may be
/// null) with timestamps `ts_micros_base` + accrued dead time.
///
/// `injector` may be null (no plan): returns an immediate clean
/// completion.
ExchangePlay PlayExchange(FaultInjector* injector, ResiliencePolicy& policy,
                          int64_t block_index, double now_ms,
                          int64_t block_size, RunObserver* observer,
                          int64_t ts_micros_base);

/// Drains `policy`'s pending breaker transitions into `observer`.
/// Callers invoke it after GovernNextSize (PlayExchange drains the ones
/// its own failure/success notifications caused). `observer` may be
/// null.
void EmitBreakerTransitions(ResiliencePolicy& policy, RunObserver* observer,
                            int64_t ts_micros);

}  // namespace wsq

#endif  // WSQ_FAULT_EXCHANGE_PLAYER_H_
