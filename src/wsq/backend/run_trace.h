#ifndef WSQ_BACKEND_RUN_TRACE_H_
#define WSQ_BACKEND_RUN_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/fault/fault_plan.h"

namespace wsq {

/// Canonical per-block record of one query run, shared by every
/// execution backend: whichever stack executed the query, one block of
/// the pull loop becomes one `RunStep`, so analysis and figure code
/// never branches on the backend. Both simulators fill it in their
/// loops; the live pull loop's `BlockTrace` is folded into it by
/// `RunTraceFromFetch`.
struct RunStep {
  /// 0-based block index within the run.
  int64_t step = 0;
  /// Block size the controller had commanded for this request.
  int64_t requested_size = 0;
  /// Tuples actually delivered (the last block of a bounded dataset may
  /// be short).
  int64_t received_tuples = 0;
  /// Per-tuple cost the controller observed for this block (ms/tuple) —
  /// the metric fed to Controller::NextBlockSize.
  double per_tuple_ms = 0.0;
  /// Wall time of the block: request issued -> response folded in (ms).
  double block_time_ms = 0.0;
  /// Calls retried after failed exchanges (organic link drops or
  /// injected faults) while fetching this block. Block-only: session
  /// open/close retries are attributed to RunTrace::session_retries,
  /// never to a step.
  int64_t retries = 0;
  /// Controller adaptivity steps completed *after* this block was folded
  /// in; lets analysis group blocks by adaptivity step. Fixed-size
  /// controllers always report 0.
  int64_t adaptivity_step = 0;
};

/// Canonical result of one query run through any `QueryBackend`.
struct RunTrace {
  /// Backend that produced the trace ("profile", "eventsim",
  /// "empirical").
  std::string backend_name;
  /// Controller::name() of the controller that drove the run.
  std::string controller_name;
  /// End-to-end response time (ms). May exceed the sum of per-block
  /// times: session open/close and retry timeouts are dead time that is
  /// charged to the query but belongs to no block.
  double total_time_ms = 0.0;
  int64_t total_blocks = 0;
  int64_t total_tuples = 0;
  /// All retried exchanges of the run: block retries plus session
  /// retries. Invariant (CheckConsistent): the sum of per-step
  /// `retries` plus `session_retries` equals this exactly.
  int64_t total_retries = 0;
  /// Retries of the session open/close calls (empirical stack only;
  /// the simulated backends have no session exchanges and report 0).
  int64_t session_retries = 0;
  /// Dead time of all failed exchanges and backoff waits (ms).
  ///
  /// Retry-time accounting invariant, identical across backends: a
  /// failed exchange costs its (deadline-capped) timeout plus any
  /// backoff, charged to `total_time_ms` and to this field — but to no
  /// step's `block_time_ms`, which times only the completed exchange.
  /// Hence `sum(block_time_ms) + total_retry_time_ms <= total_time_ms`
  /// (CheckConsistent), with equality on backends that have no other
  /// dead time between blocks.
  double total_retry_time_ms = 0.0;
  /// Times the resilience policy's circuit breaker tripped open.
  int64_t breaker_trips = 0;
  /// Faults the chaos layer injected, in injection order — the artifact
  /// the conformance suite compares across backends: for a shared
  /// deterministic FaultPlan all three backends must log the identical
  /// sequence. Empty when the run had no fault plan.
  std::vector<InjectedFault> fault_log;
  std::vector<RunStep> steps;

  /// Commanded block size per step, in order — the y-series behind the
  /// paper's decision figures (Figs. 4-9).
  std::vector<int64_t> RequestedSizes() const;

  /// Size commanded for the last block, or 0 for an empty trace.
  int64_t final_block_size() const;

  /// Verifies the cross-field invariants every backend must uphold:
  /// steps match the totals, per-step fields are sane, block time never
  /// exceeds the end-to-end total, adaptivity steps are monotone.
  /// Returns kInternal naming the first violated invariant. This is the
  /// backend conformance contract; tests run it against all adapters.
  Status CheckConsistent() const;
};

}  // namespace wsq

#endif  // WSQ_BACKEND_RUN_TRACE_H_
