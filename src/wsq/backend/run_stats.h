#ifndef WSQ_BACKEND_RUN_STATS_H_
#define WSQ_BACKEND_RUN_STATS_H_

#include <cstdint>
#include <string>

#include "wsq/backend/run_trace.h"
#include "wsq/obs/metrics.h"
#include "wsq/obs/run_observer.h"
#include "wsq/stats/running_stats.h"

namespace wsq {

/// Per-run summary distilled from a RunTrace: the totals plus Welford
/// aggregates over the per-block series. Lives next to RunTrace so
/// callers that only want headline numbers (benches, the metrics
/// registry) never re-walk the steps themselves.
struct RunStats {
  std::string backend_name;
  std::string controller_name;

  double total_time_ms = 0.0;
  int64_t total_blocks = 0;
  int64_t total_tuples = 0;
  int64_t total_retries = 0;
  /// Subset of total_retries spent on session open/close exchanges.
  int64_t session_retries = 0;
  /// Dead time of retried exchanges (timeouts, fault costs, backoff).
  double retry_time_ms = 0.0;
  /// Faults the chaos layer injected (0 without a fault plan).
  int64_t faults_injected = 0;
  /// Times the resilience policy's circuit breaker opened.
  int64_t breaker_trips = 0;
  /// Adaptivity steps the controller completed over the whole run.
  int64_t adaptivity_steps = 0;
  /// End-to-end time not attributable to any block (session open/close,
  /// retry timeouts): total_time_ms - sum(block_time_ms).
  double dead_time_ms = 0.0;
  /// Tuples per second over the end-to-end time; 0 for a zero-length run.
  double throughput_tuples_per_s = 0.0;

  /// Aggregates over the per-block series.
  RunningStats block_time_ms;
  RunningStats per_tuple_ms;
  RunningStats requested_size;

  /// Distills `trace` into a summary.
  static RunStats FromTrace(const RunTrace& trace);

  /// Folds this run into `registry` under wsq.run.* metrics, so repeated
  /// runs accumulate cross-run distributions (total time, throughput,
  /// dead time).
  void RecordTo(MetricsRegistry& registry) const;
};

/// Convenience for the backend adapters: distills `trace` and folds it
/// into the observer's metrics registry. Safe on null observer or an
/// observer without metrics (no-op).
void ObserveRunSummary(RunObserver* observer, const RunTrace& trace);

}  // namespace wsq

#endif  // WSQ_BACKEND_RUN_STATS_H_
