#include "wsq/backend/run_stats.h"

#include <algorithm>

#include "wsq/obs/metrics.h"

namespace wsq {

void ObserveRunSummary(RunObserver* observer, const RunTrace& trace) {
  if (observer == nullptr || observer->metrics() == nullptr) return;
  MetricsRegistry& registry = *observer->metrics();

  double block_time_sum = 0.0;
  int64_t adaptivity_steps = 0;
  for (const RunStep& step : trace.steps) {
    block_time_sum += step.block_time_ms;
    adaptivity_steps = std::max(adaptivity_steps, step.adaptivity_step);
  }
  const double dead_time_ms =
      std::max(0.0, trace.total_time_ms - block_time_sum);
  const double throughput_tuples_per_s =
      trace.total_time_ms > 0.0 ? static_cast<double>(trace.total_tuples) /
                                      (trace.total_time_ms / 1000.0)
                                : 0.0;

  registry.GetCounter("wsq.run.runs_total")->Increment();
  registry.GetCounter("wsq.run.tuples_total")->Increment(trace.total_tuples);
  registry.GetCounter("wsq.run.retries_total")->Increment(trace.total_retries);
  registry.GetCounter("wsq.run.session_retries_total")
      ->Increment(trace.session_retries);
  registry.GetCounter("wsq.run.faults_injected_total")
      ->Increment(static_cast<int64_t>(trace.fault_log.size()));
  registry.GetCounter("wsq.run.breaker_trips_total")
      ->Increment(trace.breaker_trips);
  registry.GetHistogram("wsq.run.retry_time_ms")
      ->Record(trace.total_retry_time_ms);
  registry.GetHistogram("wsq.run.total_time_ms")->Record(trace.total_time_ms);
  registry.GetHistogram("wsq.run.dead_time_ms")->Record(dead_time_ms);
  registry.GetHistogram("wsq.run.throughput_tuples_per_s")
      ->Record(throughput_tuples_per_s);
  registry.GetGauge("wsq.run.last_total_blocks")
      ->Set(static_cast<double>(trace.total_blocks));
  registry.GetGauge("wsq.run.last_adaptivity_steps")
      ->Set(static_cast<double>(adaptivity_steps));
}

}  // namespace wsq
