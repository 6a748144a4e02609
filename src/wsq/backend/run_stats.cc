#include "wsq/backend/run_stats.h"

#include <algorithm>

namespace wsq {

RunStats RunStats::FromTrace(const RunTrace& trace) {
  RunStats stats;
  stats.backend_name = trace.backend_name;
  stats.controller_name = trace.controller_name;
  stats.total_time_ms = trace.total_time_ms;
  stats.total_blocks = trace.total_blocks;
  stats.total_tuples = trace.total_tuples;
  stats.total_retries = trace.total_retries;
  stats.session_retries = trace.session_retries;
  stats.retry_time_ms = trace.total_retry_time_ms;
  stats.faults_injected = static_cast<int64_t>(trace.fault_log.size());
  stats.breaker_trips = trace.breaker_trips;

  double block_time_sum = 0.0;
  for (const RunStep& step : trace.steps) {
    stats.block_time_ms.Add(step.block_time_ms);
    stats.per_tuple_ms.Add(step.per_tuple_ms);
    stats.requested_size.Add(static_cast<double>(step.requested_size));
    block_time_sum += step.block_time_ms;
    stats.adaptivity_steps =
        std::max(stats.adaptivity_steps, step.adaptivity_step);
  }
  stats.dead_time_ms = std::max(0.0, trace.total_time_ms - block_time_sum);
  if (trace.total_time_ms > 0.0) {
    stats.throughput_tuples_per_s =
        static_cast<double>(trace.total_tuples) /
        (trace.total_time_ms / 1000.0);
  }
  return stats;
}

void RunStats::RecordTo(MetricsRegistry& registry) const {
  registry.GetCounter("wsq.run.runs_total")->Increment();
  registry.GetCounter("wsq.run.tuples_total")->Increment(total_tuples);
  registry.GetCounter("wsq.run.retries_total")->Increment(total_retries);
  registry.GetCounter("wsq.run.session_retries_total")
      ->Increment(session_retries);
  registry.GetCounter("wsq.run.faults_injected_total")
      ->Increment(faults_injected);
  registry.GetCounter("wsq.run.breaker_trips_total")
      ->Increment(breaker_trips);
  registry.GetHistogram("wsq.run.retry_time_ms")->Record(retry_time_ms);
  registry.GetHistogram("wsq.run.total_time_ms")->Record(total_time_ms);
  registry.GetHistogram("wsq.run.dead_time_ms")->Record(dead_time_ms);
  registry.GetHistogram("wsq.run.throughput_tuples_per_s")
      ->Record(throughput_tuples_per_s);
  registry.GetGauge("wsq.run.last_total_blocks")
      ->Set(static_cast<double>(total_blocks));
  registry.GetGauge("wsq.run.last_adaptivity_steps")
      ->Set(static_cast<double>(adaptivity_steps));
}

void ObserveRunSummary(RunObserver* observer, const RunTrace& trace) {
  if (observer == nullptr || observer->metrics() == nullptr) return;
  RunStats::FromTrace(trace).RecordTo(*observer->metrics());
}

}  // namespace wsq
