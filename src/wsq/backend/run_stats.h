#ifndef WSQ_BACKEND_RUN_STATS_H_
#define WSQ_BACKEND_RUN_STATS_H_

#include "wsq/backend/run_trace.h"
#include "wsq/obs/run_observer.h"

namespace wsq {

/// Folds one finished run into the observer's metrics registry under
/// wsq.run.* metrics, so repeated runs accumulate cross-run
/// distributions: counters for runs, tuples, retries (session retries
/// among them), injected faults and breaker trips; histograms of retry
/// time, total time, dead time (total time not attributable to any
/// block: session open/close, retry timeouts) and throughput in tuples
/// per second; gauges for the last run's blocks and adaptivity steps.
/// Safe on null observer or an observer without metrics (no-op).
void ObserveRunSummary(RunObserver* observer, const RunTrace& trace);

}  // namespace wsq

#endif  // WSQ_BACKEND_RUN_STATS_H_
