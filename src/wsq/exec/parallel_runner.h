#ifndef WSQ_EXEC_PARALLEL_RUNNER_H_
#define WSQ_EXEC_PARALLEL_RUNNER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "wsq/backend/query_backend.h"
#include "wsq/common/status.h"
#include "wsq/control/factories.h"

namespace wsq::exec {

/// The run-lane fan-out every repeated-run harness executes through:
/// calls `run_one(run, lane)` once for each run in [0, runs). One lane
/// runs them in order on the calling thread; more lanes claim runs from
/// a shared cursor on a fixed ThreadPool, `lane` naming the claiming
/// lane. Each call must write only its own run's slot, so results
/// collect in run order whatever the interleaving. After a failure no
/// new runs are claimed; returns the lowest-index failure.
Status ForEachRun(int runs, int lanes,
                  const std::function<Status(int run, int lane)>& run_one);

/// Executes `runs` independent query runs of `make_controller` on
/// `backend` and returns their RunTraces *in run order*. Run `r` is
/// seeded `base_seed + r * seed_stride` — the exact derivation the
/// serial harness has always used — and gets a controller of its own,
/// so the traces are a pure function of (backend config, factory,
/// seeds) and never of the lane count.
///
/// `jobs` <= 0 resolves to DefaultJobs(); the effective lane count is
/// also capped at `runs`. One lane — or a backend whose Clone() returns
/// null — executes serially on the calling thread against `backend`
/// itself, byte-identical to the historical loop. More lanes fan the
/// runs out over a fixed ThreadPool, each lane owning a private
/// backend clone (concurrent runs never share mutable sim state:
/// RNG, clocks, and observability time cursors are all per-clone or
/// per-run).
///
/// When a process-global RunTimings is installed (see bench_report.h),
/// every completed run contributes its wall-clock duration; otherwise
/// no timing work happens at all.
///
/// On the first failing run the harness stops claiming new runs and
/// returns that run's status (the lowest-index failure when several
/// lanes fail together).
Result<std::vector<RunTrace>> RunTraces(
    const ControllerFactoryFn& make_controller, QueryBackend& backend,
    const RunSpec& spec, int runs, uint64_t base_seed, uint64_t seed_stride,
    int jobs = 0);

}  // namespace wsq::exec

#endif  // WSQ_EXEC_PARALLEL_RUNNER_H_
