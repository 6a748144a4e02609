#include "wsq/exec/parallel_runner.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "wsq/exec/bench_report.h"
#include "wsq/exec/exec_context.h"
#include "wsq/exec/thread_pool.h"

namespace wsq::exec {
namespace {

/// One run: fresh controller, derived seed, optional wall timing.
Status ExecuteRun(const ControllerFactoryFn& make_controller,
                  QueryBackend& backend, const RunSpec& spec, int run,
                  uint64_t base_seed, uint64_t seed_stride,
                  RunTimings* timings, RunTrace* out) {
  std::unique_ptr<Controller> controller = make_controller();
  if (controller == nullptr) {
    return Status::InvalidArgument("RunRepeated: factory returned null");
  }
  RunSpec run_spec = spec;
  run_spec.seed = base_seed + static_cast<uint64_t>(run) * seed_stride;

  std::chrono::steady_clock::time_point start;
  if (timings != nullptr) start = std::chrono::steady_clock::now();

  Result<RunTrace> trace = backend.RunQuery(controller.get(), run_spec);

  if (timings != nullptr) {
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    timings->RecordRunMs(elapsed.count());
  }
  if (!trace.ok()) return trace.status();
  *out = std::move(trace).value();
  return Status::Ok();
}

}  // namespace

Status ForEachRun(int runs, int lanes,
                  const std::function<Status(int run, int lane)>& run_one) {
  if (lanes <= 1) {
    for (int run = 0; run < runs; ++run) {
      WSQ_RETURN_IF_ERROR(run_one(run, 0));
    }
    return Status::Ok();
  }

  // A failure flips `failed` so other lanes stop claiming.
  std::atomic<int> next_run{0};
  std::atomic<bool> failed{false};
  std::vector<Status> run_status(static_cast<size_t>(runs), Status::Ok());
  {
    ThreadPool pool(lanes);
    for (int lane = 0; lane < lanes; ++lane) {
      pool.Submit([&, lane] {
        while (!failed.load(std::memory_order_relaxed)) {
          const int run = next_run.fetch_add(1, std::memory_order_relaxed);
          if (run >= runs) break;
          Status status = run_one(run, lane);
          if (!status.ok()) {
            run_status[static_cast<size_t>(run)] = std::move(status);
            failed.store(true, std::memory_order_relaxed);
          }
        }
      });
    }
    pool.Wait();
  }
  for (const Status& status : run_status) {
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Result<std::vector<RunTrace>> RunTraces(
    const ControllerFactoryFn& make_controller, QueryBackend& backend,
    const RunSpec& spec, int runs, uint64_t base_seed, uint64_t seed_stride,
    int jobs) {
  if (runs < 1) {
    return Status::InvalidArgument("RunRepeated: runs must be >= 1");
  }
  RunTimings* timings = GlobalRunTimings();
  std::vector<RunTrace> traces(static_cast<size_t>(runs));

  int lanes = EffectiveJobs(jobs, runs);

  // Parallel lanes need private backend clones; an uncloneable backend
  // (custom adapters, stateful empirical rigs) degrades to serial.
  std::vector<std::unique_ptr<QueryBackend>> clones;
  if (lanes > 1) {
    clones.reserve(static_cast<size_t>(lanes));
    for (int lane = 0; lane < lanes; ++lane) {
      std::unique_ptr<QueryBackend> clone = backend.Clone();
      if (clone == nullptr) {
        clones.clear();
        lanes = 1;
        break;
      }
      clones.push_back(std::move(clone));
    }
  }

  WSQ_RETURN_IF_ERROR(ForEachRun(runs, lanes, [&](int run, int lane) {
    QueryBackend& lane_backend =
        lanes > 1 ? *clones[static_cast<size_t>(lane)] : backend;
    return ExecuteRun(make_controller, lane_backend, spec, run, base_seed,
                      seed_stride, timings, &traces[static_cast<size_t>(run)]);
  }));
  return traces;
}

}  // namespace wsq::exec
