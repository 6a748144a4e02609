#include "wsq/backend/empirical_backend.h"

#include <memory>
#include <utility>

#include "wsq/backend/fetch_trace.h"
#include "wsq/backend/run_stats.h"

namespace wsq {

EmpiricalBackend::EmpiricalBackend(EmpiricalSetup setup)
    : setup_(std::move(setup)) {}

std::unique_ptr<QueryBackend> EmpiricalBackend::Clone() const {
  return std::make_unique<EmpiricalBackend>(setup_);
}

Result<RunTrace> EmpiricalBackend::RunQuery(Controller* controller,
                                            const RunSpec& spec) {
  return RunQueryKeepingTuples(controller, spec, nullptr);
}

Result<RunTrace> EmpiricalBackend::RunQueryKeepingTuples(
    Controller* controller, const RunSpec& spec, std::vector<Tuple>* rows) {
  if (controller == nullptr) {
    return Status::InvalidArgument("EmpiricalBackend: null controller");
  }
  if (spec.is_schedule()) {
    return Status::FailedPrecondition(
        "EmpiricalBackend: profile schedules are not supported");
  }

  EmpiricalSetup run_setup = setup_;
  if (spec.seed != 0) run_setup.seed = spec.seed;
  const uint64_t run_seed = run_setup.seed;
  Result<std::unique_ptr<QuerySession>> session =
      QuerySession::Create(std::move(run_setup));
  if (!session.ok()) return session.status();

  Result<RunChaos> made = MakeRunChaos(spec, run_seed);
  if (!made.ok()) return made.status();
  RunChaos& chaos = made.value();

  RunObserver* observer = ResolveObserver(spec);
  if (observer != nullptr) {
    // The empirical load model is static per run; one sample marks the
    // level this run executed under (jobs + queries, incl. this one).
    observer->OnServerLoadLevel(
        session.value()->clock().NowMicros(),
        setup_.load.concurrent_jobs + setup_.load.concurrent_queries);
  }
  Result<FetchOutcome> outcome = session.value()->Execute(
      controller, rows, observer, &chaos.policy, chaos.injector_or_null());
  if (!outcome.ok()) return outcome.status();

  RunTrace trace =
      RunTraceFromFetch(outcome.value(), "empirical", controller->name());
  if (chaos.injector.has_value()) trace.fault_log = chaos.injector->log();
  trace.breaker_trips = chaos.policy.breaker_trips();
  ObserveRunSummary(observer, trace);
  return trace;
}

}  // namespace wsq
