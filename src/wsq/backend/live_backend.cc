#include "wsq/backend/live_backend.h"

#include <optional>
#include <utility>

#include "wsq/backend/fetch_trace.h"
#include "wsq/backend/run_stats.h"
#include "wsq/client/block_fetcher.h"
#include "wsq/relation/tuple_serializer.h"

namespace wsq {

LiveBackend::LiveBackend(LiveSetup setup) : setup_(std::move(setup)) {}

std::unique_ptr<QueryBackend> LiveBackend::Clone() const {
  return std::make_unique<LiveBackend>(setup_);
}

Result<RunTrace> LiveBackend::RunQuery(Controller* controller,
                                       const RunSpec& spec) {
  return RunQueryKeepingTuples(controller, spec, nullptr);
}

Result<RunTrace> LiveBackend::RunQueryKeepingTuples(Controller* controller,
                                                    const RunSpec& spec,
                                                    std::vector<Tuple>* rows) {
  if (controller == nullptr) {
    return Status::InvalidArgument("LiveBackend: null controller");
  }
  if (spec.is_schedule()) {
    return Status::FailedPrecondition(
        "LiveBackend: profile schedules are not supported");
  }
  if (spec.fault_plan != nullptr && !spec.fault_plan->empty()) {
    return Status::FailedPrecondition(
        "LiveBackend: client-side fault plans are not supported over a real "
        "network; inject faults server-side (wsqd --fault-plan)");
  }
  if (rows != nullptr && setup_.output_schema == nullptr) {
    return Status::FailedPrecondition(
        "LiveBackend: LiveSetup::output_schema is required to keep tuples");
  }

  // With the fault plan rejected above, the chaos layer is the policy.
  Result<RunChaos> chaos =
      MakeRunChaos(spec, spec.seed != 0 ? spec.seed : setup_.seed);
  if (!chaos.ok()) return chaos.status();
  ResiliencePolicy& policy = chaos.value().policy;

  TcpWsClient client(setup_.host, setup_.port, setup_.client_options);
  RunObserver* observer = ResolveObserver(spec);
  BlockFetcher fetcher(&client, controller, &policy, /*injector=*/nullptr,
                       observer);

  std::optional<TupleSerializer> serializer;
  if (rows != nullptr) serializer.emplace(*setup_.output_schema);

  Result<FetchOutcome> outcome = fetcher.Run(
      setup_.query, serializer.has_value() ? &*serializer : nullptr, rows);
  if (!outcome.ok()) return outcome.status();

  RunTrace trace =
      RunTraceFromFetch(outcome.value(), "live", controller->name());
  trace.breaker_trips = policy.breaker_trips();
  ObserveRunSummary(observer, trace);
  return trace;
}

}  // namespace wsq
