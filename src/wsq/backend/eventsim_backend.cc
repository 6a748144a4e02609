#include "wsq/backend/eventsim_backend.h"

#include <memory>
#include <optional>

#include "wsq/backend/run_stats.h"
#include "wsq/fault/fault_injector.h"

namespace wsq {

EventSimBackend::EventSimBackend(const EventSimConfig& config,
                                 int64_t dataset_tuples, double start_time_ms,
                                 std::vector<BackgroundClientSpec> background)
    : config_(config),
      dataset_tuples_(dataset_tuples),
      start_time_ms_(start_time_ms),
      background_(std::move(background)) {}

std::unique_ptr<QueryBackend> EventSimBackend::Clone() const {
  return std::make_unique<EventSimBackend>(config_, dataset_tuples_,
                                           start_time_ms_, background_);
}

Result<RunTrace> EventSimBackend::RunQuery(Controller* controller,
                                           const RunSpec& spec) {
  if (controller == nullptr) {
    return Status::InvalidArgument("EventSimBackend: null controller");
  }
  if (spec.is_schedule()) {
    return Status::FailedPrecondition(
        "EventSimBackend: profile schedules are not supported");
  }

  EventSimConfig run_config = config_;
  if (spec.seed != 0) run_config.seed = spec.seed;

  // Tracked client first, then the background fleet with fresh
  // controllers owned for the duration of the run.
  RunObserver* observer = ResolveObserver(spec);

  // Chaos layer: only the tracked client sees faults. Both streams
  // derive from the *effective* run seed, so parallel lanes (seed =
  // base + run * 104729) replay the identical fault sequence.
  std::optional<FaultInjector> injector;
  std::optional<ResiliencePolicy> policy;
  if (spec.fault_plan != nullptr && !spec.fault_plan->empty()) {
    WSQ_RETURN_IF_ERROR(spec.fault_plan->Validate());
    injector.emplace(*spec.fault_plan, run_config.seed);
  }
  if (injector.has_value() || spec.resilience != nullptr) {
    const ResilienceConfig resilience =
        spec.resilience != nullptr ? *spec.resilience : ResilienceConfig{};
    WSQ_RETURN_IF_ERROR(resilience.Validate());
    policy.emplace(resilience, run_config.seed);
  }

  WSQ_RETURN_IF_ERROR(run_config.Validate());
  // Every client draws its jitter from one stream seeded by the run.
  Random stream(run_config.seed);
  std::vector<std::unique_ptr<Controller>> background_controllers;
  std::vector<ClientSpec> clients;
  // Only the tracked foreground client is observed; the background fleet
  // exists to generate load, not data.
  clients.push_back({dataset_tuples_, controller, start_time_ms_, &stream,
                     observer, injector.has_value() ? &*injector : nullptr,
                     policy.has_value() ? &*policy : nullptr});
  for (const BackgroundClientSpec& spec_bg : background_) {
    if (!spec_bg.make_controller) {
      return Status::InvalidArgument(
          "EventSimBackend: background client without a factory");
    }
    background_controllers.push_back(spec_bg.make_controller());
    if (background_controllers.back() == nullptr) {
      return Status::InvalidArgument(
          "EventSimBackend: background factory returned null");
    }
    clients.push_back({spec_bg.dataset_tuples,
                       background_controllers.back().get(),
                       spec_bg.start_time_ms, &stream});
  }

  ProcessorSharingServer server(run_config);
  Result<std::vector<TenantTrace>> lanes =
      RunSharedServer(run_config, server, clients);
  if (!lanes.ok()) return lanes.status();
  RunTrace trace = std::move(lanes.value().front().trace);
  trace.backend_name = "eventsim";
  ObserveRunSummary(observer, trace);
  return trace;
}

}  // namespace wsq
