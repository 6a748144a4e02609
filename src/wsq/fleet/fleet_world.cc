#include "wsq/fleet/fleet_world.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>

#include "wsq/common/random.h"
#include "wsq/exec/bench_report.h"
#include "wsq/exec/exec_context.h"
#include "wsq/exec/parallel_runner.h"

namespace wsq::fleet {
namespace {

/// One fleet run: build tenants, run the world, optionally time it.
Status ExecuteFleetRun(const FleetWorldConfig& config, const FleetSpec& spec,
                       uint64_t run_seed, exec::RunTimings* timings,
                       FleetTrace* out) {
  Result<std::vector<TenantSpec>> tenants = spec.BuildTenants(run_seed);
  if (!tenants.ok()) return tenants.status();
  FleetWorldConfig run_config = config;
  run_config.seed = run_seed;

  std::chrono::steady_clock::time_point start;
  if (timings != nullptr) start = std::chrono::steady_clock::now();

  Result<FleetTrace> fleet = RunFleetWorld(run_config, tenants.value());

  if (timings != nullptr) {
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    timings->RecordRunMs(elapsed.count());
  }
  if (!fleet.ok()) return fleet.status();
  *out = std::move(fleet).value();
  return Status::Ok();
}

}  // namespace

Status FleetWorldConfig::Validate() const {
  WSQ_RETURN_IF_ERROR(ClientPathConfig::Validate());
  return load.Validate();
}

Status FleetTrace::CheckConsistent() const {
  double latest = 0.0;
  for (const TenantTrace& lane : tenants) {
    WSQ_RETURN_IF_ERROR(lane.trace.CheckConsistent());
    const double window = lane.completion_time_ms - lane.start_time_ms;
    if (window < 0.0) {
      return Status::Internal("fleet trace: negative tenant window: " +
                              lane.tenant);
    }
    if (std::abs(window - lane.trace.total_time_ms) > 1e-6 * (1.0 + window)) {
      return Status::Internal(
          "fleet trace: lane window does not match total_time_ms: " +
          lane.tenant);
    }
    latest = std::max(latest, lane.completion_time_ms);
  }
  if (!tenants.empty() &&
      std::abs(latest - makespan_ms) > 1e-6 * (1.0 + latest)) {
    return Status::Internal("fleet trace: makespan does not match lanes");
  }
  return Status::Ok();
}

Result<FleetTrace> RunFleetWorld(const FleetWorldConfig& config,
                                 const std::vector<TenantSpec>& tenants) {
  WSQ_RETURN_IF_ERROR(config.Validate());
  if (tenants.empty()) {
    return Status::InvalidArgument("fleet world: no tenants");
  }
  // Each tenant gets one fresh controller and a private stream (network
  // jitter and service noise) plus, optionally, a resilience policy.
  // Stream and policy seeds are functions of (world seed, index) alone —
  // growing the fleet never perturbs existing streams.
  std::vector<std::unique_ptr<Controller>> controllers;
  std::vector<std::unique_ptr<ResiliencePolicy>> policies;
  std::vector<Random> streams;
  streams.reserve(tenants.size());
  std::vector<ClientSpec> clients;
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantSpec& spec = tenants[i];
    controllers.push_back(spec.factory ? spec.factory() : nullptr);
    if (controllers.back() == nullptr) {
      return Status::InvalidArgument(
          "fleet world: tenant without controller: " + spec.name);
    }
    const uint64_t stream_seed = FleetMix64(config.seed ^ FleetMix64(i));
    streams.emplace_back(stream_seed);
    ClientSpec client{spec.dataset_tuples, controllers.back().get(),
                      spec.start_time_ms, &streams.back()};
    if (spec.resilience.has_value()) {
      WSQ_RETURN_IF_ERROR(spec.resilience->Validate());
      policies.push_back(
          std::make_unique<ResiliencePolicy>(*spec.resilience, stream_seed));
      client.policy = policies.back().get();
    }
    clients.push_back(client);
  }

  AdmissionSnapshotServer server(config.load);
  Result<std::vector<TenantTrace>> lanes =
      RunSharedServer(config, server, clients);
  if (!lanes.ok()) return lanes.status();
  FleetTrace fleet;
  fleet.seed = config.seed;
  fleet.tenants = std::move(lanes).value();
  for (size_t i = 0; i < tenants.size(); ++i) {
    TenantTrace& lane = fleet.tenants[i];
    lane.tenant = tenants[i].name;
    lane.trace.backend_name = "fleet";
    fleet.makespan_ms = std::max(fleet.makespan_ms, lane.completion_time_ms);
  }
  return fleet;
}

Result<std::vector<FleetTrace>> RunFleetRepeated(const FleetWorldConfig& config,
                                                 const FleetSpec& spec,
                                                 int runs, uint64_t base_seed,
                                                 int jobs) {
  if (runs < 1) {
    return Status::InvalidArgument("RunFleetRepeated: runs must be >= 1");
  }
  WSQ_RETURN_IF_ERROR(spec.Validate());
  constexpr uint64_t kSeedStride = 104729;  // the repeated-run stride
  exec::RunTimings* timings = exec::GlobalRunTimings();
  std::vector<FleetTrace> fleets(static_cast<size_t>(runs));

  // Whole fleet runs are the unit of parallelism; each writes only its
  // own slot, so collection order is run order.
  WSQ_RETURN_IF_ERROR(exec::ForEachRun(
      runs, exec::EffectiveJobs(jobs, runs), [&](int run, int /*lane*/) {
        return ExecuteFleetRun(
            config, spec, base_seed + static_cast<uint64_t>(run) * kSeedStride,
            timings, &fleets[static_cast<size_t>(run)]);
      }));
  return fleets;
}

}  // namespace wsq::fleet
