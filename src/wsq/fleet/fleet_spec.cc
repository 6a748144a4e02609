#include "wsq/fleet/fleet_spec.h"

#include <map>

#include "wsq/common/random.h"

namespace wsq::fleet {

uint64_t FleetMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

int FleetSpec::TenantCount() const {
  int total = 0;
  for (const ControllerMix& entry : mix) total += entry.count;
  return total;
}

Status FleetSpec::Validate() const {
  if (mix.empty()) {
    return Status::InvalidArgument("fleet spec: empty controller mix");
  }
  for (const ControllerMix& entry : mix) {
    if (entry.controller.empty()) {
      return Status::InvalidArgument("fleet spec: empty controller name");
    }
    if (entry.count < 1) {
      return Status::InvalidArgument("fleet spec: mix count must be >= 1");
    }
  }
  if (tuples_per_tenant < 1) {
    return Status::InvalidArgument("fleet spec: tuples_per_tenant must be >= 1");
  }
  if (stagger_interval_ms < 0.0 || arrival_jitter_ms < 0.0) {
    return Status::InvalidArgument("fleet spec: arrival offsets must be >= 0");
  }
  if (resilience.has_value()) {
    WSQ_RETURN_IF_ERROR(resilience->Validate());
  }
  return Status::Ok();
}

Result<std::vector<TenantSpec>> FleetSpec::BuildTenants(uint64_t seed) const {
  WSQ_RETURN_IF_ERROR(Validate());
  std::vector<TenantSpec> tenants;
  tenants.reserve(static_cast<size_t>(TenantCount()));
  std::map<std::string, int> per_controller;
  size_t index = 0;
  for (const ControllerMix& entry : mix) {
    if (!ControllerFactory::CheckName(entry.controller).ok()) {
      return Status::InvalidArgument("fleet spec: unknown controller: " +
                                     entry.controller);
    }
    const ControllerFactoryFn factory = NamedFactory(entry.controller);
    for (int i = 0; i < entry.count; ++i, ++index) {
      TenantSpec tenant;
      tenant.name =
          entry.controller + "-" + std::to_string(per_controller[entry.controller]++);
      tenant.factory = factory;
      tenant.dataset_tuples = tuples_per_tenant;
      tenant.resilience = resilience;
      switch (arrival) {
        case ArrivalProcess::kSimultaneous:
          tenant.start_time_ms = 0.0;
          break;
        case ArrivalProcess::kStaggered:
          tenant.start_time_ms =
              static_cast<double>(index) * stagger_interval_ms;
          break;
        case ArrivalProcess::kJittered: {
          // Index-derived stream: tenant i's jitter is a function of
          // (seed, i) alone, so growing the fleet never reshuffles the
          // arrivals of the tenants already in it.
          Random rng(FleetMix64(seed ^ FleetMix64(index)));
          tenant.start_time_ms =
              static_cast<double>(index) * stagger_interval_ms +
              rng.Uniform(0.0, 1.0) * arrival_jitter_ms;
          break;
        }
      }
      tenants.push_back(std::move(tenant));
    }
  }
  return tenants;
}

}  // namespace wsq::fleet
