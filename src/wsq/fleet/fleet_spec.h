#ifndef WSQ_FLEET_FLEET_SPEC_H_
#define WSQ_FLEET_FLEET_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/control/factories.h"
#include "wsq/fault/resilience_policy.h"

namespace wsq::fleet {

/// One tenant session of a co-scheduled fleet: who it is, what it pulls,
/// when it arrives, and how it behaves.
struct TenantSpec {
  /// Unique within the fleet; becomes the trace lane name and the
  /// `tenant=` label on every exported metric (hostile characters are
  /// escaped by the obs layer's LabeledName).
  std::string name;
  /// Builds a fresh controller per run (the paper's "fresh controller
  /// per repetition" discipline, per tenant).
  ControllerFactoryFn factory;
  /// Tuples this tenant's query returns.
  int64_t dataset_tuples = 0;
  /// When the tenant issues its first request (ms on the shared world
  /// timeline); late starts model queries arriving mid-run (churn).
  double start_time_ms = 0.0;
  /// Optional client-side resilience (the breaker's GovernNextSize runs
  /// in the simulated world; the full retry machinery runs on the live
  /// path). Empty = the default ResilienceConfig.
  std::optional<ResilienceConfig> resilience;
};

/// How tenant start offsets are laid out on the world timeline.
enum class ArrivalProcess {
  kSimultaneous,  // everyone at t = 0 (thundering herd)
  kStaggered,     // tenant i starts at i * stagger_interval_ms
  kJittered,      // staggered plus a seeded uniform offset per tenant
};

/// "<count> tenants driving controller <controller>" — controller names
/// are ControllerFactory::FromName spellings ("hybrid", "mimd",
/// "adaptive", "fixed:500", ...).
struct ControllerMix {
  std::string controller;
  int count = 0;
};

/// Declarative description of a tenant fleet: the controller mix, how
/// big each tenant's query is, and the arrival process. BuildTenants
/// expands it into concrete TenantSpecs; everything seeded derives from
/// the tenant's *index*, so appending tenants to a spec never perturbs
/// the streams of the tenants already in it (the churn-stability
/// property the determinism suite pins).
struct FleetSpec {
  std::vector<ControllerMix> mix;
  int64_t tuples_per_tenant = 6000;
  ArrivalProcess arrival = ArrivalProcess::kSimultaneous;
  /// kStaggered / kJittered: gap between consecutive tenant starts.
  double stagger_interval_ms = 0.0;
  /// kJittered: each tenant adds a uniform draw from [0, jitter) ms.
  double arrival_jitter_ms = 0.0;
  /// Applied to every tenant the spec builds (per-tenant overrides go
  /// through the TenantSpec vector directly).
  std::optional<ResilienceConfig> resilience;

  int TenantCount() const;
  Status Validate() const;

  /// Expands the mix, in order, into TenantSpecs named
  /// "<controller>-<k>" (k counts per controller spelling). Arrival
  /// jitter is drawn from a stream derived from (seed, tenant index).
  /// kInvalidArgument on an invalid spec or unknown controller name.
  Result<std::vector<TenantSpec>> BuildTenants(uint64_t seed) const;
};

/// SplitMix64 finalizer — the seed-derivation mix the fleet uses to give
/// every (seed, tenant index) pair an independent stream. Shared with
/// the world scheduler so spec-derived and world-derived streams agree.
uint64_t FleetMix64(uint64_t x);

}  // namespace wsq::fleet

#endif  // WSQ_FLEET_FLEET_SPEC_H_
