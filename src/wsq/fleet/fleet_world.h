#ifndef WSQ_FLEET_FLEET_WORLD_H_
#define WSQ_FLEET_FLEET_WORLD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "wsq/backend/run_trace.h"
#include "wsq/common/status.h"
#include "wsq/eventsim/event_sim.h"
#include "wsq/fleet/fleet_spec.h"
#include "wsq/server/load_model.h"

namespace wsq::fleet {

/// Environment of the co-scheduled fleet world: one clock, one server
/// capacity model shared by every tenant. Unlike `exec`'s run lanes
/// (independent queries that never see each other) and unlike the
/// processor-sharing EventSimBackend (O(active) bookkeeping per
/// completion), the fleet world runs the shared event core against an
/// AdmissionSnapshotServer: each block is priced by the analytic
/// `LoadModel` at the *live* in-flight count. O(1) per block, so fleets
/// of thousands of tenants stay cheap, while tenants still genuinely
/// interfere: every block a neighbor has in flight inflates your CPU
/// multiplier and shrinks your buffer share. DESIGN.md §3b discusses the
/// approximation. Network legs (ClientPathConfig) draw their jitter from
/// the tenant's private stream.
struct FleetWorldConfig : ClientPathConfig {
  /// Shared server capacity. `load.concurrent_queries` is overwritten
  /// per block with the live in-flight count; `load.concurrent_jobs` /
  /// `memory_pressure` still describe static background load.
  LoadModelConfig load;

  /// World seed; every tenant's private stream derives from
  /// (seed, tenant index), so streams are independent of fleet size.
  uint64_t seed = 1;

  Status Validate() const;
};

/// One tenant's lane of a fleet run (the shared core's lane type).
using TenantTrace = wsq::TenantTrace;

/// All tenant lanes of one fleet run, in TenantSpec input order.
struct FleetTrace {
  uint64_t seed = 0;
  /// Latest tenant completion on the world clock (fleet makespan).
  double makespan_ms = 0.0;
  std::vector<TenantTrace> tenants;

  /// Every lane passes RunTrace::CheckConsistent, lane times tile the
  /// [start, completion] window, and the makespan matches the lanes.
  Status CheckConsistent() const;
};

/// Runs every tenant to completion inside one shared world and returns
/// the stitched fleet trace. Deterministic for (config, tenants):
/// single-threaded event scheduling with FIFO tiebreaks and per-tenant
/// seed-derived streams. kInvalidArgument on bad specs.
Result<FleetTrace> RunFleetWorld(const FleetWorldConfig& config,
                                 const std::vector<TenantSpec>& tenants);

/// Repeated fleet runs fanned out over `jobs` lanes (whole worlds are
/// the unit of parallelism — each run is internally single-threaded).
/// Run r uses world seed `base_seed + r * 104729` and fresh controllers,
/// and results fold in run order, so output is byte-identical whatever
/// `jobs` is (the PR 3 contract). `jobs` <= 0 consults
/// exec::DefaultJobs(). Per-run wall times land in the global RunTimings
/// sink when one is installed.
Result<std::vector<FleetTrace>> RunFleetRepeated(const FleetWorldConfig& config,
                                                 const FleetSpec& spec,
                                                 int runs, uint64_t base_seed,
                                                 int jobs = 0);

}  // namespace wsq::fleet

#endif  // WSQ_FLEET_FLEET_WORLD_H_
