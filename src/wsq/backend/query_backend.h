#ifndef WSQ_BACKEND_QUERY_BACKEND_H_
#define WSQ_BACKEND_QUERY_BACKEND_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "wsq/backend/run_trace.h"
#include "wsq/common/status.h"
#include "wsq/control/controller.h"
#include "wsq/fault/fault_injector.h"
#include "wsq/fault/fault_plan.h"
#include "wsq/fault/resilience_policy.h"
#include "wsq/obs/run_observer.h"
#include "wsq/sim/profile.h"

namespace wsq {

/// Parameters of one query run through a `QueryBackend`.
struct RunSpec {
  /// Seed for this run; repeated-run harnesses vary it so runs are
  /// independent. 0 means "use the backend's configured base seed".
  uint64_t seed = 0;

  /// Observability sink for this run (metrics + trace events), or null
  /// to fall back to the process-global observer (see
  /// SetGlobalRunObserver). Not owned; must outlive the run. When both
  /// are null — the default — backends emit nothing and take a single
  /// pointer test per event site.
  RunObserver* observer = nullptr;

  /// Optional profile-schedule section (the paper's Fig. 8 methodology):
  /// when `total_steps` > 0 the run is a long-lived query of exactly
  /// `total_steps` adaptivity steps where `schedule[i]` is active for
  /// steps [i * steps_per_profile, (i+1) * steps_per_profile) and the
  /// last entry stays active through the end; the dataset is treated as
  /// unbounded. Only backends with SupportsSchedules() can execute it —
  /// the others return kFailedPrecondition.
  std::vector<const ResponseProfile*> schedule;
  int64_t steps_per_profile = 0;
  int64_t total_steps = 0;

  /// Scripted chaos for this run, honored by every backend: the plan is
  /// replayed by a per-run FaultInjector seeded from (plan.seed, the
  /// effective run seed), so repeated-run harnesses and parallel lanes
  /// replay identical fault sequences. Null (the default) = no faults.
  /// Not owned; must outlive the run.
  const FaultPlan* fault_plan = nullptr;

  /// Resilience policy configuration for this run's pull loop (retry
  /// budget, backoff, deadlines, circuit breaker). Null = the default
  /// ResilienceConfig (2 retries, no backoff, no breaker). Not owned;
  /// must outlive the run.
  const ResilienceConfig* resilience = nullptr;

  bool is_schedule() const { return total_steps > 0; }
};

/// The observer a backend should emit into for `spec`: the per-run one
/// when set, else the process-global one, else null (observability off).
inline RunObserver* ResolveObserver(const RunSpec& spec) {
  return spec.observer != nullptr ? spec.observer : GlobalRunObserver();
}

/// The chaos layer of one run: the injector replaying
/// RunSpec::fault_plan, absent without a plan, and the resilience policy
/// governing the pull loop. The injector pointer stays valid while this
/// object lives where it was built.
struct RunChaos {
  std::optional<FaultInjector> injector;
  ResiliencePolicy policy;

  FaultInjector* injector_or_null() {
    return injector.has_value() ? &*injector : nullptr;
  }
};

/// Builds `spec`'s chaos layer — the one place every backend gets it
/// from. An injector exists iff the spec has a non-empty fault plan; the
/// policy always exists, from spec.resilience or the default
/// ResilienceConfig. Both streams derive from `run_seed`, the
/// *effective* run seed, so parallel lanes (seed = base + run * 104729)
/// replay the identical fault sequence as the serial path and as every
/// other backend. Returns the plan's or the config's validation error.
Result<RunChaos> MakeRunChaos(const RunSpec& spec, uint64_t run_seed);

/// One execution stack that can drain a query under a block-size
/// controller — the unifying interface over the reproduction's three
/// methodologies (mirroring the paper's dual MATLAB-simulator /
/// physical-testbed evaluation):
///
///  * ProfileBackend   — profile-driven SimEngine (Sec. III-C / IV-B);
///  * EventSimBackend  — event-driven processor-sharing concurrency sim;
///  * EmpiricalBackend — the full SOAP client/server stack (testbed
///    analogue).
///
/// All of them run the paper's Algorithm 1 pull loop and report the
/// canonical `RunTrace`, so the same controller factory can be
/// cross-validated on every stack through one code path.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  /// Short, stable identifier ("profile", "eventsim", "empirical").
  virtual std::string name() const = 0;

  /// True when RunQuery can execute RunSpec::schedule sections.
  virtual bool SupportsSchedules() const { return false; }

  /// An independent, equivalently-configured backend for a concurrent
  /// run lane, or null when the backend cannot be replicated (the
  /// parallel harness then falls back to serial execution). A clone
  /// shares only immutable inputs with its source (profiles, tables,
  /// configs); every piece of per-run mutable state — RNG streams,
  /// simulated clocks, observability time cursors — is private to the
  /// clone, so clones may run on different threads concurrently.
  /// RunQuery(seed) on a clone returns the same RunTrace as on the
  /// source, which is what keeps parallel figure output byte-identical
  /// to the serial path.
  virtual std::unique_ptr<QueryBackend> Clone() const { return nullptr; }

  /// Drains one query under `controller` (not reset first; callers own
  /// reset policy). The controller must outlive the call.
  virtual Result<RunTrace> RunQuery(Controller* controller,
                                    const RunSpec& spec) = 0;
};

}  // namespace wsq

#endif  // WSQ_BACKEND_QUERY_BACKEND_H_
