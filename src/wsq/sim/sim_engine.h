#ifndef WSQ_SIM_SIM_ENGINE_H_
#define WSQ_SIM_SIM_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "wsq/backend/run_trace.h"
#include "wsq/common/random.h"
#include "wsq/common/status.h"
#include "wsq/control/controller.h"
#include "wsq/fault/exchange_player.h"
#include "wsq/obs/run_observer.h"
#include "wsq/sim/profile.h"

namespace wsq {

/// Noise and volatility injected on top of a static profile — the
/// "unknown and unpredictable factors" the paper's MATLAB engine
/// emulates: jitter and movements of the optimal point.
struct SimOptions {
  /// Uniform multiplicative noise: each measurement is scaled by a draw
  /// from [1 - amplitude, 1 + amplitude].
  double noise_amplitude = 0.10;
  /// Random-walk drift of the optimum: each block, the profile's
  /// horizontal scale is multiplied by (1 + N(0, drift_sigma)). 0
  /// disables drift.
  double drift_sigma = 0.0;
  uint64_t seed = 1;
};

/// Profile-driven simulation engine (the paper's Section III-C / IV-B
/// methodology): runs a controller against a response profile, feeding
/// it noisy per-tuple costs and accounting the aggregate time. Each run
/// returns the canonical RunTrace (backend_name left empty): a step's
/// `block_time_ms` is its per-tuple cost times the tuples it delivered,
/// the exact product the run total accumulates, and the fault log and
/// breaker trips come from the attached chaos layer.
class SimEngine {
 public:
  explicit SimEngine(const SimOptions& options);

  /// Drains one query of `profile.dataset_tuples()` tuples under
  /// `controller`. The controller is NOT reset first (callers own reset
  /// policy so warm-started continuations are possible).
  Result<RunTrace> RunQuery(Controller* controller,
                            const ResponseProfile& profile);

  /// Long-lived run of exactly `total_steps` adaptivity steps across a
  /// schedule of profiles: `schedule[i]` is active for steps
  /// [i * steps_per_profile, (i+1) * steps_per_profile); the last entry
  /// stays active through the end (Fig. 8 methodology). The dataset is
  /// treated as unbounded.
  Result<RunTrace> RunSchedule(
      Controller* controller,
      const std::vector<const ResponseProfile*>& schedule,
      int64_t steps_per_profile, int64_t total_steps);

  /// Attaches an observability sink (block spans + controller decisions
  /// in simulated time); null (the default) disables emission. The
  /// simulated-time cursor persists across runs so repeated runs lay out
  /// sequentially on one trace timeline. Not owned.
  void set_observer(RunObserver* observer) { observer_ = observer; }

  /// Simulated-time cursor (microseconds) the observer events are
  /// stamped with. Callers that recreate engines per run (seed
  /// isolation) hand the cursor across so consecutive runs lay out
  /// sequentially on one trace timeline.
  int64_t sim_time_micros() const { return sim_now_micros_; }
  void set_sim_time_micros(int64_t micros) { sim_now_micros_ = micros; }

  /// Attaches the chaos layer for the next run(s): injected failures
  /// pay their (deadline-capped) cost plus backoff as dead time, success
  /// perturbations inflate the observed block cost, and the policy's
  /// breaker governs the commanded sizes. A null injector (the
  /// default) = no faults; a null policy = a default-config one built
  /// for each run. Not owned.
  void set_fault_injection(FaultInjector* injector,
                           ResiliencePolicy* policy) {
    injector_ = injector;
    policy_ = policy;
  }

 private:
  void AdvanceDrift();

  /// Measures one block: noisy per-tuple cost of `profile` at
  /// `block_size` under current drift.
  double MeasurePerTupleMs(const ResponseProfile& profile,
                           int64_t block_size);

  /// The paper's Algorithm 1 loop behind both entry points: at most
  /// `total_steps` blocks, step k measured on
  /// `schedule[min(k / steps_per_profile, last)]`, until `dataset_tuples`
  /// are delivered. A bounded query is one profile and no step limit; a
  /// schedule is an unbounded dataset.
  Result<RunTrace> Run(Controller* controller,
                       std::span<const ResponseProfile* const> schedule,
                       int64_t steps_per_profile, int64_t total_steps,
                       int64_t dataset_tuples);

  /// Emits block span + decision sample and advances the sim-time cursor.
  void ObserveStep(Controller* controller, const RunStep& step,
                   int64_t next_size);

  SimOptions options_;
  Random rng_;
  double drift_scale_ = 1.0;
  RunObserver* observer_ = nullptr;
  int64_t sim_now_micros_ = 0;
  FaultInjector* injector_ = nullptr;
  ResiliencePolicy* policy_ = nullptr;
};

}  // namespace wsq

#endif  // WSQ_SIM_SIM_ENGINE_H_
