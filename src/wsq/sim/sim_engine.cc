#include "wsq/sim/sim_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace wsq {

SimEngine::SimEngine(const SimOptions& options)
    : options_(options), rng_(options.seed) {}

void SimEngine::AdvanceDrift() {
  if (options_.drift_sigma <= 0.0) return;
  drift_scale_ *= 1.0 + rng_.Gaussian(0.0, options_.drift_sigma);
  drift_scale_ = std::clamp(drift_scale_, 0.5, 2.0);
}

double SimEngine::MeasurePerTupleMs(const ResponseProfile& profile,
                                    int64_t block_size) {
  AdvanceDrift();
  // Horizontal drift: evaluating at x / scale moves the optimum to
  // optimum * scale.
  const double x =
      std::max(static_cast<double>(block_size) / drift_scale_, 1.0);
  double y = profile.PerTupleMs(x);

  if (options_.noise_amplitude > 0.0) {
    y *= rng_.Uniform(1.0 - options_.noise_amplitude,
                      1.0 + options_.noise_amplitude);
  }
  return std::max(y, 1e-9);
}

Result<RunTrace> SimEngine::RunQuery(Controller* controller,
                                     const ResponseProfile& profile) {
  if (controller == nullptr) {
    return Status::InvalidArgument("RunQuery: null controller");
  }
  const ResponseProfile* const only[] = {&profile};
  return Run(controller, only, /*steps_per_profile=*/1,
             std::numeric_limits<int64_t>::max(), profile.dataset_tuples());
}

Result<RunTrace> SimEngine::RunSchedule(
    Controller* controller, const std::vector<const ResponseProfile*>& schedule,
    int64_t steps_per_profile, int64_t total_steps) {
  if (controller == nullptr) {
    return Status::InvalidArgument("RunSchedule: null controller");
  }
  if (schedule.empty()) {
    return Status::InvalidArgument("RunSchedule: empty schedule");
  }
  for (const ResponseProfile* profile : schedule) {
    if (profile == nullptr) {
      return Status::InvalidArgument("RunSchedule: null profile in schedule");
    }
  }
  if (steps_per_profile < 1 || total_steps < 1) {
    return Status::InvalidArgument("RunSchedule: step counts must be >= 1");
  }
  return Run(controller, schedule, steps_per_profile, total_steps,
             std::numeric_limits<int64_t>::max());
}

Result<RunTrace> SimEngine::Run(
    Controller* controller, std::span<const ResponseProfile* const> schedule,
    int64_t steps_per_profile, int64_t total_steps, int64_t dataset_tuples) {
  RunTrace trace;
  trace.controller_name = controller->name();
  ResiliencePolicy default_policy(ResilienceConfig{}, /*run_seed=*/0);
  ResiliencePolicy& policy = policy_ ? *policy_ : default_policy;
  int64_t remaining = dataset_tuples;
  int64_t block_size = controller->initial_block_size();

  for (int64_t step = 0; step < total_steps && remaining > 0; ++step) {
    const size_t slot = std::min<size_t>(
        static_cast<size_t>(step / steps_per_profile), schedule.size() - 1);

    // Replay any injected failures first: their (capped) costs and
    // backoff are dead time on the run clock, charged to no block.
    const ExchangePlay play =
        PlayExchange(injector_, policy, step, trace.total_time_ms,
                     block_size, observer_, sim_now_micros_);
    trace.total_time_ms += play.dead_time_ms;
    trace.total_retry_time_ms += play.dead_time_ms;
    trace.total_retries += play.retries;
    sim_now_micros_ += std::llround(play.dead_time_ms * 1000.0);
    if (!play.completed) {
      return Status::Unavailable(
          "injected faults exhausted the retry budget at block " +
          std::to_string(step));
    }

    RunStep& out = trace.steps.emplace_back();
    out.step = step;
    out.requested_size = block_size;
    out.received_tuples = std::min(block_size, remaining);
    out.retries = play.retries;
    const double delivered = static_cast<double>(out.received_tuples);
    out.per_tuple_ms = MeasurePerTupleMs(*schedule[slot], block_size);
    if (play.perturbation.active()) {
      // Latency spikes / server stalls inflate the completed exchange;
      // the controller observes the perturbed cost like any other.
      out.per_tuple_ms =
          play.perturbation.Apply(out.per_tuple_ms * delivered) / delivered;
    }
    out.block_time_ms = out.per_tuple_ms * delivered;

    trace.total_time_ms += out.block_time_ms;
    trace.total_blocks += 1;
    trace.total_tuples += out.received_tuples;
    remaining -= out.received_tuples;

    int64_t next_size = controller->NextBlockSize(out.per_tuple_ms);
    out.adaptivity_step = controller->adaptivity_steps();
    next_size = policy.GovernNextSize(next_size);
    if (observer_ != nullptr) ObserveStep(controller, out, next_size);
    EmitBreakerTransitions(policy, observer_, sim_now_micros_);
    block_size = next_size;
  }
  if (injector_ != nullptr) trace.fault_log = injector_->log();
  trace.breaker_trips = policy.breaker_trips();
  return trace;
}

void SimEngine::ObserveStep(Controller* controller, const RunStep& step,
                            int64_t next_size) {
  const int64_t dur = std::llround(step.block_time_ms * 1000.0);
  observer_->OnBlock(sim_now_micros_, dur, step.requested_size,
                     step.received_tuples, step.per_tuple_ms, step.retries);
  sim_now_micros_ += dur;
  observer_->OnControllerDecision(sim_now_micros_, controller->name(),
                                  controller->DebugState(),
                                  controller->adaptivity_steps(), next_size);
}

}  // namespace wsq
