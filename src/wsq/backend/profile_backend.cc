#include "wsq/backend/profile_backend.h"

#include "wsq/backend/run_stats.h"

namespace wsq {

ProfileBackend::ProfileBackend(std::shared_ptr<const ResponseProfile> profile,
                               const SimOptions& options)
    : profile_(std::move(profile)), options_(options) {}

ProfileBackend::ProfileBackend(const ResponseProfile& profile,
                               const SimOptions& options)
    : profile_(std::shared_ptr<const ResponseProfile>(
          std::shared_ptr<const ResponseProfile>(), &profile)),
      options_(options) {}

std::unique_ptr<QueryBackend> ProfileBackend::Clone() const {
  auto clone = std::make_unique<ProfileBackend>(profile_, options_);
  clone->obs_time_cursor_micros_ = obs_time_cursor_micros_;
  return clone;
}

ProfileBackend ProfileBackend::FromConfiguration(const ConfiguredProfile& conf,
                                                 uint64_t seed) {
  SimOptions options;
  options.noise_amplitude = conf.noise_amplitude;
  options.seed = seed;
  return ProfileBackend(conf.profile, options);
}

Result<RunTrace> ProfileBackend::RunQuery(Controller* controller,
                                          const RunSpec& spec) {
  if (controller == nullptr) {
    return Status::InvalidArgument("ProfileBackend: null controller");
  }
  if (!spec.is_schedule() && profile_ == nullptr) {
    return Status::FailedPrecondition(
        "ProfileBackend: no profile configured for a non-schedule run");
  }
  SimOptions run_options = options_;
  if (spec.seed != 0) run_options.seed = spec.seed;
  Result<RunChaos> chaos = MakeRunChaos(spec, run_options.seed);
  if (!chaos.ok()) return chaos.status();

  SimEngine engine(run_options);
  RunObserver* observer = ResolveObserver(spec);
  engine.set_observer(observer);
  engine.set_sim_time_micros(obs_time_cursor_micros_);
  engine.set_fault_injection(chaos.value().injector_or_null(),
                             &chaos.value().policy);
  Result<RunTrace> trace =
      spec.is_schedule()
          ? engine.RunSchedule(controller, spec.schedule,
                               spec.steps_per_profile, spec.total_steps)
          : engine.RunQuery(controller, *profile_);
  if (!trace.ok()) return trace;
  obs_time_cursor_micros_ = engine.sim_time_micros();
  trace.value().backend_name = name();
  ObserveRunSummary(observer, trace.value());
  return trace;
}

}  // namespace wsq
