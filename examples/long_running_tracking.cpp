// Scenario: a long-running extraction job (think: nightly ETL pulling
// hundreds of thousands of rows through a web service) during which the
// server's condition changes several times. Demonstrates the Fig. 8
// machinery: the hybrid controller with periodic reset re-adapts after
// every regime change, while the plain no-switch-back hybrid freezes in
// its first steady state.

#include <cstdio>

#include "wsq/api.h"

int main() {
  using namespace wsq;

  // Regimes: quiet WAN (optimum near the upper limit) -> heavily shared
  // server where only small blocks survive (conf2.1 shape, optimum
  // ~2.2K) -> quiet again. A frozen controller is badly wrong in the
  // middle regime.
  const ConfiguredProfile quiet = Conf1_1();
  const ConfiguredProfile loaded = Conf2_1();
  std::vector<const ResponseProfile*> schedule = {
      quiet.profile.get(), loaded.profile.get(), quiet.profile.get()};
  constexpr int64_t kStepsPerRegime = 120;
  constexpr int64_t kTotalSteps = 360;

  SimOptions options;
  options.noise_amplitude = quiet.noise_amplitude;
  options.seed = 99;

  struct Candidate {
    const char* label;
    int64_t reset_period;
  };
  const Candidate candidates[] = {
      {"hybrid (no reset)", 0},
      {"hybrid, periodic reset 50", 50},
  };

  for (const Candidate& candidate : candidates) {
    HybridConfig config = PaperHybridConfig();
    config.reset_period = candidate.reset_period;
    HybridController controller(config);

    SimEngine engine(options);
    Result<RunTrace> run = engine.RunSchedule(
        &controller, schedule, kStepsPerRegime, kTotalSteps);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }

    std::printf("%s — total %.0f s, %lld phase transitions\n",
                candidate.label, run.value().total_time_ms / 1000.0,
                static_cast<long long>(controller.phase_transitions()));
    std::printf("  decisions (every 12 steps):");
    for (size_t i = 0; i < run.value().steps.size(); i += 12) {
      std::printf(" %lld",
                  static_cast<long long>(run.value().steps[i].requested_size));
    }
    std::printf("\n\n");
  }

  std::printf(
      "Regime boundaries are at steps %lld and %lld. The resetting\n"
      "variant re-probes after each boundary (watch the dips) and keeps\n"
      "the block size matched to the current environment.\n",
      static_cast<long long>(kStepsPerRegime),
      static_cast<long long>(2 * kStepsPerRegime));
  return 0;
}
