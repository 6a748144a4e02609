// Scenario: system identification in action. Samples six block sizes on
// a live (simulated) environment, least-squares fits both of the paper's
// analytic models (Eq. 8 quadratic, Eq. 9 parabolic), prints the fitted
// curves and their analytic optima, then runs the winning model's
// estimate and the self-tuning combination (model + hybrid controller)
// against the environment.

#include <cstdio>

#include "wsq/api.h"

namespace {

void DescribeFit(const char* label, const wsq::IdentifiedModel& model) {
  const auto& p = model.fit.params;
  if (model.model == wsq::IdentificationModel::kQuadratic) {
    std::printf("%s: y = %.3g x^2 + %.3g x + %.3g\n", label, p[0], p[1],
                p[2]);
  } else {
    std::printf("%s: y = %.3g / x + %.3g x + %.3g\n", label, p[0], p[1],
                p[2]);
  }
  std::printf("  rmse %.4f, R^2 %.3f, analytic optimum %lld tuples%s\n",
              model.fit.rmse, model.fit.r_squared,
              static_cast<long long>(model.optimum),
              model.failed ? "  [FAILED - fell back to a limit]" : "");
}

}  // namespace

int main() {
  using namespace wsq;

  // The environment: the LAN conf2.1-style profile (sharp bowl around
  // ~2.2K tuples), simulation path so the run is instant.
  const ConfiguredProfile conf = Conf2_1();
  SimOptions options;
  options.noise_amplitude = conf.noise_amplitude;
  options.seed = 21;

  std::printf("environment: %s, limits [%lld, %lld]\n\n",
              conf.profile->name().c_str(),
              static_cast<long long>(conf.limits.min_size),
              static_cast<long long>(conf.limits.max_size));

  for (IdentificationModel model : {IdentificationModel::kQuadratic,
                                    IdentificationModel::kParabolic}) {
    ModelBasedConfig config = PaperModelBasedConfig();
    config.model = model;
    config.limits = conf.limits;
    ModelBasedController controller(config);

    SimEngine engine(options);
    Result<RunTrace> run = engine.RunQuery(&controller, *conf.profile);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    Result<IdentifiedModel> identified = controller.identified_model();
    if (!identified.ok()) return 1;

    DescribeFit(model == IdentificationModel::kQuadratic
                    ? "quadratic (Eq. 8)"
                    : "parabolic (Eq. 9)",
                identified.value());
    std::printf("  full query at that estimate: %.1f s\n\n",
                run.value().total_time_ms / 1000.0);
  }

  // Ground truth for reference.
  Result<GroundTruth> gt =
      ComputeGroundTruth(*conf.profile, conf.limits, 250, 5, options);
  if (!gt.ok()) return 1;
  std::printf("post-mortem optimum: %lld tuples (%.1f s)\n\n",
              static_cast<long long>(gt.value().optimum_block_size),
              gt.value().optimum_mean_ms / 1000.0);

  // The self-tuning combination: LS estimate seeds a hybrid controller,
  // removing the need to guess an initial block size at all.
  SelfTuningConfig st;
  st.identification = PaperModelBasedConfig();
  st.identification.model = IdentificationModel::kParabolic;
  st.identification.limits = conf.limits;
  st.continuation = Continuation::kHybrid;
  st.controller = PaperHybridConfig();
  st.controller.base.b1 = conf.paper_b1;
  st.controller.base.limits = conf.limits;
  SelfTuningController self_tuning(st);

  SimEngine engine(options);
  Result<RunTrace> run = engine.RunQuery(&self_tuning, *conf.profile);
  if (!run.ok()) return 1;
  std::printf("self-tuning (%s): %.1f s  — %.2fx the optimum\n",
              self_tuning.name().c_str(), run.value().total_time_ms / 1000.0,
              run.value().total_time_ms / gt.value().optimum_mean_ms);
  return 0;
}
