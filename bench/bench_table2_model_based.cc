// Reproduces paper Table II: the decisions and normalized response times
// of the model-based techniques — quadratic model Eq. (8) vs parabolic
// model Eq. (9) — on WAN-conf1.1, WAN-conf1.3, LAN-conf2.1, LAN-conf2.2,
// fitting 6 single-measurement samples evenly spread over the limits.
// Runs where the model fails to produce a useful fit (picking a limit)
// are reported separately and excluded from the starred averages, like
// the paper's '*' annotations.

#include "bench/bench_util.h"

namespace wsq::bench {
namespace {

struct ModelOutcome {
  RunningStats decision;
  RunningStats normalized;
  int failures = 0;
  int runs = 0;
};

ModelOutcome Evaluate(const ConfiguredProfile& conf,
                      IdentificationModel model, double optimum_ms) {
  ModelOutcome outcome;
  ModelBasedConfig config = PaperModelBasedConfig();
  config.model = model;
  config.limits = conf.limits;

  for (int run = 0; run < 10; ++run) {
    SimOptions options = OptionsFor(conf);
    options.seed = options.seed + static_cast<uint64_t>(run) * 104729;
    SimEngine engine(options);
    ModelBasedController controller(config);
    Result<RunTrace> result =
        engine.RunQuery(&controller, *conf.profile);
    if (!result.ok()) std::exit(1);
    ++outcome.runs;

    Result<IdentifiedModel> identified = controller.identified_model();
    if (!identified.ok() || identified.value().failed) {
      ++outcome.failures;
      continue;  // excluded from the starred averages, as in the paper
    }
    outcome.decision.Add(static_cast<double>(identified.value().optimum));
    outcome.normalized.Add(result.value().total_time_ms / optimum_ms);
  }
  return outcome;
}

void Run() {
  PrintHeader(
      "Table II",
      "model-based decisions and normalized response times (10 runs; "
      "failed identifications excluded and counted; '*' rows had "
      "failures)",
      "quadratic wins on the WAN configs (decision ~13K, <=1.03x); "
      "parabolic wins on the LAN configs; parabolic fails in some "
      "conf1.x/conf2.2 runs; neither model wins everywhere");

  TextTable table({"config", "Eq.(8) block", "Eq.(8) time", "Eq.(8) fail",
                   "Eq.(9) block", "Eq.(9) time", "Eq.(9) fail"});
  CsvWriter csv({"config", "quad_block", "quad_norm", "quad_failures",
                 "para_block", "para_norm", "para_failures"});

  const ConfiguredProfile confs[] = {Conf1_1(), Conf1_3(), Conf2_1(),
                                     Conf2_2()};
  for (const ConfiguredProfile& conf : confs) {
    const GroundTruth gt = GroundTruthFor(conf, /*runs=*/10);
    const ModelOutcome quad =
        Evaluate(conf, IdentificationModel::kQuadratic, gt.optimum_mean_ms);
    const ModelOutcome para =
        Evaluate(conf, IdentificationModel::kParabolic, gt.optimum_mean_ms);

    auto cell = [](const RunningStats& stats, int precision,
                   bool starred) -> std::string {
      if (stats.count() == 0) return "n/a";
      return FormatDouble(stats.mean(), precision) + (starred ? "*" : "");
    };

    table.AddRow({conf.profile->name(),
                  cell(quad.decision, 0, quad.failures > 0),
                  cell(quad.normalized, 3, quad.failures > 0),
                  std::to_string(quad.failures) + "/10",
                  cell(para.decision, 0, para.failures > 0),
                  cell(para.normalized, 3, para.failures > 0),
                  std::to_string(para.failures) + "/10"});
    csv.AddRow({conf.profile->name(), FormatDouble(quad.decision.mean(), 0),
                FormatDouble(quad.normalized.mean(), 4),
                std::to_string(quad.failures),
                FormatDouble(para.decision.mean(), 0),
                FormatDouble(para.normalized.mean(), 4),
                std::to_string(para.failures)});
  }
  std::printf("%s", table.ToString().c_str());
  MaybeDumpCsv(csv, "table2_model_based");
}

}  // namespace
}  // namespace wsq::bench

int main(int argc, char** argv) {
  wsq::bench::BenchSession session(argc, argv);
  wsq::bench::Run();
  return 0;
}
