// Scenario: the paper's own methodology as a pipeline. Its authors ran
// fixed-size sweeps on the physical testbed, then fed the measured
// profiles to a MATLAB simulation engine to study controllers cheaply.
// This example does the same: sweep the *empirical* stack (real SOAP
// dispatch, simulated wire/load), capture the curve as a
// TabulatedProfile, persist it as CSV, reload it, and race controllers
// against the captured profile in the fast simulation engine.

#include <cstdio>

#include "wsq/api.h"

int main() {
  using namespace wsq;

  // --- 1. The "physical" environment: loaded LAN server. ---
  TpchGenOptions gen;
  gen.scale = 0.1;  // 15000 rows
  Result<std::shared_ptr<Table>> customer = GenerateCustomer(gen);
  if (!customer.ok()) return 1;

  auto run_fixed = [&](int64_t block_size) -> double {
    EmpiricalSetup setup;
    setup.table = customer.value();
    setup.query.table_name = "customer";
    setup.link = Lan1Gbps();
    setup.load.concurrent_queries = 3;
    setup.load.memory_pressure = 0.3;
    setup.seed = 97 + static_cast<uint64_t>(block_size);
    auto session = QuerySession::Create(setup);
    if (!session.ok()) std::exit(1);
    FixedController controller(block_size);
    auto outcome = session.value()->Execute(&controller);
    if (!outcome.ok()) std::exit(1);
    return outcome.value().total_time_ms;
  };

  // --- 2. Sweep fixed block sizes (the Fig. 3/6(a)/7(a) procedure). ---
  GroundTruth sweep;
  std::printf("empirical sweep:");
  for (int64_t x = 200; x <= 6000; x += 400) {
    SweepPoint point;
    point.block_size = x;
    point.mean_ms = run_fixed(x);
    sweep.sweep.push_back(point);
    std::printf(" %lld:%.0fms", static_cast<long long>(x), point.mean_ms);
  }
  std::printf("\n");

  // --- 3. Capture as a profile, persist, reload. ---
  Result<TabulatedProfile> captured = ProfileFromSweep(
      "captured_lan", static_cast<int64_t>(customer.value()->num_rows()),
      sweep);
  if (!captured.ok()) return 1;

  const std::string path = "/tmp/wsq_captured_profile.csv";
  if (!SaveProfileCsv(captured.value(), 200, 6000, 400, path).ok()) {
    return 1;
  }
  Result<TabulatedProfile> reloaded = LoadProfileCsv(
      "captured_lan", static_cast<int64_t>(customer.value()->num_rows()),
      path);
  if (!reloaded.ok()) return 1;
  std::printf("profile captured -> %s (reloaded, %lld-tuple dataset)\n\n",
              path.c_str(),
              static_cast<long long>(reloaded.value().dataset_tuples()));

  // --- 4. Drive controllers against the captured profile, instantly. ---
  const int64_t optimum =
      NoiseFreeOptimum(reloaded.value(), 200, 6000, 100);
  std::printf("captured optimum: %lld tuples\n",
              static_cast<long long>(optimum));

  SimOptions options;
  options.noise_amplitude = 0.08;
  options.seed = 3;

  for (const char* name : {"fixed:500", "constant", "hybrid"}) {
    auto controller = ControllerFactory::FromName(name);
    if (!controller.ok()) return 1;
    SimEngine engine(options);
    Result<RunTrace> run =
        engine.RunQuery(controller.value().get(), reloaded.value());
    if (!run.ok()) return 1;
    std::printf("  %-10s -> %.2f s over %lld blocks\n", name,
                run.value().total_time_ms / 1000.0,
                static_cast<long long>(run.value().total_blocks));
  }
  std::printf(
      "\nAny measured sweep — including ones from a real deployment —\n"
      "can be loaded the same way to tune controllers offline.\n");
  return 0;
}
