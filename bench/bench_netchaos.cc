// Network-chaos benchmark: the full live stack pulling TPC-H customer
// through the in-process ChaosProxy under a ladder of transport fault
// presets, with frame integrity (CRC32C) negotiated (heartbeats are on
// for every connection). Every run must drain its query exactly once —
// the bench exits non-zero on any lost or duplicated tuple — so the
// numbers it emits are the cost of *surviving* the fault, not of ignoring it.
//
// Flags (besides the standard BenchSession set):
//   --runs=R         queries per preset (default 3)
//   --scale=S        TPC-H scale of the served table (default 0.01)
//   --controller=C   controller per run (factory name, default "hybrid")
//
// Presets exercised: none (proxy transparency tax), latency, trickle,
// corrupt (CRC-triggered retries). The full 8-preset matrix lives in
// the netchaos conformance tests; the bench keeps the subset whose
// wall time is dominated by transfer, not by scripted dead air.
//
// A preamble leg runs the "none" preset with the CRC trailer off and
// on and prints the integrity overhead; it is informational only.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "wsq/fault/net_fault_plan.h"
#include "wsq/net/chaosproxy.h"

namespace wsq {
namespace {

struct NetChaosFlags {
  int runs = 3;
  double scale = 0.01;
  std::string controller = "hybrid";
};

void ParseNetChaosFlags(int argc, char** argv, NetChaosFlags* flags) {
  auto value_of = [&](const char* name, int i) -> const char* {
    const size_t n = std::strlen(name);
    if (std::strncmp(argv[i], name, n) != 0) return nullptr;
    if (argv[i][n] == '=') return argv[i] + n + 1;
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* v = value_of("--runs", i)) flags->runs = std::atoi(v);
    if (const char* v = value_of("--scale", i)) flags->scale = std::atof(v);
    if (const char* v = value_of("--controller", i)) flags->controller = v;
  }
  if (flags->runs < 1) flags->runs = 1;
}

struct PresetOutcome {
  int ok_runs = 0;
  int failed_runs = 0;
  int64_t retries = 0;
  double total_ms = 0.0;
  std::string first_error;
};

/// R queries through `setup` (already pointed at a proxy), each on a
/// fresh controller and connection, gated on exact tuple delivery.
PresetOutcome RunPreset(const LiveSetup& setup, const NetChaosFlags& flags,
                        const ResilienceConfig* resilience,
                        int64_t expected_tuples, uint64_t seed_base,
                        bool record_timings) {
  PresetOutcome out;
  LiveBackend backend(setup);
  for (int run = 0; run < flags.runs; ++run) {
    Result<std::unique_ptr<Controller>> controller =
        ControllerFactory::FromName(flags.controller);
    if (!controller.ok()) {
      out.failed_runs++;
      out.first_error = controller.status().ToString();
      return out;
    }
    RunSpec spec;
    spec.seed = seed_base + static_cast<uint64_t>(run) + 1;
    spec.resilience = resilience;
    const auto start = std::chrono::steady_clock::now();
    Result<RunTrace> trace = backend.RunQuery(controller.value().get(), spec);
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - start;
    if (!trace.ok()) {
      out.failed_runs++;
      if (out.first_error.empty()) out.first_error = trace.status().ToString();
      continue;
    }
    Status consistent = trace.value().CheckConsistent();
    if (!consistent.ok()) {
      out.failed_runs++;
      if (out.first_error.empty()) out.first_error = consistent.ToString();
      continue;
    }
    if (trace.value().total_tuples != expected_tuples) {
      out.failed_runs++;
      if (out.first_error.empty()) {
        out.first_error = "exactly-once violated: got " +
                          std::to_string(trace.value().total_tuples) +
                          " tuples, expected " +
                          std::to_string(expected_tuples);
      }
      continue;
    }
    out.ok_runs++;
    out.retries += trace.value().total_retries;
    out.total_ms += wall.count();
    if (record_timings) {
      if (exec::RunTimings* timings = exec::GlobalRunTimings()) {
        timings->RecordRunMs(wall.count());
      }
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  bench::BenchSession session(argc, argv);
  NetChaosFlags flags;
  ParseNetChaosFlags(argc, argv, &flags);

  bench::PrintHeader(
      "netchaos",
      "live queries through the in-process chaos proxy under transport "
      "fault presets, CRC32C + heartbeats negotiated, exactly-once gated",
      "every run drains exactly once under every preset; corruption is "
      "caught by the frame trailer and ridden out as retries");

  // The wsqd under test: binary+lz offer, no server-side faults — all
  // chaos in this bench is injected at the transport by the proxy.
  TpchGenOptions gen;
  gen.scale = flags.scale;
  gen.seed = 7;
  std::shared_ptr<Table> customer = GenerateCustomer(gen).value();
  Dbms dbms;
  if (Status s = dbms.RegisterTable(customer); !s.ok()) {
    std::fprintf(stderr, "table registration failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  DataService service(&dbms);
  LoadModelConfig load;
  load.noise_sigma = 0.0;
  ServiceContainer container(&service, load, 7);
  net::WsqServerOptions server_options;
  server_options.codec =
      codec::CodecChoice{codec::CodecKind::kBinary, /*compress_blocks=*/true};
  net::WsqServer server(&container, std::move(server_options));
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const int64_t expected_tuples =
      static_cast<int64_t>(customer->num_rows());
  std::printf("in-process wsqd on 127.0.0.1:%d (scale=%g, %lld rows)\n",
              server.port(), flags.scale,
              static_cast<long long>(expected_tuples));

  LiveSetup base;
  base.host = "127.0.0.1";
  base.query.table_name = "customer";
  base.client_options.codec = session.wire_codec();
  base.client_options.enable_crc = true;
  ResilienceConfig chaos = session.ChaosResilience();
  std::printf("wire codec: %s (crc)\n\n",
              session.wire_codec().ToString().c_str());

  // Preamble: the integrity tax. Same transparent proxy path, trailer
  // off vs on — informational, not gated, not in the perf summary.
  {
    net::ChaosProxyOptions proxy_options;
    proxy_options.upstream_port = server.port();
    net::ChaosProxy proxy(std::move(proxy_options));
    if (Status s = proxy.Start(); !s.ok()) {
      std::fprintf(stderr, "proxy start failed: %s\n", s.ToString().c_str());
      return 1;
    }
    LiveSetup setup = base;
    setup.port = proxy.port();
    setup.client_options.enable_crc = false;
    PresetOutcome off = RunPreset(setup, flags, &chaos, expected_tuples,
                                  /*seed_base=*/9000,
                                  /*record_timings=*/false);
    setup.client_options.enable_crc = true;
    PresetOutcome on = RunPreset(setup, flags, &chaos, expected_tuples,
                                 /*seed_base=*/9100,
                                 /*record_timings=*/false);
    if (off.ok_runs > 0 && on.ok_runs > 0) {
      const double off_ms = off.total_ms / off.ok_runs;
      const double on_ms = on.total_ms / on.ok_runs;
      std::printf("crc trailer overhead on a clean wire: %.2f ms -> %.2f ms "
                  "per query (%.1f%%)\n\n",
                  off_ms, on_ms, (on_ms / off_ms - 1.0) * 100.0);
    }
    proxy.Stop();
  }

  // The ladder: each preset gets its own proxy; every timed run feeds
  // the --bench-json summary.
  const std::vector<std::string> presets = {"none", "latency", "trickle",
                                            "corrupt"};
  int failures = 0;
  TextTable table({"preset", "ok", "failed", "retries", "mean_ms"});
  for (size_t p = 0; p < presets.size(); ++p) {
    Result<NetFaultPlan> plan = NetFaultPlan::FromName(presets[p]);
    if (!plan.ok()) {
      std::fprintf(stderr, "bad preset %s: %s\n", presets[p].c_str(),
                   plan.status().ToString().c_str());
      return 1;
    }
    net::ChaosProxyOptions proxy_options;
    proxy_options.upstream_port = server.port();
    proxy_options.plan = std::move(plan).value();
    net::ChaosProxy proxy(std::move(proxy_options));
    if (Status s = proxy.Start(); !s.ok()) {
      std::fprintf(stderr, "proxy start failed: %s\n", s.ToString().c_str());
      return 1;
    }
    LiveSetup setup = base;
    setup.port = proxy.port();
    PresetOutcome out = RunPreset(setup, flags, &chaos, expected_tuples,
                                  /*seed_base=*/(p + 1) * 1000,
                                  /*record_timings=*/true);
    proxy.Stop();
    failures += out.failed_runs;
    table.AddRow({presets[p], std::to_string(out.ok_runs),
                  std::to_string(out.failed_runs),
                  std::to_string(out.retries),
                  out.ok_runs > 0
                      ? FormatDouble(out.total_ms / out.ok_runs, 2)
                      : "-"});
    if (!out.first_error.empty()) {
      std::fprintf(stderr, "preset %s first error: %s\n", presets[p].c_str(),
                   out.first_error.c_str());
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  server.Stop();
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d run(s) failed\n", failures);
    return 1;
  }
  std::printf("all %zu presets x %d runs drained exactly once\n",
              presets.size(), flags.runs);
  return 0;
}

}  // namespace
}  // namespace wsq

int main(int argc, char** argv) { return wsq::Main(argc, argv); }
