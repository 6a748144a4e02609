// wsq_perfbench: one workload per invocation.
//
//   wsq_perfbench --workload <live-chatty|live-bulk|sim-shared-server>
//                 --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// Prints every metric with its unit and sample count, then, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when an output check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workload.h"

namespace perfbench {

namespace {

/// The per-layer metrics, in BENCHMARK.json order, with their units.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kPerLayerMetrics[] = {
    {"op_p90_ms", "ms"},
    {"op_p99_ms", "ms"},
    {"net.transit_us_p50", "us"},
    {"net.ctx_switches_per_op", "count/op"},
    {"net.response_bytes_per_tuple", "B/tuple"},
    {"net.request_bytes_per_op", "B/op"},
    {"server.residence_us_p50", "us"},
    {"server.exchanges_per_query", "count/query"},
    {"client.session_us", "us"},
    {"client.loop_us_per_op", "us/op"},
    {"codec.allocs_per_op", "count/op"},
    {"codec.alloc_bytes_per_op", "B/op"},
    {"relation.generate_s", "s"},
    {"control.decide_us", "us"},
    {"control.decisions_per_op", "count/op"},
    {"eventsim.run_ms", "ms"},
    {"eventsim.us_per_block", "us/block"},
    {"eventsim.blocks_per_op", "count/op"},
    {"fleet.run_ms", "ms"},
    {"fleet.us_per_block", "us/block"},
    {"fleet.blocks_per_op", "count/op"},
    {"fleet.analytics_ms", "ms"},
    {"proc.minor_faults_per_op", "count/op"},
    {"client.retries", "count"},
    {"server.replay_hits", "count"},
    {"obs.trace_overhead_pct", "%"},
};

/// A traced run reports every per-layer metric; a layer the workload
/// never calls does no work and reports 0.
void ZeroFillPerLayer(WorkloadResult* result) {
  for (const LayerMetric& layer : kPerLayerMetrics) {
    bool present = false;
    for (const Metric& m : result->metrics) {
      if (m.name == layer.name) present = true;
    }
    if (!present) result->Add(layer.name, layer.unit, 0.0, 0);
  }
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: wsq_perfbench --workload "
               "<live-chatty|live-bulk|sim-shared-server> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  WorkloadResult result;
  if (workload == "live-chatty") {
    result = RunLive({"live-chatty", /*binary=*/true, /*scale=*/0.01,
                      /*block_size=*/40, /*rss_mark_queries=*/1000},
                     options);
  } else if (workload == "live-bulk") {
    result = RunLive({"live-bulk", /*binary=*/false, /*scale=*/0.1,
                      /*block_size=*/2000, /*rss_mark_queries=*/100},
                     options);
  } else if (workload == "sim-shared-server") {
    result = RunSim(options);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (options.trace) ZeroFillPerLayer(&result);

  std::printf("workload %s  seed %llu  %s run\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced");
  std::printf("  %-30s %lld\n", "attempted_ops",
              static_cast<long long>(result.attempted));
  std::printf("  %-30s %lld\n", "failed_ops",
              static_cast<long long>(result.failed));
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const Metric& m : result.metrics) {
    std::printf("  %-30s %14.6g %-12s (n=%lld)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  for (const std::string& e : result.errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) std::printf(", ");
    PrintJsonString(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
