// Cross-validation of Fig. 2 with *true* concurrency: instead of the
// LoadModel shortcut (static multipliers), real concurrent client
// sessions share one processor-sharing server on an event-driven
// timeline. The same shape facts must emerge: concurrency degrades and
// bends the curve, and the optimum block size shifts left.

#include <memory>

#include "bench/bench_util.h"

namespace wsq::bench {
namespace {

constexpr int64_t kBlockSizes[] = {500,  1000, 2000,  3000, 4000,
                                   6000, 8000, 10000, 12000};
constexpr int64_t kDatasetTuples = 75000;

/// Runs one client per controller, all starting together, on one
/// processor-sharing server; every client draws its jitter from one
/// stream seeded by `seed`. Exits on a simulation error.
std::vector<TenantTrace> RunConcurrent(
    uint64_t seed,
    const std::vector<std::unique_ptr<Controller>>& controllers) {
  EventSimConfig config;
  config.jitter_sigma = 0.10;
  config.seed = seed;
  Random stream(config.seed);
  std::vector<ClientSpec> clients;
  for (const std::unique_ptr<Controller>& controller : controllers) {
    clients.push_back({kDatasetTuples, controller.get(), 0.0, &stream});
  }
  ProcessorSharingServer server(config);
  auto lanes = RunSharedServer(config, server, clients);
  if (!lanes.ok()) {
    std::fprintf(stderr, "%s\n", lanes.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(lanes).value();
}

double MeanResponseMs(int num_clients, int64_t block_size) {
  std::vector<std::unique_ptr<Controller>> controllers;
  for (int i = 0; i < num_clients; ++i) {
    controllers.push_back(std::make_unique<FixedController>(block_size));
  }
  RunningStats stats;
  for (const TenantTrace& lane : RunConcurrent(31, controllers)) {
    stats.Add(lane.trace.total_time_ms);
  }
  return stats.mean();
}

void Run() {
  PrintHeader(
      "Figure 2 (event-driven cross-check)",
      "mean per-query response time (ms) vs block size, with 1/2/3 truly "
      "concurrent clients on a processor-sharing server",
      "same shape as the LoadModel-based Fig. 2: concurrency degrades "
      "every point, bends the curve, and pushes the optimum left");

  TextTable table({"block size", "1 client", "2 clients", "3 clients"});
  CsvWriter csv({"block_size", "c1_ms", "c2_ms", "c3_ms"});
  int64_t best[4] = {0, 0, 0, 0};
  double best_time[4] = {0, 1e300, 1e300, 1e300};

  for (int64_t size : kBlockSizes) {
    std::vector<std::string> row = {std::to_string(size)};
    std::vector<double> csv_row = {static_cast<double>(size)};
    for (int clients = 1; clients <= 3; ++clients) {
      const double mean = MeanResponseMs(clients, size);
      row.push_back(FormatDouble(mean, 0));
      csv_row.push_back(mean);
      if (mean < best_time[clients]) {
        best_time[clients] = mean;
        best[clients] = size;
      }
    }
    table.AddRow(row);
    csv.AddNumericRow(csv_row, 1);
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\nmeasured optima: 1 client -> %lld, 2 -> %lld, 3 -> %lld\n",
              static_cast<long long>(best[1]),
              static_cast<long long>(best[2]),
              static_cast<long long>(best[3]));

  // And the adaptive story: a hybrid controller per client, three
  // concurrent, must land near the crowded optimum on its own.
  std::vector<std::unique_ptr<Controller>> controllers;
  for (int i = 0; i < 3; ++i) controllers.push_back(NamedFactory("hybrid")());
  std::printf("\n3 concurrent hybrid controllers:");
  for (const TenantTrace& lane : RunConcurrent(7, controllers)) {
    std::printf("  %.0f ms (final block %lld)", lane.trace.total_time_ms,
                static_cast<long long>(lane.trace.final_block_size()));
  }
  std::printf("\n(fixed at the crowded optimum: %.0f ms)\n",
              best_time[3]);
  MaybeDumpCsv(csv, "fig2_event_driven");
}

}  // namespace
}  // namespace wsq::bench

int main(int argc, char** argv) {
  wsq::bench::BenchSession session(argc, argv);
  wsq::bench::Run();
  return 0;
}
