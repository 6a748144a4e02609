// The benchmark's workloads and the result every one of them reports.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: measure the end-to-end metrics with no wrappers installed.
  /// true: alternate untraced and traced phases and report the
  /// per-layer metrics plus the throughput cost of tracing.
  bool trace = false;
  /// Where a traced run writes its spans (Chrome trace JSON).
  std::string spans_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Samples behind the value (ops, windows, queries or set-ups).
  int64_t samples = 0;
};

struct WorkloadResult {
  /// False once any output check failed; the run then exits nonzero.
  bool correct = true;
  /// Ops (block exchanges live, scenarios in simulation) started and
  /// failed. A failed op contributes no latency sample.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Lines printed with the metrics but not part of the result line.
  std::vector<std::string> notes;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
  void Add(std::string name, std::string unit, double value,
           int64_t samples) {
    metrics.push_back({std::move(name), std::move(unit), value, samples});
  }
};

/// Which live workload: one block codec, one table size, one fixed
/// block size.
struct LiveShape {
  std::string name;
  bool binary = false;
  double scale = 0.0;
  int64_t block_size = 0;
  /// peak_rss_mb is read once this many queries have completed: the
  /// server keeps per-session statistics for every query it served, so
  /// memory grows with the work done and a time-bounded run would tie
  /// the figure to throughput.
  int64_t rss_mark_queries = 0;
};

WorkloadResult RunLive(const LiveShape& shape, const RunOptions& options);
WorkloadResult RunSim(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
