// Measurement primitives of the benchmark: a process-wide heap
// allocation counter, getrusage snapshots, a background usage sampler,
// order statistics, the calm-window estimators every workload reports
// through, and an in-memory span log. Nothing here calls into the wsq
// library; the workloads time library calls from outside.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "workload.h"

namespace perfbench {

/// Usage sampler period: the length of one measurement window.
constexpr int kSamplePeriodMs = 20;
/// Spans written to the trace file at most.
constexpr size_t kMaxSpansWritten = 20000;

/// Sleeps between two set-up repetitions. Set-up time on a shared host
/// moves with host state from one tenth of a second to the next, so the
/// repetitions a run takes the median of are spread over a few seconds
/// rather than taken in one short burst.
void PauseBetweenSetups();

/// The phases of a run in order, true for a traced one: a single
/// untraced phase, or three untraced/traced pairs, so that host drift
/// affects both modes alike.
std::vector<bool> PhasePlan(bool trace);

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// Heap allocations made through the global operator new while counting
/// is on. probe.cc replaces operator new/delete for the whole binary;
/// with counting off the replacement costs one relaxed load per call.
struct AllocCount {
  int64_t calls = 0;
  int64_t bytes = 0;
};
void SetAllocCounting(bool on);
AllocCount ReadAllocCount();

/// Process-wide resource usage (all threads: clients and server).
struct Usage {
  double cpu_us = 0.0;  // user + system
  int64_t voluntary_switches = 0;
  int64_t involuntary_switches = 0;
  int64_t minor_faults = 0;
  double peak_rss_mb = 0.0;
};
Usage ReadUsage();

/// A (time, cpu) reading taken by UsageSampler.
struct UsageSample {
  int64_t t_ns = 0;
  double cpu_us = 0.0;
  /// Host-wide CPU time (all vCPUs, jiffies) the hypervisor gave to
  /// other guests while this one wanted to run, from /proc/stat.
  int64_t steal_jiffies = 0;
};

/// Reads process CPU time every `period_ms` on its own thread, so that
/// throughput and CPU per op can be taken per window and reported as
/// medians over windows (a short stall then moves one window, not the
/// run's figure).
class UsageSampler {
 public:
  explicit UsageSampler(int period_ms);
  ~UsageSampler();
  UsageSampler(const UsageSampler&) = delete;
  UsageSampler& operator=(const UsageSampler&) = delete;

  /// Stops the thread and returns every sample taken.
  std::vector<UsageSample> Finish();

 private:
  void Loop();

  int period_ms_;
  std::mutex mu_;
  std::vector<UsageSample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// `ops` operations that ran from start_ns to end_ns.
struct OpInterval {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double ops = 0.0;
};

/// A time range the windowed statistics may draw windows from.
struct Phase {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Throughput and CPU per op: medians over sampler windows.
struct WindowStats {
  double ops_per_s = 0.0;
  double cpu_us_per_op = 0.0;
  int64_t windows = 0;
};

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// A latency sample (ms) placed on the timeline: its op ran from
/// end_ns - value to end_ns.
struct TimedSample {
  int64_t end_ns = 0;
  double value = 0.0;

  int64_t start_ns() const {
    return end_ns - static_cast<int64_t>(value * 1e6);
  }
};

std::vector<double> Values(const std::vector<TimedSample>& samples);

/// What one mode (untraced or traced) of a run measured, restricted to
/// its calm windows. With no calm window at all, every window and every
/// sample is used; calm_windows then reads 0.
struct CalmFigures {
  WindowStats windows;
  int64_t calm_windows = 0;
  int64_t all_windows = 0;
  /// Op and query latencies (ms) whose op started in a calm window.
  std::vector<TimedSample> ops;
  std::vector<TimedSample> queries;
};
CalmFigures TakeCalm(const std::vector<UsageSample>& samples,
                     const std::vector<Phase>& phases,
                     const std::vector<OpInterval>& intervals,
                     const std::vector<TimedSample>& op_ms,
                     const std::vector<TimedSample>& query_ms);

/// Adds the end-to-end metrics every workload takes alike: setup_s
/// (median of the set-ups), ops_per_s, op_p50_ms, query_p50_ms and
/// cpu_us_per_op, and notes the share of calm windows. peak_rss_mb is
/// each workload's own.
void AddEndToEnd(const CalmFigures& untraced,
                 const std::vector<double>& setup_s, WorkloadResult* result);

/// Adds the traced run's shared figures: the tail latencies op_p90_ms
/// and op_p99_ms of its untraced phases, and obs.trace_overhead_pct.
void AddTraceFigures(const CalmFigures& untraced, const CalmFigures& traced,
                     WorkloadResult* result);

/// One timed region. Spans of one query (live) or one scenario (sim)
/// share `trace_id`; `parent` is the span id of the enclosing region, or
/// 0 for a root.
struct Span {
  const char* name = "";
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t value = 0;  // a count at the boundary (bytes, blocks, decisions)
};

/// Spans recorded by one thread; merged and written out when the run
/// ends, never during measurement.
class SpanLog {
 public:
  uint64_t Add(const char* name, uint64_t trace_id, uint64_t parent,
               int64_t start_ns, int64_t end_ns, int64_t value = 0);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Writes the first `max_spans` spans of all logs as a Chrome trace
/// (JSON array of complete events, one tid per log) and returns how many
/// were written. Errors are reported on stderr and yield -1.
int64_t WriteChromeTrace(const std::string& path,
                         const std::vector<const SpanLog*>& logs,
                         int64_t origin_ns, size_t max_spans);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
