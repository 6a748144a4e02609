#include "probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

constexpr int kTracedPhasePairs = 3;
/// Tail latency is the median of per-window quantiles, over windows
/// just large enough that ten samples lie beyond the quantile: the more
/// windows, the less one stalled stretch of the run moves the median.
constexpr size_t kP90Window = 100;
constexpr size_t kP99Window = 1000;

std::atomic<bool> g_counting{false};

/// Counters are sharded per thread so that counting does not make the
/// client and server threads contend on one cache line.
constexpr unsigned kShards = 32;
struct alignas(64) Shard {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> bytes{0};
};
Shard g_shards[kShards];
std::atomic<unsigned> g_next_shard{0};
thread_local unsigned t_shard = kShards;

void CountAlloc(size_t size) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_shard == kShards) {
    t_shard = g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  }
  Shard& shard = g_shards[t_shard];
  shard.calls.fetch_add(1, std::memory_order_relaxed);
  shard.bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
}

void* Allocate(size_t size) {
  CountAlloc(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateNoThrow(size_t size) noexcept {
  CountAlloc(size);
  return std::malloc(size == 0 ? 1 : size);
}

std::atomic<uint64_t> g_next_span_id{1};

int64_t ReadStealJiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<int64_t>(v[7]) : 0;
}

/// One sampler window: the time between two consecutive samples.
struct SampleWindow {
  int64_t begin = 0;
  int64_t end = 0;
  double cpu_us = 0.0;
  int64_t steal = 0;
  double ops = 0.0;
};

/// The sampler windows lying wholly inside one of `phases`, in time order.
std::vector<SampleWindow> WindowsIn(const std::vector<UsageSample>& samples,
                                    const std::vector<Phase>& phases) {
  std::vector<SampleWindow> windows;
  for (size_t i = 1; i < samples.size(); ++i) {
    const UsageSample& a = samples[i - 1];
    const UsageSample& b = samples[i];
    for (const Phase& phase : phases) {
      if (a.t_ns >= phase.start_ns && b.t_ns <= phase.end_ns &&
          b.t_ns > a.t_ns) {
        windows.push_back({a.t_ns, b.t_ns, b.cpu_us - a.cpu_us,
                           b.steal_jiffies - a.steal_jiffies, 0.0});
        break;
      }
    }
  }
  return windows;
}

}  // namespace

void PauseBetweenSetups() {
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

std::vector<bool> PhasePlan(bool trace) {
  if (!trace) return {false};
  std::vector<bool> plan;
  for (int i = 0; i < kTracedPhasePairs; ++i) {
    plan.push_back(false);
    plan.push_back(true);
  }
  return plan;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetAllocCounting(bool on) { g_counting.store(on); }

AllocCount ReadAllocCount() {
  AllocCount total;
  for (const Shard& shard : g_shards) {
    total.calls += shard.calls.load();
    total.bytes += shard.bytes.load();
  }
  return total;
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.voluntary_switches = ru.ru_nvcsw;
  u.involuntary_switches = ru.ru_nivcsw;
  u.minor_faults = ru.ru_minflt;
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
  return u;
}

UsageSampler::UsageSampler(int period_ms)
    : period_ms_(period_ms), thread_([this] { Loop(); }) {}

UsageSampler::~UsageSampler() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void UsageSampler::Loop() {
  const auto period = std::chrono::milliseconds(period_ms_);
  auto next = std::chrono::steady_clock::now();
  while (!stop_.load()) {
    {
      UsageSample sample;
      sample.t_ns = NowNs();
      sample.cpu_us = ReadUsage().cpu_us;
      sample.steal_jiffies = ReadStealJiffies();
      std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back(sample);
    }
    next += period;
    std::this_thread::sleep_until(next);
  }
}

std::vector<UsageSample> UsageSampler::Finish() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

namespace {

/// Medians over sampler windows lying wholly inside one of `phases`.
/// Each interval's ops are spread over the windows it overlaps in
/// proportion to the overlap, so a window's count has no whole-op
/// rounding.
WindowStats Windowed(const std::vector<UsageSample>& samples,
                     const std::vector<OpInterval>& intervals,
                     const std::vector<Phase>& phases) {
  std::vector<SampleWindow> windows = WindowsIn(samples, phases);
  // Windows are in time order; each interval touches a contiguous run.
  for (const OpInterval& op : intervals) {
    const int64_t len = std::max<int64_t>(op.end_ns - op.start_ns, 1);
    auto it = std::lower_bound(
        windows.begin(), windows.end(), op.start_ns,
        [](const SampleWindow& w, int64_t t) { return w.end <= t; });
    for (; it != windows.end() && it->begin < op.end_ns; ++it) {
      const int64_t overlap =
          std::min(it->end, op.end_ns) - std::max(it->begin, op.start_ns);
      if (overlap > 0) {
        it->ops += op.ops * static_cast<double>(overlap) /
                   static_cast<double>(len);
      }
    }
  }
  std::vector<double> rates;
  std::vector<double> cpu_per_op;
  for (const SampleWindow& w : windows) {
    rates.push_back(w.ops * 1e9 / static_cast<double>(w.end - w.begin));
    if (w.ops > 0.0) cpu_per_op.push_back(w.cpu_us / w.ops);
  }
  WindowStats stats;
  stats.windows = static_cast<int64_t>(windows.size());
  stats.ops_per_s = Median(rates);
  stats.cpu_us_per_op = Median(cpu_per_op);
  return stats;
}

/// The sampler windows lying wholly inside one of `phases` in which the
/// host stole no CPU time, in time order. Steal is CPU time the
/// hypervisor gave to other guests while this VM wanted it; on a shared
/// host it comes in bursts and phases lasting seconds to minutes, and
/// one stolen time slice delays every exchange waiting on that vCPU.
/// The criterion is absolute, so a run spent in a heavy-steal phase has
/// few or no calm windows and shows it (see CalmFigures) rather than
/// passing its least-stolen windows off as calm. Where /proc/stat shows
/// no steal, every window qualifies.
std::vector<Phase> CalmWindows(const std::vector<UsageSample>& samples,
                               const std::vector<Phase>& phases) {
  std::vector<Phase> calm;
  for (const SampleWindow& w : WindowsIn(samples, phases)) {
    if (w.steal == 0) calm.push_back({w.begin, w.end});
  }
  return calm;
}

/// The samples whose op started inside one of `windows` (time-ordered,
/// non-overlapping). Selecting on the start, before the op's duration is
/// known, does not favour short ops. Returns every sample when none
/// qualifies.
std::vector<TimedSample> StartedInWindows(
    const std::vector<TimedSample>& samples,
    const std::vector<Phase>& windows) {
  std::vector<TimedSample> kept;
  for (const TimedSample& s : samples) {
    const int64_t start = s.start_ns();
    auto it = std::lower_bound(
        windows.begin(), windows.end(), start,
        [](const Phase& w, int64_t t) { return w.end_ns < t; });
    if (it != windows.end() && it->start_ns <= start) kept.push_back(s);
  }
  return kept.empty() ? samples : kept;
}

/// Tail latency robust to short host stalls: samples are ordered by
/// completion, cut into consecutive windows of `window` samples, and the
/// median of the windows' q-quantiles is returned. With window = 1000
/// and q = 0.99 every window has ten samples beyond its quantile. Runs
/// with fewer samples than one window fall back to the plain quantile.
double MedianWindowQuantile(std::vector<TimedSample> samples, size_t window,
                            double q) {
  std::stable_sort(samples.begin(), samples.end(),
                   [](const TimedSample& a, const TimedSample& b) {
                     return a.end_ns < b.end_ns;
                   });
  std::vector<double> values = Values(samples);
  if (values.size() < window) return Quantile(std::move(values), q);
  std::vector<double> per_window;
  for (size_t at = 0; at + window <= values.size(); at += window) {
    per_window.push_back(Quantile(
        std::vector<double>(values.begin() + static_cast<ptrdiff_t>(at),
                            values.begin() + static_cast<ptrdiff_t>(at + window)),
        q));
  }
  return Median(std::move(per_window));
}

std::string CalmNote(const char* mode, const CalmFigures& f) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s calm windows (no host steal): %lld of %lld (%.1f%%)%s",
                mode, static_cast<long long>(f.calm_windows),
                static_cast<long long>(f.all_windows),
                f.all_windows > 0 ? 100.0 * static_cast<double>(f.calm_windows) /
                                        static_cast<double>(f.all_windows)
                                  : 0.0,
                f.calm_windows == 0 ? "; every window used" : "");
  return line;
}

}  // namespace

CalmFigures TakeCalm(const std::vector<UsageSample>& samples,
                     const std::vector<Phase>& phases,
                     const std::vector<OpInterval>& intervals,
                     const std::vector<TimedSample>& op_ms,
                     const std::vector<TimedSample>& query_ms) {
  CalmFigures f;
  f.all_windows = static_cast<int64_t>(WindowsIn(samples, phases).size());
  const std::vector<Phase> calm = CalmWindows(samples, phases);
  f.calm_windows = static_cast<int64_t>(calm.size());
  const std::vector<Phase>& used = calm.empty() ? phases : calm;
  f.windows = Windowed(samples, intervals, used);
  f.ops = StartedInWindows(op_ms, used);
  f.queries = StartedInWindows(query_ms, used);
  return f;
}

void AddEndToEnd(const CalmFigures& untraced,
                 const std::vector<double>& setup_s, WorkloadResult* result) {
  result->notes.push_back(CalmNote("untraced", untraced));
  result->Add("setup_s", "s", Median(setup_s),
              static_cast<int64_t>(setup_s.size()));
  result->Add("ops_per_s", "1/s", untraced.windows.ops_per_s,
              untraced.windows.windows);
  result->Add("op_p50_ms", "ms", Median(Values(untraced.ops)),
              static_cast<int64_t>(untraced.ops.size()));
  result->Add("query_p50_ms", "ms", Median(Values(untraced.queries)),
              static_cast<int64_t>(untraced.queries.size()));
  result->Add("cpu_us_per_op", "us/op", untraced.windows.cpu_us_per_op,
              untraced.windows.windows);
}

void AddTraceFigures(const CalmFigures& untraced, const CalmFigures& traced,
                     WorkloadResult* result) {
  result->notes.push_back(CalmNote("untraced", untraced));
  result->notes.push_back(CalmNote("traced", traced));
  const int64_t n = static_cast<int64_t>(untraced.ops.size());
  result->Add("op_p90_ms", "ms",
              MedianWindowQuantile(untraced.ops, kP90Window, 0.9), n);
  result->Add("op_p99_ms", "ms",
              MedianWindowQuantile(untraced.ops, kP99Window, 0.99), n);
  const double u = untraced.windows.ops_per_s;
  result->Add("obs.trace_overhead_pct", "%",
              u > 0.0 ? (u - traced.windows.ops_per_s) / u * 100.0 : 0.0,
              untraced.windows.windows + traced.windows.windows);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(q * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

std::vector<double> Values(const std::vector<TimedSample>& samples) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const TimedSample& s : samples) values.push_back(s.value);
  return values;
}

uint64_t SpanLog::Add(const char* name, uint64_t trace_id, uint64_t parent,
                      int64_t start_ns, int64_t end_ns, int64_t value) {
  const uint64_t id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  spans_.push_back({name, trace_id, id, parent, start_ns, end_ns, value});
  return id;
}

int64_t WriteChromeTrace(const std::string& path,
                         const std::vector<const SpanLog*>& logs,
                         int64_t origin_ns, size_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write span trace %s\n", path.c_str());
    return -1;
  }
  std::fputs("[\n", f);
  size_t written = 0;
  for (size_t tid = 0; tid < logs.size(); ++tid) {
    for (const Span& s : logs[tid]->spans()) {
      if (written == max_spans) break;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%llu,"
                   "\"span_id\":%llu,\"parent\":%llu,\"value\":%lld}}",
                   written == 0 ? "" : ",\n", s.name, tid,
                   static_cast<double>(s.start_ns - origin_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.trace_id),
                   static_cast<unsigned long long>(s.span_id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.value));
      ++written;
    }
  }
  std::fputs("\n]\n", f);
  const bool ok = std::fclose(f) == 0;
  return ok ? static_cast<int64_t>(written) : -1;
}

}  // namespace perfbench

// Global replacements: every heap allocation of the binary (benchmark,
// library, client and server threads) passes through CountAlloc.
void* operator new(size_t size) { return perfbench::Allocate(size); }
void* operator new[](size_t size) { return perfbench::Allocate(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return perfbench::AllocateNoThrow(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return perfbench::AllocateNoThrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
