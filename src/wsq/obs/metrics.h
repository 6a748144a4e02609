#ifndef WSQ_OBS_METRICS_H_
#define WSQ_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/obs/thread_shard.h"
#include "wsq/stats/running_stats.h"

namespace wsq {

/// Monotonically increasing event count (blocks pulled, retries, ...).
///
/// Internally sharded per thread (kMetricShards cache-line-padded
/// atomics, threads pick a shard by registration order) so concurrent
/// run lanes never contend on one cache line; value() sums the shards.
/// A single-threaded process touches only shard 0 — one relaxed
/// fetch_add, exactly the pre-sharding hot path.
class Counter {
 public:
  Counter() = default;

  void Increment(int64_t delta = 1) {
    shards_[ThreadShardIndex()].value.fetch_add(delta,
                                                std::memory_order_relaxed);
  }

  /// Sum over all shards. Exact once concurrent writers have quiesced
  /// (merge is addition, so shard order cannot matter).
  int64_t value() const {
    int64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Last-write-wins instantaneous value (current gain, queue length, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket distribution with quantile queries, built on the
/// RunningStats accumulator for the moment statistics. Bucket `i` counts
/// samples in (bounds[i-1], bounds[i]]; one implicit overflow bucket
/// catches everything past the last bound. Quantiles are linearly
/// interpolated inside the owning bucket, so their error is bounded by
/// the bucket width — the standard fixed-bucket tradeoff (exact counts,
/// approximate quantiles, O(1) memory however many samples arrive).
///
/// Record() is sharded per thread: each thread locks only its own
/// shard's mutex (uncontended — and therefore as cheap as the old
/// single mutex — when one thread is recording), and readers merge the
/// shards: bucket counts add exactly, moment statistics combine with
/// the parallel Welford merge.
class Histogram {
 public:
  /// `bounds` are the inclusive upper bounds, strictly increasing.
  explicit Histogram(std::vector<double> bounds);

  /// Default bounds for millisecond-scale latencies: 1-2-5 decades from
  /// 1 ms to 100 s.
  static std::vector<double> LatencyBucketsMs();

  void Record(double value);

  int64_t count() const;
  double mean() const;
  double min() const;
  double max() const;

  /// Interpolated quantile, q in [0, 1]; NaN with no samples. The
  /// overflow bucket reports the observed maximum.
  double Percentile(double q) const;
  double p50() const { return Percentile(0.50); }
  double p90() const { return Percentile(0.90); }
  double p99() const { return Percentile(0.99); }

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<int64_t> counts;  // bounds_.size() + 1 (overflow)
    RunningStats stats;
  };

  /// Point-in-time merge of every shard (counts add, stats merge).
  struct Merged {
    std::vector<int64_t> counts;
    RunningStats stats;
  };
  Merged MergeShards() const;

  std::vector<double> bounds_;
  std::array<Shard, kMetricShards> shards_;
};

/// Renders a labeled metric name: `LabeledName("wsq.server.bytes_out",
/// "session", "7")` -> "wsq.server.bytes_out{session=7}". The registry
/// treats a labeled name as just another name — labels are a naming
/// convention, not a type — but the convention keeps per-session and
/// per-tenant series distinguishable in every exporter.
///
/// The structural characters of the convention — '{', '}', '=', ',' —
/// and '%' are percent-escaped inside keys and values, so a hostile
/// label value (a tenant named "1}" or "a=b,c") can never forge another
/// family's name or collide two distinct label sets: the encoding is
/// injective. Plain alphanumeric labels render unchanged.
std::string LabeledName(std::string_view base, std::string_view label_key,
                        std::string_view label_value);

/// Multi-label form, keys in the order given:
/// `LabeledName("m", {{"tenant", "3"}, {"phase", "live"}})` ->
/// "m{tenant=3,phase=live}". Same escaping as the single-label form.
std::string LabeledName(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

/// Name -> metric registry with text/CSV/JSON snapshot exporters. One
/// process-wide instance (`Global()`) serves production wiring; tests
/// and harnesses can own private instances. Lookups create on first use
/// and return stable pointers; the hot path is then lock-free counter
/// and gauge updates on the returned handles. Fully thread-safe: the
/// maps are mutex-guarded, the metrics themselves are sharded or atomic,
/// so concurrent run lanes can hammer one registry.
///
/// Naming convention: dotted paths, subsystem first —
/// "wsq.pull.blocks_total", "wsq.controller.gain", "wsq.server.queue_len".
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry.
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// First use fixes the bounds; later calls with different bounds get
  /// the existing histogram (names identify metrics, not shapes).
  Histogram* GetHistogram(std::string_view name,
                          std::vector<double> bounds = {});

  /// Human-readable snapshot, one metric per line, sorted by name.
  std::string ToText() const;

  /// CSV snapshot: name,kind,field,value rows (histograms expand to
  /// count/mean/min/max/p50/p90/p99), sorted by name.
  std::string ToCsv() const;

  /// JSON snapshot: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;

  /// Writes a snapshot to `path`; the format follows the extension
  /// (".json", ".csv", anything else gets the text form).
  Status WriteFile(const std::string& path) const;

  /// Removes the metric named `name`, whatever its kind; true when one
  /// was registered. Its handles dangle afterwards, so only the owner of
  /// every handle to it may erase it.
  bool Erase(std::string_view name);

 private:
  mutable std::mutex mu_;
  // node-based maps: pointers to mapped values stay valid on insert.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace wsq

#endif  // WSQ_OBS_METRICS_H_
