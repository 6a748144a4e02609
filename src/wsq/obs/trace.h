#ifndef WSQ_OBS_TRACE_H_
#define WSQ_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/obs/state_snapshot.h"
#include "wsq/obs/thread_shard.h"

namespace wsq {

/// One trace event in the Chrome trace-event model (the subset wsq
/// emits: complete spans "X", instants "i", counters "C", metadata "M").
/// Timestamps and durations are microseconds, matching both the Clock
/// abstraction and the trace-event spec's `ts`/`dur` units, so simulated
/// runs produce timelines in simulated time and wall-clocked runs in
/// real time — same format, same viewers.
struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';
  int64_t ts_micros = 0;
  int64_t dur_micros = 0;  // complete events only
  int tid = 0;
  /// Pre-rendered JSON object for the event's `args`; empty = no args.
  std::string args_json;
};

/// Well-known tracer lanes (trace-event `tid`s), so every backend's
/// pull loop lands on the same rows in Perfetto.
struct TraceLane {
  static constexpr int kPullLoop = 1;    // session + block spans
  static constexpr int kNetwork = 2;     // wire transfer / server residence
  static constexpr int kController = 3;  // decisions + DebugState samples
  static constexpr int kServer = 4;      // queue length / load counters
  static constexpr int kFault = 5;       // injected faults / breaker state
  /// Server-side spans shipped back over the wire (clock-aligned onto
  /// the client timeline by RunObserver::OnRemoteSpans).
  static constexpr int kRemoteServer = 6;

  /// Events emitted from a parallel run lane land on
  /// `tid + kLaneStride * shard`, where `shard` is the emitting
  /// thread's ThreadShardIndex(). The main thread (shard 0) keeps the
  /// base tids, so single-threaded traces are unchanged; each run lane
  /// gets its own block of rows in the viewers instead of overdrawing
  /// lane 1-4.
  static constexpr int kLaneStride = 16;
};

/// Span/event collector for the pull loop. Call sites pass explicit
/// timestamps taken from whatever Clock drives their stack (SimClock for
/// the simulated backends, WallClock where real time is wanted); the
/// tracer itself never reads a clock, which is what makes simulated time
/// first-class. Exports Chrome trace-event JSON (loadable in Perfetto /
/// chrome://tracing) and JSONL (one event object per line, streamable).
///
/// Thread-safe and sharded: each thread appends to its own event buffer
/// (keyed by its run-lane shard, see thread_shard.h), so concurrent run
/// lanes never contend on one mutex; exports merge the buffers in shard
/// order. A single-threaded process uses exactly one buffer and one
/// uncontended mutex — the pre-sharding cost — and its exported byte
/// stream is identical to the unsharded tracer's.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A complete span [ts, ts + dur).
  void AddComplete(std::string_view name, std::string_view category,
                   int64_t ts_micros, int64_t dur_micros, int tid,
                   std::string args_json = {});

  /// A point-in-time event.
  void AddInstant(std::string_view name, std::string_view category,
                  int64_t ts_micros, int tid, std::string args_json = {});

  /// A counter track sample ("C" phase): `value` plotted over time.
  void AddCounterSample(std::string_view name, int64_t ts_micros, int tid,
                        double value);

  /// Names a lane (trace-event thread metadata), purely cosmetic in the
  /// viewers.
  void SetLaneName(int tid, std::string_view name);

  size_t size() const;
  /// All buffered events, merged in shard order (within a shard:
  /// insertion order). Single-threaded processes therefore see exact
  /// insertion order.
  std::vector<TraceEvent> events() const;

  /// {"traceEvents":[...],"displayTimeUnit":"ms"} — the object form every
  /// Chrome trace-event consumer accepts. Events may be unsorted in ts
  /// when several lanes emitted; the viewers sort on load.
  std::string ToChromeJson() const;

  /// One event object per line; no enclosing array, stream-friendly.
  std::string ToJsonl() const;

  Status WriteChromeJson(const std::string& path) const;
  Status WriteJsonl(const std::string& path) const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
  };

  static std::string EventJson(const TraceEvent& event);

  /// Appends to the calling thread's shard, offsetting the tid by the
  /// shard's lane block (no-op for shard 0).
  void Append(TraceEvent event);

  std::array<Shard, kMetricShards> shards_;
};

}  // namespace wsq

#endif  // WSQ_OBS_TRACE_H_
