#ifndef WSQ_OBS_RUN_OBSERVER_H_
#define WSQ_OBS_RUN_OBSERVER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "wsq/obs/metrics.h"
#include "wsq/obs/span_context.h"
#include "wsq/obs/state_snapshot.h"
#include "wsq/obs/trace.h"

namespace wsq {

/// The observability hook every execution stack emits into. One observer
/// bundles a metrics registry and a tracer and exposes typed callbacks
/// for the pull-loop events of the paper's Algorithm 1 — session
/// open/close, block request, network transfer, serialize/parse, retry,
/// controller decision — plus server-side samples (queue length, load
/// level). Backends receive the observer through `RunSpec::observer` (or
/// the process-global default) and call these hooks with timestamps from
/// their own Clock, so the three backends produce directly comparable
/// timelines in simulated or wall time.
///
/// Either component may be null: a metrics-only observer skips tracing
/// and vice versa. A null observer *pointer* at the call sites is the
/// zero-cost off switch — every emission in the backends is guarded by a
/// single pointer test and no observability work happens when it fails.
class RunObserver {
 public:
  /// Both pointers must outlive the observer; either may be null.
  RunObserver(MetricsRegistry* metrics, Tracer* tracer);

  MetricsRegistry* metrics() const { return metrics_; }
  Tracer* tracer() const { return tracer_; }

  /// Session management spans (the empirical stack's open/close calls;
  /// dead time charged to the query but to no block).
  void OnSessionOpen(int64_t ts_micros, int64_t dur_micros);
  void OnSessionClose(int64_t ts_micros, int64_t dur_micros);

  /// One completed block request: the span t1 -> t2 of Algorithm 1.
  /// `trace_id`/`span_id`, when non-zero, are the distributed-trace
  /// identity of the client span (rendered into the event args as hex
  /// strings, so server spans of the same trace can be correlated in
  /// the merged timeline).
  void OnBlock(int64_t ts_micros, int64_t dur_micros, int64_t requested_size,
               int64_t received_tuples, double per_tuple_ms, int64_t retries,
               uint64_t trace_id = 0, uint64_t span_id = 0);

  /// Server-side spans shipped back over the wire, timestamps already
  /// clock-aligned onto the client timeline by the transport. Emitted
  /// on the dedicated TraceLane::kRemoteServer lane; `dur == 0` spans
  /// become instants.
  void OnRemoteSpans(const std::vector<RemoteSpan>& spans, uint64_t trace_id);

  /// Wire-time decomposition of a block span, where the stack knows it.
  void OnNetworkTransfer(int64_t ts_micros, int64_t dur_micros);

  /// Server residence (service) decomposition of a block span.
  void OnServerResidence(int64_t ts_micros, int64_t dur_micros);

  /// Client-side response deserialization (payload bytes parsed).
  void OnParse(int64_t ts_micros, int64_t payload_bytes);

  /// One retried call after a (simulated) timeout; `timeout_ms` is the
  /// dead time the retry charged.
  void OnRetry(int64_t ts_micros, double timeout_ms);

  /// One controller adaptivity step: the decision plus the controller's
  /// DebugState() snapshot. Numeric snapshot entries are mirrored to
  /// gauges (wsq.controller.<key>) so the latest internal state is
  /// visible in a metrics dump, and the full snapshot rides on the trace
  /// event's args.
  void OnControllerDecision(int64_t ts_micros, std::string_view controller,
                            const StateSnapshot& state,
                            int64_t adaptivity_step, int64_t next_size);

  /// Server-side samples (event-driven sim / container shims).
  void OnServerQueueLength(int64_t ts_micros, int queue_length);
  void OnServerLoadLevel(int64_t ts_micros, int active_sessions);

  /// One scripted fault injected by the chaos layer (fault/). `kind` is
  /// FaultKindName(...); `cost_ms` is the dead time the fault charged
  /// (0 for perturbations, whose cost rides inside the block span).
  /// Lands on the dedicated fault lane.
  void OnFaultInjected(int64_t ts_micros, std::string_view kind,
                       int64_t block_index, double cost_ms);

  /// A circuit-breaker state change in the resilience policy; `from` /
  /// `to` are BreakerStateName(...) values. The breaker state is also
  /// mirrored to the wsq.resilience.breaker_state gauge
  /// (closed=0, open=1, half_open=2).
  void OnBreakerTransition(int64_t ts_micros, std::string_view from,
                           std::string_view to);

 private:
  MetricsRegistry* metrics_;
  Tracer* tracer_;

  // Cached handles: hook bodies never take the registry lock.
  Counter* sessions_total_ = nullptr;
  Counter* blocks_total_ = nullptr;
  Counter* tuples_total_ = nullptr;
  Counter* retries_total_ = nullptr;
  Counter* decisions_total_ = nullptr;
  Counter* parses_total_ = nullptr;
  Counter* faults_total_ = nullptr;
  Counter* remote_spans_total_ = nullptr;
  Counter* breaker_transitions_total_ = nullptr;
  Histogram* fault_cost_ms_ = nullptr;
  Gauge* breaker_state_ = nullptr;
  Histogram* block_time_ms_ = nullptr;
  Histogram* block_size_ = nullptr;
  Histogram* per_tuple_ms_ = nullptr;
  Histogram* net_transfer_ms_ = nullptr;
  Histogram* server_residence_ms_ = nullptr;
  Gauge* queue_len_ = nullptr;
  Gauge* load_level_ = nullptr;
};

/// Process-global default observer consulted by backends when
/// `RunSpec::observer` is null. Null (the default) disables
/// observability; bench binaries install one when --metrics-out /
/// --trace-out is passed. Not owned; the caller keeps it alive for the
/// duration of its installation.
RunObserver* GlobalRunObserver();
void SetGlobalRunObserver(RunObserver* observer);

}  // namespace wsq

#endif  // WSQ_OBS_RUN_OBSERVER_H_
