#ifndef WSQ_EVENTSIM_EVENT_SIM_H_
#define WSQ_EVENTSIM_EVENT_SIM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "wsq/backend/run_trace.h"
#include "wsq/common/random.h"
#include "wsq/common/status.h"
#include "wsq/control/controller.h"
#include "wsq/eventsim/ps_server.h"
#include "wsq/fault/exchange_player.h"
#include "wsq/obs/run_observer.h"
#include "wsq/server/load_model.h"

namespace wsq {

/// Each client's dedicated network path to the shared server: one fixed
/// latency plus transfer time per leg, scaled by lognormal jitter.
struct ClientPathConfig {
  /// One-way network latency per leg (ms).
  double one_way_latency_ms = 20.0;
  /// Dedicated per-client path bandwidth.
  double bandwidth_mbps = 9.0;
  double bytes_per_tuple = 120.0;
  /// Lognormal jitter sigma per network leg; 0 disables. Drawn from the
  /// client's jitter stream.
  double jitter_sigma = 0.0;

  Status Validate() const;
};

/// Environment of the event-driven processor-sharing simulation. Unlike
/// the LoadModel shortcut (which folds concurrency into static
/// multipliers), clients here genuinely slow each other down, speed back
/// up when others finish, and share the server buffer dynamically. It
/// exists to validate the shortcut and to study arrival/departure
/// transients (paper Fig. 2's "the server received more load between
/// the second and the third query").
struct EventSimConfig : ClientPathConfig {
  /// Server CPU costs (solo service demand; concurrency emerges from
  /// processor sharing, NOT from multipliers).
  double per_request_cpu_ms = 3.0;
  double per_tuple_cpu_ms = 0.010;
  /// Paging penalty past the buffer; the effective buffer is the
  /// capacity divided among the sessions active at block-service time.
  double buffer_capacity_tuples = 9700.0;
  double paging_penalty_ms = 0.006;
  double query_buffer_shrink = 0.35;

  uint64_t seed = 1;

  Status Validate() const;
};

/// The shared server of a simulation run — the one thing that differs
/// between the processor-sharing and admission-snapshot simulations.
/// The event core owns everything else: the client pull loops, the
/// network legs and the (time, seq) event queue.
class ServerModel {
 public:
  /// A request for `tuples` from `client` reaches the server at
  /// `now_ms` while `sessions` queries are open; `stream` is the
  /// client's random stream. Returns when the block's service ends if
  /// the model fixes that now — the core then queues the completion as
  /// an ordinary event, so equal times break FIFO — or nullopt when the
  /// model's own clock decides it (NextCompletionTime / AdvanceTo).
  virtual Result<std::optional<double>> Admit(double now_ms, size_t client,
                                              int64_t tuples, int sessions,
                                              Random& stream) = 0;

  /// A block whose end Admit fixed has finished service.
  virtual void Release() {}

  /// When the model's own clock next completes a block; nullopt when it
  /// holds none.
  virtual std::optional<double> NextCompletionTime() const {
    return std::nullopt;
  }

  /// Advances the model's clock to `now_ms` (never past
  /// NextCompletionTime) and returns the client whose block completes
  /// exactly then, if any.
  virtual Result<std::optional<size_t>> AdvanceTo(double /*now_ms*/) {
    return std::optional<size_t>();
  }

  /// Blocks in service (the observer's queue-length samples).
  virtual int active_jobs() const = 0;

 protected:
  /// Models are owned by their concrete type, never through this base.
  ~ServerModel() = default;
};

/// Exact processor sharing (PsServer): every admitted block depletes at
/// rate 1/n while n are in service. A block's solo demand is its CPU
/// cost plus a quadratic paging penalty past the buffer share of the
/// sessions open when it arrives.
class ProcessorSharingServer final : public ServerModel {
 public:
  explicit ProcessorSharingServer(const EventSimConfig& config)
      : config_(config) {}

  Result<std::optional<double>> Admit(double now_ms, size_t client,
                                      int64_t tuples, int sessions,
                                      Random& stream) override;
  std::optional<double> NextCompletionTime() const override {
    return server_.NextCompletionTime();
  }
  Result<std::optional<size_t>> AdvanceTo(double now_ms) override;
  int active_jobs() const override { return server_.active_jobs(); }

 private:
  EventSimConfig config_;
  PsServer server_;
};

/// Admission-snapshot pricing: each block's service time is fixed the
/// instant it arrives, by the analytic LoadModel evaluated at the live
/// count of blocks in service (this one included), with service noise
/// from the client's stream. Later arrivals do not slow blocks already
/// priced — the O(1)-per-block approximation of processor sharing that
/// lets a run scale to thousands of clients.
class AdmissionSnapshotServer final : public ServerModel {
 public:
  /// `load.concurrent_queries` is overwritten per block with the live
  /// in-flight count; the other fields describe the server and its
  /// static background load.
  explicit AdmissionSnapshotServer(const LoadModelConfig& load)
      : load_(load) {}

  Result<std::optional<double>> Admit(double now_ms, size_t client,
                                      int64_t tuples, int sessions,
                                      Random& stream) override;
  void Release() override { in_flight_ -= 1; }
  int active_jobs() const override { return in_flight_; }

 private:
  LoadModelConfig load_;
  int in_flight_ = 0;
};

/// One client session on the shared server.
struct ClientSpec {
  /// Tuples this client's query returns.
  int64_t dataset_tuples = 0;
  /// Controller driving this client's block sizes (not reset by the
  /// core; one fresh controller per client). Must outlive the run.
  Controller* controller = nullptr;
  /// When the client issues its first request (ms on the shared
  /// timeline); staggered starts model queries arriving mid-run.
  double start_time_ms = 0.0;
  /// Stream the network-leg jitter (and an admission-snapshot server's
  /// service noise) is drawn from, in event order. Clients may share
  /// one stream or own one each. Not owned.
  Random* stream = nullptr;
  /// Observability sink for this client's pull loop (block spans,
  /// network/server decomposition, controller decisions, server queue
  /// samples), stamped in simulated timeline time. Null disables; not
  /// owned.
  RunObserver* observer = nullptr;
  /// Chaos layer for this client's exchanges: injected failures delay
  /// the request send by their capped cost + backoff (dead time outside
  /// any block span), perturbations extend the response path. Null = no
  /// faults.
  FaultInjector* injector = nullptr;
  /// Resilience policy: its retry budget bounds the injected failures
  /// of one exchange and its breaker governs every commanded size. Null
  /// = a default-config policy owned by the lane. Not owned.
  ResiliencePolicy* policy = nullptr;
};

/// One client's lane of a shared-server run: the canonical RunTrace plus
/// its placement on the shared timeline.
struct TenantTrace {
  /// Lane name; the core leaves it empty for the caller to fill.
  std::string tenant;
  double start_time_ms = 0.0;
  /// Absolute completion time on the shared clock;
  /// trace.total_time_ms == completion_time_ms - start_time_ms.
  double completion_time_ms = 0.0;
  RunTrace trace;
};

/// The one event core of both shared-server simulations: runs every
/// client's Algorithm 1 pull loop to completion against `server` on one
/// timeline and returns the lanes in input order. Each block is one
/// request leg, the server's service, and one response leg; the
/// controller decides once per block, the last included. Deterministic
/// for (inputs, streams): events are ordered by (time, push order), and
/// completions the server's own clock produces are handled before an
/// event queued for the same time. kInvalidArgument on bad specs;
/// kUnavailable when injected faults exhaust a client's retry budget.
Result<std::vector<TenantTrace>> RunSharedServer(
    const ClientPathConfig& path, ServerModel& server,
    const std::vector<ClientSpec>& clients);

}  // namespace wsq

#endif  // WSQ_EVENTSIM_EVENT_SIM_H_
