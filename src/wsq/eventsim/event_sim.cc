#include "wsq/eventsim/event_sim.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace wsq {
namespace {

/// Approximate request envelope size on the wire.
constexpr double kRequestBytes = 600.0;

enum class EventKind {
  kRequestArrives,   // request lands at the server
  kServiceDone,      // a block whose end was fixed at admission is served
  kResponseArrives,  // response lands back at the client
};

struct Event {
  double time_ms;
  int64_t seq;  // FIFO tiebreak for equal times
  EventKind kind;
  size_t client;

  bool operator>(const Event& other) const {
    if (time_ms != other.time_ms) return time_ms > other.time_ms;
    return seq > other.seq;
  }
};

struct Lane {
  ClientSpec spec;
  /// spec.policy, or else default_policy: resolved once at set-up.
  ResiliencePolicy* policy = nullptr;
  int64_t remaining = 0;
  int64_t current_block = 0;        // tuples in the in-flight block
  double request_sent_at = 0.0;     // t1 of Algorithm 1
  double request_arrived_at = 0.0;  // server-side arrival of the request
  bool started = false;
  bool finished = false;
  /// Injected-fault state of the in-flight block, resolved at request
  /// send time (see SendRequest) and folded in when the response lands.
  int64_t pending_retries = 0;
  SuccessPerturbation pending_perturbation;
  bool perturbation_applied = false;
  TenantTrace out;
  ResiliencePolicy default_policy{ResilienceConfig{}, /*run_seed=*/0};
};

/// Timeline ms -> trace-event microseconds.
int64_t Micros(double ms) { return std::llround(ms * 1000.0); }

class EventCore {
 public:
  EventCore(const ClientPathConfig& path, ServerModel& server,
            const std::vector<ClientSpec>& specs)
      : path_(path), server_(server) {
    // Built in place, never reallocated: a lane may point at its own
    // default policy.
    lanes_.reserve(specs.size());
    for (const ClientSpec& spec : specs) {
      Lane& lane = lanes_.emplace_back();
      lane.spec = spec;
      lane.policy = spec.policy ? spec.policy : &lane.default_policy;
      lane.remaining = spec.dataset_tuples;
      lane.out.start_time_ms = spec.start_time_ms;
      lane.out.trace.controller_name = spec.controller->name();
    }
  }

  Result<std::vector<TenantTrace>> Run() {
    for (size_t i = 0; i < lanes_.size(); ++i) {
      Lane& lane = lanes_[i];
      lane.current_block =
          Clamp(lane, lane.spec.controller->initial_block_size());
      WSQ_RETURN_IF_ERROR(SendRequest(i, lane.spec.start_time_ms));
    }

    while (true) {
      const std::optional<double> next_completion =
          server_.NextCompletionTime();
      if (events_.empty() && !next_completion.has_value()) break;
      if (next_completion.has_value() &&
          (events_.empty() || *next_completion <= events_.top().time_ms)) {
        WSQ_RETURN_IF_ERROR(Harvest(*next_completion));
        continue;
      }
      const Event event = events_.top();
      events_.pop();
      // Safe: no completion earlier than this event exists.
      if (next_completion.has_value()) {
        WSQ_RETURN_IF_ERROR(Harvest(event.time_ms));
      }
      switch (event.kind) {
        case EventKind::kRequestArrives:
          WSQ_RETURN_IF_ERROR(OnRequestArrives(event));
          break;
        case EventKind::kServiceDone:
          server_.Release();
          OnServiceDone(event.client, event.time_ms);
          break;
        case EventKind::kResponseArrives:
          WSQ_RETURN_IF_ERROR(OnResponseArrives(event));
          break;
      }
    }

    std::vector<TenantTrace> out;
    out.reserve(lanes_.size());
    for (Lane& lane : lanes_) {
      if (!lane.finished) {
        return Status::Internal("event sim ended with an unfinished client");
      }
      out.push_back(std::move(lane.out));
    }
    return out;
  }

 private:
  void Push(double time_ms, size_t client, EventKind kind) {
    events_.push(Event{time_ms, next_seq_++, kind, client});
  }

  static int64_t Clamp(const Lane& lane, int64_t size) {
    return std::min<int64_t>(std::max<int64_t>(size, 1), lane.remaining);
  }

  double LegMs(Lane& lane, double bytes) {
    const double transfer_ms =
        bytes * 8.0 / (path_.bandwidth_mbps * 1e6) * 1e3;
    const double jitter =
        path_.jitter_sigma > 0.0
            ? lane.spec.stream->LognormalMultiplier(path_.jitter_sigma)
            : 1.0;
    return (path_.one_way_latency_ms + transfer_ms) * jitter;
  }

  /// Pops the server's completion at `now_ms`, if it has one; `popped`,
  /// when not null, says whether it had.
  Status Harvest(double now_ms, bool* popped = nullptr) {
    Result<std::optional<size_t>> completed = server_.AdvanceTo(now_ms);
    if (!completed.ok()) return completed.status();
    if (popped != nullptr) *popped = completed.value().has_value();
    if (completed.value().has_value()) {
      OnServiceDone(*completed.value(), now_ms);
    }
    return Status::Ok();
  }

  /// Sends `lane`'s current block request at `now_ms`: injected failed
  /// attempts and backoff first delay the send — dead time on the
  /// client's run clock, outside any block span — then the request leg
  /// starts. kUnavailable when the retry budget is exhausted.
  Status SendRequest(size_t client, double now_ms) {
    Lane& lane = lanes_[client];
    RunTrace& trace = lane.out.trace;
    lane.pending_retries = 0;
    lane.pending_perturbation = SuccessPerturbation{};
    lane.perturbation_applied = false;
    double dead_ms = 0.0;
    if (lane.spec.injector != nullptr) {
      // The plan clock is the client's own run clock: time since its
      // start, matching "run start" on the other backends.
      const ExchangePlay play = PlayExchange(
          lane.spec.injector, *lane.policy, trace.total_blocks,
          now_ms - lane.spec.start_time_ms, lane.current_block,
          lane.spec.observer, Micros(now_ms));
      trace.total_retries += play.retries;
      trace.total_retry_time_ms += play.dead_time_ms;
      if (!play.completed) {
        return Status::Unavailable(
            "injected faults exhausted the retry budget at block " +
            std::to_string(trace.total_blocks));
      }
      lane.pending_retries = play.retries;
      lane.pending_perturbation = play.perturbation;
      dead_ms = play.dead_time_ms;
    }
    lane.request_sent_at = now_ms + dead_ms;
    Push(lane.request_sent_at + LegMs(lane, kRequestBytes), client,
         EventKind::kRequestArrives);
    return Status::Ok();
  }

  Status OnRequestArrives(const Event& event) {
    Lane& lane = lanes_[event.client];
    if (!lane.started) {
      lane.started = true;
      open_sessions_ += 1;
    }
    lane.request_arrived_at = event.time_ms;
    // Blocks tied within the server's completion slack are all done at
    // this instant, but the loop harvested only one: hand back the rest
    // before admitting, which would otherwise complete one unseen.
    bool popped = server_.NextCompletionTime().has_value();
    while (popped) WSQ_RETURN_IF_ERROR(Harvest(event.time_ms, &popped));
    Result<std::optional<double>> end =
        server_.Admit(event.time_ms, event.client, lane.current_block,
                      open_sessions_, *lane.spec.stream);
    if (!end.ok()) return end.status();
    if (end.value().has_value()) {
      Push(*end.value(), event.client, EventKind::kServiceDone);
    }
    if (RunObserver* observer = lane.spec.observer) {
      observer->OnNetworkTransfer(Micros(lane.request_sent_at),
                                  Micros(event.time_ms - lane.request_sent_at));
      observer->OnServerQueueLength(Micros(event.time_ms),
                                    server_.active_jobs());
      observer->OnServerLoadLevel(Micros(event.time_ms), open_sessions_);
    }
    return Status::Ok();
  }

  void OnServiceDone(size_t client, double now_ms) {
    Lane& lane = lanes_[client];
    const double response_leg_ms =
        LegMs(lane, static_cast<double>(lane.current_block) *
                        path_.bytes_per_tuple);
    Push(now_ms + response_leg_ms, client, EventKind::kResponseArrives);
    if (RunObserver* observer = lane.spec.observer) {
      observer->OnServerResidence(Micros(lane.request_arrived_at),
                                  Micros(now_ms - lane.request_arrived_at));
      observer->OnNetworkTransfer(Micros(now_ms), Micros(response_leg_ms));
      observer->OnServerQueueLength(Micros(now_ms), server_.active_jobs());
    }
  }

  Status OnResponseArrives(const Event& event) {
    Lane& lane = lanes_[event.client];
    // A pending latency spike / server stall extends the response path:
    // reschedule the arrival once by the perturbation's extra time, so
    // the client's whole subsequent timeline genuinely shifts.
    if (lane.pending_perturbation.active() && !lane.perturbation_applied) {
      lane.perturbation_applied = true;
      const double elapsed = event.time_ms - lane.request_sent_at;
      const double extra = lane.pending_perturbation.Apply(elapsed) - elapsed;
      if (extra > 0.0) {
        Push(event.time_ms + extra, event.client,
             EventKind::kResponseArrives);
        return Status::Ok();
      }
    }
    const double elapsed_ms = event.time_ms - lane.request_sent_at;
    const int64_t received = lane.current_block;
    Controller* controller = lane.spec.controller;
    RunTrace& trace = lane.out.trace;

    // Algorithm 1: the controller consumes the per-tuple cost of the
    // block that just arrived and names the next size.
    const double per_tuple_ms =
        elapsed_ms / static_cast<double>(std::max<int64_t>(received, 1));
    int64_t next_size = controller->NextBlockSize(per_tuple_ms);
    next_size = lane.policy->GovernNextSize(next_size);

    RunStep step;
    step.step = trace.total_blocks;
    // The size is clamped to the remaining tuples before the request
    // leaves, so requested == received.
    step.requested_size = received;
    step.received_tuples = received;
    step.per_tuple_ms = per_tuple_ms;
    step.block_time_ms = elapsed_ms;
    step.retries = lane.pending_retries;
    step.adaptivity_step = controller->adaptivity_steps();
    trace.steps.push_back(step);
    trace.total_blocks += 1;
    trace.total_tuples += received;
    lane.remaining -= received;

    if (RunObserver* observer = lane.spec.observer) {
      observer->OnBlock(Micros(lane.request_sent_at), Micros(elapsed_ms),
                        received, received, per_tuple_ms,
                        lane.pending_retries);
      observer->OnControllerDecision(
          Micros(event.time_ms), controller->name(), controller->DebugState(),
          controller->adaptivity_steps(), next_size);
    }
    EmitBreakerTransitions(*lane.policy, lane.spec.observer,
                           Micros(event.time_ms));

    if (lane.remaining <= 0) {
      lane.finished = true;
      open_sessions_ -= 1;
      lane.out.completion_time_ms = event.time_ms;
      trace.total_time_ms = event.time_ms - lane.spec.start_time_ms;
      if (lane.spec.injector != nullptr) {
        trace.fault_log = lane.spec.injector->log();
      }
      trace.breaker_trips = lane.policy->breaker_trips();
      return Status::Ok();
    }

    lane.current_block = Clamp(lane, next_size);
    return SendRequest(event.client, event.time_ms);
  }

  const ClientPathConfig& path_;
  ServerModel& server_;
  std::vector<Lane> lanes_;
  /// Clients that have reached the server and not finished — what a
  /// processor-sharing server divides its buffer among.
  int open_sessions_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
      events_;
  int64_t next_seq_ = 0;
};

}  // namespace

Status ClientPathConfig::Validate() const {
  if (one_way_latency_ms < 0.0) {
    return Status::InvalidArgument("latency must be >= 0");
  }
  if (bandwidth_mbps <= 0.0 || bytes_per_tuple <= 0.0) {
    return Status::InvalidArgument("bandwidth/tuple size must be > 0");
  }
  if (jitter_sigma < 0.0) {
    return Status::InvalidArgument("jitter sigma must be >= 0");
  }
  return Status::Ok();
}

Status EventSimConfig::Validate() const {
  WSQ_RETURN_IF_ERROR(ClientPathConfig::Validate());
  if (per_request_cpu_ms < 0.0 || per_tuple_cpu_ms < 0.0 ||
      paging_penalty_ms < 0.0) {
    return Status::InvalidArgument("cpu costs must be >= 0");
  }
  if (buffer_capacity_tuples <= 0.0 || query_buffer_shrink < 0.0) {
    return Status::InvalidArgument("buffer parameters invalid");
  }
  return Status::Ok();
}

Result<std::optional<double>> ProcessorSharingServer::Admit(
    double now_ms, size_t client, int64_t tuples, int sessions,
    Random& /*stream*/) {
  double demand = config_.per_request_cpu_ms +
                  config_.per_tuple_cpu_ms * static_cast<double>(tuples);
  const double buffer =
      config_.buffer_capacity_tuples /
      (1.0 + config_.query_buffer_shrink * static_cast<double>(sessions - 1));
  const double overshoot = static_cast<double>(tuples) - buffer;
  if (overshoot > 0.0) {
    demand +=
        config_.paging_penalty_ms * overshoot * overshoot / std::sqrt(buffer);
  }
  Result<int64_t> job = server_.Submit(now_ms, demand, client);
  if (!job.ok()) return job.status();
  return std::optional<double>();
}

Result<std::optional<size_t>> ProcessorSharingServer::AdvanceTo(
    double now_ms) {
  size_t client = 0;
  Result<std::optional<int64_t>> completed = server_.AdvanceTo(now_ms, &client);
  if (!completed.ok()) return completed.status();
  if (!completed.value().has_value()) return std::optional<size_t>();
  return std::optional<size_t>(client);
}

Result<std::optional<double>> AdmissionSnapshotServer::Admit(
    double now_ms, size_t /*client*/, int64_t tuples, int /*sessions*/,
    Random& stream) {
  in_flight_ += 1;
  load_.concurrent_queries = std::max(in_flight_, 1);
  return std::optional<double>(
      now_ms + LoadModel(load_).ServiceTimeMs(tuples, stream));
}

Result<std::vector<TenantTrace>> RunSharedServer(
    const ClientPathConfig& path, ServerModel& server,
    const std::vector<ClientSpec>& clients) {
  WSQ_RETURN_IF_ERROR(path.Validate());
  if (clients.empty()) {
    return Status::InvalidArgument("no clients");
  }
  for (const ClientSpec& spec : clients) {
    if (spec.controller == nullptr || spec.stream == nullptr) {
      return Status::InvalidArgument("client without controller or stream");
    }
    if (spec.dataset_tuples < 1) {
      return Status::InvalidArgument("client dataset must be >= 1 tuple");
    }
    if (spec.start_time_ms < 0.0) {
      return Status::InvalidArgument("start time must be >= 0");
    }
  }
  return EventCore(path, server, clients).Run();
}

}  // namespace wsq
