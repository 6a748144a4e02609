#include "wsq/obs/run_observer.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "wsq/obs/json_lite.h"

namespace wsq {
namespace {

std::atomic<RunObserver*> g_global_observer{nullptr};

/// Block sizes live in [100, 20000] in the paper's experiments; decade
/// 1-2-5 bounds up to 100K cover them with useful resolution.
std::vector<double> BlockSizeBuckets() {
  std::vector<double> bounds;
  for (double decade = 100.0; decade <= 1e5; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.0 * decade);
    bounds.push_back(5.0 * decade);
  }
  return bounds;
}

/// Sub-millisecond resolution for per-tuple costs (typically 0.01-10 ms).
std::vector<double> PerTupleBuckets() {
  std::vector<double> bounds;
  for (double decade = 0.001; decade <= 100.0; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.0 * decade);
    bounds.push_back(5.0 * decade);
  }
  return bounds;
}

/// Trace/span ids as fixed-width hex strings — the form trace viewers
/// and the correlation checks key on (JSON numbers would lose precision
/// past 2^53).
std::string HexId(uint64_t id) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

RunObserver::RunObserver(MetricsRegistry* metrics, Tracer* tracer)
    : metrics_(metrics), tracer_(tracer) {
  if (metrics_ != nullptr) {
    sessions_total_ = metrics_->GetCounter("wsq.pull.sessions_total");
    blocks_total_ = metrics_->GetCounter("wsq.pull.blocks_total");
    tuples_total_ = metrics_->GetCounter("wsq.pull.tuples_total");
    retries_total_ = metrics_->GetCounter("wsq.pull.retries_total");
    decisions_total_ = metrics_->GetCounter("wsq.controller.decisions_total");
    parses_total_ = metrics_->GetCounter("wsq.pull.parses_total");
    block_time_ms_ = metrics_->GetHistogram("wsq.pull.block_time_ms");
    block_size_ =
        metrics_->GetHistogram("wsq.pull.block_size", BlockSizeBuckets());
    per_tuple_ms_ =
        metrics_->GetHistogram("wsq.pull.per_tuple_ms", PerTupleBuckets());
    faults_total_ = metrics_->GetCounter("wsq.fault.injected_total");
    remote_spans_total_ = metrics_->GetCounter("wsq.server.remote_spans_total");
    breaker_transitions_total_ =
        metrics_->GetCounter("wsq.resilience.breaker_transitions_total");
    fault_cost_ms_ = metrics_->GetHistogram("wsq.fault.cost_ms");
    breaker_state_ = metrics_->GetGauge("wsq.resilience.breaker_state");
    net_transfer_ms_ = metrics_->GetHistogram("wsq.net.transfer_ms");
    server_residence_ms_ =
        metrics_->GetHistogram("wsq.server.residence_ms");
    queue_len_ = metrics_->GetGauge("wsq.server.queue_len");
    load_level_ = metrics_->GetGauge("wsq.server.load_level");
  }
  if (tracer_ != nullptr && tracer_->size() == 0) {
    tracer_->SetLaneName(TraceLane::kPullLoop, "pull loop");
    tracer_->SetLaneName(TraceLane::kNetwork, "network / server");
    tracer_->SetLaneName(TraceLane::kController, "controller");
    tracer_->SetLaneName(TraceLane::kServer, "server load");
    tracer_->SetLaneName(TraceLane::kFault, "faults");
    tracer_->SetLaneName(TraceLane::kRemoteServer, "wsqd server");
  }
}

void RunObserver::OnSessionOpen(int64_t ts_micros, int64_t dur_micros) {
  if (sessions_total_ != nullptr) sessions_total_->Increment();
  if (tracer_ != nullptr) {
    tracer_->AddComplete("session_open", "session", ts_micros, dur_micros,
                         TraceLane::kPullLoop);
  }
}

void RunObserver::OnSessionClose(int64_t ts_micros, int64_t dur_micros) {
  if (tracer_ != nullptr) {
    tracer_->AddComplete("session_close", "session", ts_micros, dur_micros,
                         TraceLane::kPullLoop);
  }
}

void RunObserver::OnBlock(int64_t ts_micros, int64_t dur_micros,
                          int64_t requested_size, int64_t received_tuples,
                          double per_tuple_ms, int64_t retries,
                          uint64_t trace_id, uint64_t span_id) {
  if (blocks_total_ != nullptr) {
    blocks_total_->Increment();
    tuples_total_->Increment(received_tuples);
    block_time_ms_->Record(static_cast<double>(dur_micros) / 1000.0);
    block_size_->Record(static_cast<double>(requested_size));
    per_tuple_ms_->Record(per_tuple_ms);
  }
  if (tracer_ != nullptr) {
    std::string args = "{\"requested\":" + std::to_string(requested_size) +
                       ",\"received\":" + std::to_string(received_tuples) +
                       ",\"per_tuple_ms\":" + JsonNumber(per_tuple_ms) +
                       ",\"retries\":" + std::to_string(retries);
    if (trace_id != 0) {
      args += ",\"trace_id\":\"" + HexId(trace_id) + "\",\"span_id\":\"" +
              HexId(span_id) + "\"";
    }
    args += '}';
    tracer_->AddComplete("block_request", "pull", ts_micros, dur_micros,
                         TraceLane::kPullLoop, std::move(args));
  }
}

void RunObserver::OnRemoteSpans(const std::vector<RemoteSpan>& spans,
                                uint64_t trace_id) {
  if (remote_spans_total_ != nullptr) {
    remote_spans_total_->Increment(static_cast<int64_t>(spans.size()));
  }
  if (tracer_ == nullptr) return;
  for (const RemoteSpan& span : spans) {
    std::string args = "{\"trace_id\":\"" + HexId(trace_id) +
                       "\",\"span_id\":\"" + HexId(span.span_id) +
                       "\",\"parent_span_id\":\"" + HexId(span.parent_span_id) +
                       "\"}";
    if (span.dur_micros > 0) {
      tracer_->AddComplete(span.name, "server", span.ts_micros,
                           span.dur_micros, TraceLane::kRemoteServer,
                           std::move(args));
    } else {
      tracer_->AddInstant(span.name, "server", span.ts_micros,
                          TraceLane::kRemoteServer, std::move(args));
    }
  }
}

void RunObserver::OnNetworkTransfer(int64_t ts_micros, int64_t dur_micros) {
  if (net_transfer_ms_ != nullptr) {
    net_transfer_ms_->Record(static_cast<double>(dur_micros) / 1000.0);
  }
  if (tracer_ != nullptr) {
    tracer_->AddComplete("network_transfer", "net", ts_micros, dur_micros,
                         TraceLane::kNetwork);
  }
}

void RunObserver::OnServerResidence(int64_t ts_micros, int64_t dur_micros) {
  if (server_residence_ms_ != nullptr) {
    server_residence_ms_->Record(static_cast<double>(dur_micros) / 1000.0);
  }
  if (tracer_ != nullptr) {
    tracer_->AddComplete("server_residence", "net", ts_micros, dur_micros,
                         TraceLane::kNetwork);
  }
}

void RunObserver::OnParse(int64_t ts_micros, int64_t payload_bytes) {
  if (parses_total_ != nullptr) parses_total_->Increment();
  if (tracer_ != nullptr) {
    tracer_->AddInstant("parse", "pull", ts_micros, TraceLane::kPullLoop,
                        "{\"payload_bytes\":" + std::to_string(payload_bytes) +
                            "}");
  }
}

void RunObserver::OnRetry(int64_t ts_micros, double timeout_ms) {
  if (retries_total_ != nullptr) retries_total_->Increment();
  if (tracer_ != nullptr) {
    tracer_->AddInstant("retry", "pull", ts_micros, TraceLane::kPullLoop,
                        "{\"timeout_ms\":" + JsonNumber(timeout_ms) + "}");
  }
}

void RunObserver::OnControllerDecision(int64_t ts_micros,
                                       std::string_view controller,
                                       const StateSnapshot& state,
                                       int64_t adaptivity_step,
                                       int64_t next_size) {
  if (decisions_total_ != nullptr) decisions_total_->Increment();
  if (metrics_ != nullptr) {
    // Numeric snapshot entries become last-value gauges, so `gain`,
    // `sign_switches` etc. appear in metrics dumps without the tracer.
    for (const auto& [key, value] : state.entries()) {
      char* end = nullptr;
      const double parsed = std::strtod(value.c_str(), &end);
      if (end != value.c_str() && *end == '\0') {
        metrics_->GetGauge("wsq.controller." + key)->Set(parsed);
      }
    }
    metrics_->GetGauge("wsq.controller.next_size")
        ->Set(static_cast<double>(next_size));
  }
  if (tracer_ != nullptr) {
    StateSnapshot args;
    args.Add("controller", controller);
    args.Add("adaptivity_step", adaptivity_step);
    args.Add("next_size", next_size);
    args.Append(state);
    tracer_->AddInstant("controller_decision", "control", ts_micros,
                        TraceLane::kController, args.ToJsonObject());
    tracer_->AddCounterSample("block_size_command", ts_micros,
                              TraceLane::kController,
                              static_cast<double>(next_size));
  }
}

void RunObserver::OnServerQueueLength(int64_t ts_micros, int queue_length) {
  if (queue_len_ != nullptr) {
    queue_len_->Set(static_cast<double>(queue_length));
  }
  if (tracer_ != nullptr) {
    tracer_->AddCounterSample("server_queue_len", ts_micros,
                              TraceLane::kServer,
                              static_cast<double>(queue_length));
  }
}

void RunObserver::OnServerLoadLevel(int64_t ts_micros, int active_sessions) {
  if (load_level_ != nullptr) {
    load_level_->Set(static_cast<double>(active_sessions));
  }
  if (tracer_ != nullptr) {
    tracer_->AddCounterSample("server_load_level", ts_micros,
                              TraceLane::kServer,
                              static_cast<double>(active_sessions));
  }
}

void RunObserver::OnFaultInjected(int64_t ts_micros, std::string_view kind,
                                  int64_t block_index, double cost_ms) {
  if (faults_total_ != nullptr) {
    faults_total_->Increment();
    fault_cost_ms_->Record(cost_ms);
  }
  if (tracer_ != nullptr) {
    std::string args = "{\"kind\":\"" + std::string(kind) +
                       "\",\"block\":" + std::to_string(block_index) +
                       ",\"cost_ms\":" + JsonNumber(cost_ms) + "}";
    tracer_->AddInstant("fault_injected", "fault", ts_micros,
                        TraceLane::kFault, std::move(args));
  }
}

void RunObserver::OnBreakerTransition(int64_t ts_micros,
                                      std::string_view from,
                                      std::string_view to) {
  if (breaker_transitions_total_ != nullptr) {
    breaker_transitions_total_->Increment();
    // closed=0, open=1, half_open=2 — a plottable state track.
    const double level = to == "open" ? 1.0 : to == "half_open" ? 2.0 : 0.0;
    breaker_state_->Set(level);
  }
  if (tracer_ != nullptr) {
    std::string args = "{\"from\":\"" + std::string(from) + "\",\"to\":\"" +
                       std::string(to) + "\"}";
    tracer_->AddInstant("breaker_transition", "fault", ts_micros,
                        TraceLane::kFault, std::move(args));
  }
}

RunObserver* GlobalRunObserver() {
  return g_global_observer.load(std::memory_order_acquire);
}

void SetGlobalRunObserver(RunObserver* observer) {
  g_global_observer.store(observer, std::memory_order_release);
}

}  // namespace wsq
