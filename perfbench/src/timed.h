// Forwarding wrappers the traced run installs around the library's
// public interfaces. They time each call and record counts at the
// boundary; behaviour is exactly the wrapped object's.

#ifndef PERFBENCH_TIMED_H_
#define PERFBENCH_TIMED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "probe.h"
#include "wsq/client/call_transport.h"
#include "wsq/control/controller.h"

namespace perfbench {

/// Controller decisions made, and the time spent making them.
struct DecisionStats {
  int64_t decisions = 0;
  int64_t ns = 0;
};

class TimedController final : public wsq::Controller {
 public:
  TimedController(std::unique_ptr<wsq::Controller> inner, DecisionStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  int64_t initial_block_size() const override {
    return inner_->initial_block_size();
  }
  int64_t NextBlockSize(double response_time_ms) override {
    const int64_t t0 = NowNs();
    const int64_t next = inner_->NextBlockSize(response_time_ms);
    stats_->ns += NowNs() - t0;
    stats_->decisions += 1;
    return next;
  }
  int64_t adaptivity_steps() const override {
    return inner_->adaptivity_steps();
  }
  void Reset() override { inner_->Reset(); }
  std::string name() const override { return inner_->name(); }
  wsq::StateSnapshot DebugState() const override {
    return inner_->DebugState();
  }

 private:
  std::unique_ptr<wsq::Controller> inner_;
  DecisionStats* stats_;
};

/// One WsCallTransport::Call as seen from outside the transport.
struct CallRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
  /// Server residence the response frame reported (CallResult).
  double service_ms = 0.0;
  int64_t request_bytes = 0;
  int64_t response_bytes = 0;
};

class TimedTransport final : public wsq::WsCallTransport {
 public:
  TimedTransport(wsq::WsCallTransport* inner, std::vector<CallRecord>* calls)
      : inner_(inner), calls_(calls) {}

  wsq::Result<wsq::CallResult> Call(
      const std::string& request_document) override {
    CallRecord rec;
    rec.start_ns = NowNs();
    wsq::Result<wsq::CallResult> result = inner_->Call(request_document);
    rec.end_ns = NowNs();
    rec.ok = result.ok();
    rec.request_bytes = static_cast<int64_t>(request_document.size());
    if (result.ok()) {
      rec.service_ms = result.value().service_ms;
      rec.response_bytes = static_cast<int64_t>(result.value().response.size());
    }
    calls_->push_back(rec);
    return result;
  }
  void AdvanceClockMs(double ms) override { inner_->AdvanceClockMs(ms); }
  const wsq::Clock* clock() const override { return inner_->clock(); }
  double LastFailureCostMs() const override {
    return inner_->LastFailureCostMs();
  }
  void SetCallDeadlineMs(double deadline_ms) override {
    inner_->SetCallDeadlineMs(deadline_ms);
  }
  wsq::codec::CodecKind wire_codec() const override {
    return inner_->wire_codec();
  }
  bool SequencedRetriesSafe() const override {
    return inner_->SequencedRetriesSafe();
  }
  bool TracingNegotiated() const override {
    return inner_->TracingNegotiated();
  }
  void SetNextCallTrace(uint64_t trace_id, uint64_t span_id) override {
    inner_->SetNextCallTrace(trace_id, span_id);
  }
  std::vector<wsq::RemoteSpan> TakeRemoteSpans() override {
    return inner_->TakeRemoteSpans();
  }

 private:
  wsq::WsCallTransport* inner_;
  std::vector<CallRecord>* calls_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_H_
