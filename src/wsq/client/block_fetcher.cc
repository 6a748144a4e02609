#include "wsq/client/block_fetcher.h"

#include <algorithm>
#include <utility>

#include "wsq/codec/binary_codec.h"
#include "wsq/codec/soap_codec.h"
#include "wsq/fault/exchange_player.h"
#include "wsq/relation/tuple_serializer.h"
#include "wsq/soap/envelope.h"
#include "wsq/soap/message.h"

namespace wsq {
namespace {

const codec::BinaryCodec kBinaryCodec;
const codec::SoapCodec kSoapCodec;

/// Block responses are decoded by what they *are*, not by what was
/// negotiated: a reconnect may have downgraded the connection mid-run,
/// and a sniffed dispatch can never mis-pair codec and payload.
Result<codec::DecodedBlock> DecodeBlockPayload(std::string payload) {
  if (codec::SniffPayloadCodec(payload) == codec::CodecKind::kBinary) {
    return kBinaryCodec.DecodeBlockResponse(std::move(payload));
  }
  return kSoapCodec.DecodeBlockResponse(std::move(payload));
}

/// splitmix64 finalizer — a well-mixed 64-bit trace id out of whatever
/// entropy the caller has (clock micros, object address). Never 0 (0
/// means "no trace" throughout the span plumbing).
uint64_t MixTraceId(uint64_t seed) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z != 0 ? z : 1;
}

}  // namespace

bool BlockFetcher::NoteFailure(double attempt_cost_ms, bool session_call,
                               int* attempts, FetchOutcome* outcome) {
  policy_->OnExchangeFailure();
  EmitBreakerTransitions(*policy_, observer_, client_->clock()->NowMicros());
  if (*attempts >= policy_->max_retries()) return false;
  ++*attempts;
  ++outcome->retries;
  if (session_call) ++outcome->session_retries;
  // A failed exchange costs its (capped) attempt time plus backoff; the
  // accounting lands on the total and the retry pool, never on a block
  // (retries are dead time, not a property of the block size the
  // controller is probing).
  const double backoff_ms = policy_->BackoffMs(*attempts);
  if (backoff_ms > 0.0) client_->AdvanceClockMs(backoff_ms);
  const double dead_ms = attempt_cost_ms + backoff_ms;
  outcome->total_time_ms += dead_ms;
  outcome->retry_time_ms += dead_ms;
  if (observer_ != nullptr) {
    observer_->OnRetry(client_->clock()->NowMicros(), attempt_cost_ms);
  }
  return true;
}

Result<CallResult> BlockFetcher::CallWithRetry(const std::string& document,
                                               int64_t block_index,
                                               int64_t block_size,
                                               FetchOutcome* outcome) {
  const bool session_call = block_index < 0;
  // Resilience deadlines reach the wire: a transport that can give up on
  // a slow exchange (socket poll timeouts) is told how long to wait; the
  // simulated transport ignores the hint and the policy caps charged
  // costs instead.
  client_->SetCallDeadlineMs(
      policy_->HasDeadline() ? policy_->DeadlineMs(block_size) : 0.0);
  int attempts = 0;
  while (true) {
    // Scripted faults fire ahead of the wire (block calls only — the
    // plan addresses faults by block index); their capped cost is
    // charged to the simulated clock exactly like a link timeout.
    if (injector_ != nullptr && !session_call) {
      const AttemptFault fault = injector_->NextAttempt(
          block_index,
          static_cast<double>(client_->clock()->NowMicros()) / 1000.0);
      if (fault.faulted) {
        const double cost_ms = policy_->CapCostMs(fault.cost_ms, block_size);
        if (observer_ != nullptr) {
          observer_->OnFaultInjected(client_->clock()->NowMicros(),
                                     FaultKindName(fault.kind), block_index,
                                     cost_ms);
        }
        client_->AdvanceClockMs(cost_ms);
        if (!NoteFailure(cost_ms, session_call, &attempts, outcome)) {
          return Status::Unavailable(
              "injected faults exhausted the retry budget at block " +
              std::to_string(block_index));
        }
        continue;
      }
    }
    // Each attempt gets its own span id within the run's trace, so a
    // retried block's server spans stay distinguishable per attempt.
    last_call_span_id_ = ++next_span_seq_;
    client_->SetNextCallTrace(trace_id_, last_call_span_id_);
    Result<CallResult> call = client_->Call(document);
    if (call.ok() || call.status().code() != StatusCode::kUnavailable) {
      if (call.ok()) {
        policy_->OnExchangeSuccess();
        EmitBreakerTransitions(*policy_, observer_,
                               client_->clock()->NowMicros());
      }
      return call;
    }
    // Failed exchange: the transport already charged its cost to the
    // timeline (the simulated link's timeout, or the real time a socket
    // attempt burned before erroring out).
    if (!NoteFailure(client_->LastFailureCostMs(), session_call, &attempts,
                     outcome)) {
      return call;
    }
  }
}

Result<FetchOutcome> BlockFetcher::Run(const ScanProjectQuery& query,
                                       const TupleSerializer* serializer,
                                       std::vector<Tuple>* keep_tuples) {
  FetchOutcome outcome;
  const Clock* clock = client_->clock();

  // One trace per query run. Clock micros plus this outcome's address
  // seed the mix, so parallel lanes starting the same microsecond still
  // draw distinct ids.
  trace_id_ = MixTraceId(static_cast<uint64_t>(clock->NowMicros()) ^
                         reinterpret_cast<uintptr_t>(&outcome));
  next_span_seq_ = 0;

  // Open the session.
  OpenSessionRequest open;
  open.table = query.table_name;
  open.columns = query.projected_columns;
  open.filter = query.filter;
  const int64_t open_started = clock->NowMicros();
  Result<CallResult> open_call = CallWithRetry(
      EncodeOpenSession(open), FaultInjector::kSessionCall, 0, &outcome);
  if (!open_call.ok()) return open_call.status();
  if (observer_ != nullptr) {
    observer_->OnSessionOpen(open_started,
                             clock->NowMicros() - open_started);
    const std::vector<RemoteSpan> remote = client_->TakeRemoteSpans();
    if (!remote.empty()) observer_->OnRemoteSpans(remote, trace_id_);
  }
  Result<XmlNode> open_payload = ParseEnvelope(open_call.value().response);
  if (!open_payload.ok()) return open_payload.status();
  Result<OpenSessionResponse> opened =
      DecodeOpenSessionResponse(open_payload.value());
  if (!opened.ok()) return opened.status();
  const int64_t session_id = opened.value().session_id;

  int64_t block_size = controller_->initial_block_size();

  while (true) {
    const int64_t block_index = outcome.total_blocks;

    RequestBlockRequest request;
    request.session_id = session_id;
    request.block_size = block_size;

    // Encode in the negotiated wire form. Requests carry the block
    // index as their sequence number whenever the transport asks for
    // it — always under binary, and under SOAP on every live
    // connection. A retried fetch then re-sends the same sequence and
    // replays rather than skipping a block. The simulated transport
    // leaves SOAP unsequenced (-1): it never needs a replay, and its
    // link model charges every request byte.
    std::string document;
    if (client_->wire_codec() == codec::CodecKind::kBinary) {
      request.sequence = block_index;
      Result<std::string> encoded = kBinaryCodec.EncodeRequestBlock(request);
      if (!encoded.ok()) return encoded.status();
      document = std::move(encoded).value();
    } else {
      if (client_->SequencedRetriesSafe()) request.sequence = block_index;
      document = EncodeRequestBlock(request);
    }

    // t1 .. t2 around the call (Algorithm 1); the simulated clock makes
    // elapsed_ms exactly the charged time.
    const int64_t retries_before = outcome.retries;
    const int64_t t1 = clock->NowMicros();
    Result<CallResult> call =
        CallWithRetry(document, block_index, block_size, &outcome);
    if (!call.ok()) return call.status();

    double elapsed_ms = call.value().elapsed_ms;
    if (injector_ != nullptr) {
      // Success perturbations (latency spikes, server stalls) inflate
      // the completed exchange in place: their extra time is charged to
      // the clock and rides inside the block span, so the controller
      // observes the perturbed cost like any other measurement.
      const SuccessPerturbation perturbation = injector_->OnSuccess(
          block_index, static_cast<double>(clock->NowMicros()) / 1000.0);
      if (perturbation.active()) {
        const double extra_ms =
            perturbation.Apply(elapsed_ms) - elapsed_ms;
        if (extra_ms > 0.0) client_->AdvanceClockMs(extra_ms);
        elapsed_ms += extra_ms;
        if (observer_ != nullptr) {
          observer_->OnFaultInjected(
              clock->NowMicros(),
              perturbation.stall_ms > 0.0
                  ? FaultKindName(FaultKind::kServerStall)
                  : FaultKindName(FaultKind::kLatencySpike),
              block_index, 0.0);
        }
      }
    }
    const int64_t t2 = clock->NowMicros();
    const int64_t response_bytes =
        static_cast<int64_t>(call.value().response.size());
    // The payload buffer moves into the decoder: under binary the
    // decoded block's row views point straight into these bytes — the
    // received frame payload is the last copy that ever exists.
    Result<codec::DecodedBlock> decoded =
        DecodeBlockPayload(std::move(call.value().response));
    if (!decoded.ok()) return decoded.status();
    const codec::DecodedBlock& block = decoded.value();

    if (observer_ != nullptr) {
      // Decompose the successful exchange into wire and server residence
      // time. The legs of the exchange are folded into one wire span
      // preceding the service span; only the split, not the interleaving,
      // is known client-side.
      const int64_t service_us =
          static_cast<int64_t>(call.value().service_ms * 1000.0);
      const int64_t wire_us =
          static_cast<int64_t>(call.value().wire_ms * 1000.0);
      observer_->OnNetworkTransfer(t2 - service_us - wire_us, wire_us);
      observer_->OnServerResidence(t2 - service_us, service_us);
      observer_->OnParse(t2, response_bytes);
    }

    BlockTrace trace;
    trace.block_index = block_index;
    trace.requested_size = block_size;
    trace.received_tuples = block.num_tuples;
    trace.response_time_ms = elapsed_ms;
    trace.retries = outcome.retries - retries_before;

    outcome.total_tuples += block.num_tuples;
    outcome.total_blocks += 1;
    outcome.total_time_ms += elapsed_ms;

    // Keep-tuples: text-mode blocks (SOAP) still need the serializer;
    // binary blocks materialize straight from their column views.
    if (keep_tuples != nullptr && block.num_tuples > 0 &&
        (!block.rows.text_mode() || serializer != nullptr)) {
      Result<std::vector<Tuple>> tuples = block.rows.Materialize(serializer);
      if (!tuples.ok()) return tuples.status();
      for (Tuple& tuple : tuples.value()) {
        keep_tuples->push_back(std::move(tuple));
      }
    }

    // Controllers consume the per-tuple cost so measurements at
    // different block sizes are comparable (see Controller::NextBlockSize).
    const double tuples =
        static_cast<double>(std::max<int64_t>(block.num_tuples, 1));
    const double per_tuple_ms = elapsed_ms / tuples;
    block_size = controller_->NextBlockSize(per_tuple_ms);
    trace.adaptivity_steps = controller_->adaptivity_steps();
    outcome.trace.push_back(trace);
    // An open breaker overrides the controller with the conservative
    // fallback size until the cooldown admits a half-open probe.
    block_size = policy_->GovernNextSize(block_size);

    if (observer_ != nullptr) {
      const bool traced = client_->TracingNegotiated();
      observer_->OnBlock(t1, t2 - t1, trace.requested_size,
                         trace.received_tuples, per_tuple_ms, trace.retries,
                         traced ? trace_id_ : 0,
                         traced ? last_call_span_id_ : 0);
      observer_->OnControllerDecision(t2, controller_->name(),
                                      controller_->DebugState(),
                                      controller_->adaptivity_steps(),
                                      block_size);
      const std::vector<RemoteSpan> remote = client_->TakeRemoteSpans();
      if (!remote.empty()) observer_->OnRemoteSpans(remote, trace_id_);
    }

    if (block.end_of_results) break;
  }

  // Close the session.
  CloseSessionRequest close;
  close.session_id = session_id;
  const int64_t close_started = clock->NowMicros();
  Result<CallResult> close_call = CallWithRetry(
      EncodeCloseSession(close), FaultInjector::kSessionCall, 0, &outcome);
  if (!close_call.ok()) return close_call.status();
  if (observer_ != nullptr) {
    observer_->OnSessionClose(close_started,
                              clock->NowMicros() - close_started);
    const std::vector<RemoteSpan> remote = client_->TakeRemoteSpans();
    if (!remote.empty()) observer_->OnRemoteSpans(remote, trace_id_);
  }

  return outcome;
}

}  // namespace wsq
