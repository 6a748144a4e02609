#include "wsq/client/tcp_ws_client.h"

#include <chrono>
#include <thread>
#include <utility>

#include "wsq/net/frame.h"
#include "wsq/obs/metrics.h"
#include "wsq/soap/envelope.h"

namespace wsq {
namespace {

Counter& SpanDecodeFailuresCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("wsq.client.span_decode_failures");
  return *counter;
}

}  // namespace

TcpWsClient::TcpWsClient(std::string host, int port,
                         TcpWsClientOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      call_deadline_ms_(options.default_call_deadline_ms) {}

Status TcpWsClient::Connect() {
  if (socket_.valid()) return Status::Ok();
  Result<net::Socket> conn =
      net::TcpConnect(host_, port_, options_.connect_timeout_ms);
  if (!conn.ok()) return conn.status();
  socket_ = std::move(conn).value();
  if (ever_connected_) ++reconnects_;
  ever_connected_ = true;
  // Negotiation runs per connection, so a reconnect after a drop keeps
  // the upgraded codec and features.
  return Handshake();
}

Status TcpWsClient::Handshake() {
  negotiated_codec_ = codec::CodecKind::kSoap;
  trace_negotiated_ = false;
  crc_negotiated_ = false;
  // The resilience deadline bounds the handshake too: a black-holed
  // connect (SYN accepted, then silence) must cost at most the tighter
  // of the connect timeout and the installed call deadline — not hang.
  double handshake_deadline_ms = options_.connect_timeout_ms;
  if (call_deadline_ms_ > 0.0 && call_deadline_ms_ < handshake_deadline_ms) {
    handshake_deadline_ms = call_deadline_ms_;
  }
  socket_.set_io_timeout_ms(handshake_deadline_ms);

  net::Frame hello;
  hello.type = net::FrameType::kHello;
  hello.payload = codec::AdvertisedCodecs(options_.codec.kind);
  hello.has_trace = options_.enable_tracing;
  hello.has_crc = options_.enable_crc;
  const Status sent = WriteFrame(socket_, hello);
  Result<net::Frame> ack =
      sent.ok() ? net::ReadFrame(socket_) : Result<net::Frame>(sent);
  if (ack.ok() && ack.value().type != net::FrameType::kHelloAck) {
    ack = Status::InvalidArgument("peer answered the Hello with a non-ack");
  }
  if (!ack.ok()) {
    socket_.Close();
    return ack.status();
  }
  if (ack.value().payload == "binary") {
    negotiated_codec_ = codec::CodecKind::kBinary;
  }
  // A feature is on when both sides carried its flag: an ack flag the
  // client never asked for is ignored.
  trace_negotiated_ = ack.value().has_trace && options_.enable_tracing;
  crc_negotiated_ = ack.value().has_crc && options_.enable_crc;
  return Status::Ok();
}

void TcpWsClient::Disconnect() { socket_.Close(); }

void TcpWsClient::AdvanceClockMs(double ms) {
  if (ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

Result<CallResult> TcpWsClient::CallOnce(const std::string& request_document) {
  last_failure_keeps_connection_ = false;
  if (socket_.valid() && socket_.PeerClosed()) {
    // The server evicted or drained this connection between calls (idle
    // timeout, kGoaway we never read, restart). Reconnect up front
    // instead of burning an attempt writing into a dead socket.
    Disconnect();
  }
  WSQ_RETURN_IF_ERROR(Connect());

  const int64_t start_micros = clock_.NowMicros();
  // Deadline enforcement: every read/write of the exchange polls with
  // the *remaining* call budget, re-derived between the write and the
  // read. (A byte-trickling peer could stretch the total across several
  // partial reads; bounding each step bounds the practical cases — a
  // dead, stalled, or unreachable server.)
  socket_.set_io_timeout_ms(call_deadline_ms_);

  net::Frame request;
  request.type = net::FrameType::kRequest;
  request.payload = request_document;
  request.has_crc = crc_negotiated_;
  if (trace_negotiated_) {
    request.has_trace = true;
    request.trace.trace_id = next_trace_id_;
    request.trace.span_id = next_span_id_;
    request.trace.clock_micros = static_cast<uint64_t>(start_micros);
  }
  WSQ_RETURN_IF_ERROR(WriteFrame(socket_, request));

  // Control frames (server liveness probes, drain notices) may arrive
  // ahead of the response; answer/translate them and keep reading, each
  // time under the remaining budget.
  Result<net::Frame> response = net::Frame{};
  for (;;) {
    const double spent_ms =
        static_cast<double>(clock_.NowMicros() - start_micros) / 1000.0;
    const double remaining_ms = call_deadline_ms_ - spent_ms;
    if (remaining_ms <= 0.0) {
      return Status::Unavailable("call deadline expired before the response");
    }
    socket_.set_io_timeout_ms(remaining_ms);
    response = net::ReadFrame(socket_);
    if (!response.ok()) return response.status();
    if (response.value().type == net::FrameType::kPing) {
      net::Frame pong;
      pong.type = net::FrameType::kPong;
      pong.has_crc = crc_negotiated_;
      WSQ_RETURN_IF_ERROR(WriteFrame(socket_, pong));
      continue;
    }
    if (response.value().type == net::FrameType::kPong) {
      continue;  // answer to an earlier probe; not ours to wait on
    }
    if (response.value().type == net::FrameType::kGoaway) {
      // Graceful drain: retryable exactly like a clean close — the
      // caller drops the connection and the retry reconnects (to the
      // restarted server).
      return Status::Unavailable("server draining (goaway)");
    }
    break;
  }
  if (response.value().type != net::FrameType::kResponse) {
    return Status::InvalidArgument("peer sent a request frame in response");
  }

  const int64_t end_micros = clock_.NowMicros();
  if (response.value().has_trace) {
    // One clock-offset sample per traced exchange: client send/receive
    // times bracket the server's response-encode reading.
    clock_offset_.AddSample(
        start_micros, end_micros,
        static_cast<int64_t>(response.value().trace.clock_micros),
        static_cast<int64_t>(response.value().service_micros));
    if (!response.value().span_block.empty()) {
      Result<std::vector<RemoteSpan>> spans =
          DecodeRemoteSpans(response.value().span_block);
      if (spans.ok()) {
        for (RemoteSpan& span : spans.value()) {
          span.ts_micros = clock_offset_.ToClientMicros(span.ts_micros);
          pending_remote_spans_.push_back(std::move(span));
        }
      } else {
        // Telemetry is best-effort: a hostile or corrupt span block is
        // counted and dropped, never fatal to the data path.
        SpanDecodeFailuresCounter().Increment();
      }
    }
  }

  CallResult result;
  result.elapsed_ms = static_cast<double>(end_micros - start_micros) / 1000.0;
  result.service_ms =
      static_cast<double>(response.value().service_micros) / 1000.0;
  if (result.service_ms > result.elapsed_ms) {
    // Clock skew guard: the decomposition must never go negative.
    result.service_ms = result.elapsed_ms;
  }
  result.wire_ms = result.elapsed_ms - result.service_ms;

  const uint8_t flags = response.value().flags;
  if ((flags & net::kFrameFlagTransientFault) != 0) {
    // Server-side chaos failed this exchange without advancing its
    // cursor; retryable, and the connection itself is still good.
    last_failure_keeps_connection_ = true;
    return Status::Unavailable(
        "service answered with an injected transient fault");
  }
  if ((flags & net::kFrameFlagSoapFault) != 0) {
    // Organic SOAP fault: terminal, like the simulated path. ParseEnvelope
    // surfaces the fault text as a kRemoteFault status.
    Result<XmlNode> payload = ParseEnvelope(response.value().payload);
    return payload.ok()
               ? Status::RemoteFault("service returned an unparsed fault")
               : payload.status();
  }

  result.response = std::move(response.value().payload);
  return result;
}

Result<CallResult> TcpWsClient::Call(const std::string& request_document) {
  ++calls_made_;
  const int64_t start_micros = clock_.NowMicros();
  Result<CallResult> call = CallOnce(request_document);
  if (call.ok()) return call;

  ++calls_failed_;
  last_failure_cost_ms_ =
      static_cast<double>(clock_.NowMicros() - start_micros) / 1000.0;
  if (call.status().code() == StatusCode::kRemoteFault ||
      last_failure_keeps_connection_) {
    // The connection is fine — the *service* said no (terminal fault or
    // retryable injected one).
    return call.status();
  }
  // Anything else (reset, closed, deadline, refused connect, protocol
  // garbage after a partial exchange) leaves the connection in an
  // unusable state: a late response to this exchange could otherwise be
  // mistaken for the next one's. Drop it; the next Call reconnects.
  Disconnect();
  if (call.status().code() == StatusCode::kInvalidArgument &&
      !crc_negotiated_) {
    return call.status();  // not-our-protocol peer: don't mask as transient
  }
  // With crc negotiated the peer has proven it speaks this protocol, so
  // framing garbage (bad magic, nonsense lengths) can only be wire
  // corruption that happened to hit the header instead of the
  // checksummed body — transient, exactly like a CRC mismatch.
  return Status::Unavailable(call.status().message());
}

}  // namespace wsq
