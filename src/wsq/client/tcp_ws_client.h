#ifndef WSQ_CLIENT_TCP_WS_CLIENT_H_
#define WSQ_CLIENT_TCP_WS_CLIENT_H_

#include <cstdint>
#include <string>

#include "wsq/client/call_transport.h"
#include "wsq/common/clock.h"
#include "wsq/common/status.h"
#include "wsq/net/socket.h"

namespace wsq {

struct TcpWsClientOptions {
  /// Deadline for establishing (or re-establishing) the TCP connection.
  double connect_timeout_ms = 5000.0;
  /// Default per-call deadline when no resilience policy installed a
  /// tighter one via SetCallDeadlineMs. Matches the simulated link's
  /// default timeout so the two transports agree on what "hung" means.
  double default_call_deadline_ms = 30000.0;
  /// The codec to advertise in the Hello every connection opens with.
  /// SOAP (the default) advertises only "soap"; binary advertises
  /// "binary,soap" and honors whatever the server picks.
  codec::CodecChoice codec;
  /// Ask for trace-context propagation in the Hello. Off (the default)
  /// keeps request frames free of the trace extension; on, the Hello
  /// carries kFrameFlagTraceContext and, if the HelloAck carries it
  /// back, every request frame carries a TraceContext and responses
  /// ship server spans back.
  bool enable_tracing = false;
  /// Ask for CRC-32C frame integrity in the Hello (kFrameFlagCrc). On,
  /// and if the HelloAck carries the flag back, every frame both ways
  /// carries a CRC-32C trailer and a corrupted frame surfaces as a
  /// retryable kUnavailable instead of parsed garbage. Off by default:
  /// checksumming costs a pass over every block on each side.
  bool enable_crc = false;
};

/// The live WsCallTransport: one framed SOAP exchange per Call over a
/// real TCP connection to a wsqd server, timed on the wall clock. Every
/// connection opens with a Hello/HelloAck exchange, and every block
/// request carries its sequence number, so a retried fetch replays
/// from the server's cache instead of skipping a block.
///
/// Failure semantics mirror the simulated transport exactly, which is
/// what lets BlockFetcher's retry loop run unchanged:
///
///  * connection refused / reset / closed / deadline expired ->
///    kUnavailable, the connection is dropped, and the next Call
///    transparently reconnects. The failed attempt's *measured* wall
///    time is what LastFailureCostMs reports (the sim charges the
///    configured link timeout instead — there no real time passes).
///  * a transient-fault-flagged response (server-side chaos) ->
///    kUnavailable without dropping the connection; the server's cursor
///    did not advance.
///  * a SOAP fault response -> kRemoteFault (terminal, never retried).
///
/// SetCallDeadlineMs is enforced for real: every socket read/write of
/// the exchange runs under a poll deadline of the remaining budget, so
/// a ResiliencePolicy deadline bounds the wall time a dead server can
/// cost — the exact behavior the paper's robustness argument needs.
///
/// Not thread-safe: one TcpWsClient per pull loop (clients wanting
/// parallel queries open one connection each, like the multi-client
/// benchmark does).
class TcpWsClient final : public WsCallTransport {
 public:
  TcpWsClient(std::string host, int port, TcpWsClientOptions options = {});

  /// Eagerly connects; optional (Call connects on demand). Surfaces
  /// kUnavailable when the server is not reachable.
  Status Connect();

  /// Drops the connection; the next Call reconnects.
  void Disconnect();

  bool connected() const { return socket_.valid(); }

  Result<CallResult> Call(const std::string& request_document) override;

  /// Real sleep: retry backoff costs genuine wall time on this transport.
  void AdvanceClockMs(double ms) override;

  const Clock* clock() const override { return &clock_; }

  double LastFailureCostMs() const override { return last_failure_cost_ms_; }

  void SetCallDeadlineMs(double deadline_ms) override {
    call_deadline_ms_ =
        deadline_ms > 0.0 ? deadline_ms : options_.default_call_deadline_ms;
  }

  int64_t calls_made() const { return calls_made_; }
  int64_t calls_failed() const { return calls_failed_; }
  /// Successful re-establishments after a dropped connection (the first
  /// connect does not count).
  int64_t reconnects() const { return reconnects_; }

  /// What the current connection's handshake negotiated (kSoap before
  /// the first connect).
  codec::CodecKind wire_codec() const override { return negotiated_codec_; }

  bool TracingNegotiated() const override { return trace_negotiated_; }

  /// Every wsqd runs the replay cache, and every connection is Hello'd
  /// before its first request, so block requests are always sequenced.
  bool SequencedRetriesSafe() const override { return true; }

  /// Whether the current connection's handshake negotiated CRC-32C
  /// frame integrity.
  bool CrcNegotiated() const { return crc_negotiated_; }

  void SetNextCallTrace(uint64_t trace_id, uint64_t span_id) override {
    next_trace_id_ = trace_id;
    next_span_id_ = span_id;
  }
  std::vector<RemoteSpan> TakeRemoteSpans() override {
    std::vector<RemoteSpan> out;
    out.swap(pending_remote_spans_);
    return out;
  }

  /// The clock-offset estimator tracking (server clock - client clock)
  /// for this connection's peer, fed by every traced exchange.
  const ClockOffsetEstimator& clock_offset() const { return clock_offset_; }

 private:
  Result<CallResult> CallOnce(const std::string& request_document);
  /// Runs the Hello/HelloAck exchange on a fresh connection. Any
  /// failure is an ordinary connect failure and closes the socket: a
  /// timeout or close is kUnavailable (the next reconnect sends the
  /// Hello again), framing garbage or a frame that is not a HelloAck is
  /// kInvalidArgument.
  Status Handshake();

  std::string host_;
  int port_;
  TcpWsClientOptions options_;
  WallClock clock_;
  net::Socket socket_;
  double call_deadline_ms_;
  double last_failure_cost_ms_ = 0.0;
  /// Set by CallOnce when a failure leaves the connection reusable (an
  /// injected transient-fault response — the exchange completed cleanly
  /// at the framing level).
  bool last_failure_keeps_connection_ = false;
  int64_t calls_made_ = 0;
  int64_t calls_failed_ = 0;
  int64_t reconnects_ = 0;
  bool ever_connected_ = false;
  codec::CodecKind negotiated_codec_ = codec::CodecKind::kSoap;
  /// Per-connection negotiated features, reset on every (re)connect.
  bool trace_negotiated_ = false;
  bool crc_negotiated_ = false;
  /// Trace identity stamped on the next Call's request frame.
  uint64_t next_trace_id_ = 0;
  uint64_t next_span_id_ = 0;
  /// Server spans decoded from responses, already clock-aligned onto
  /// this client's timeline; drained by TakeRemoteSpans.
  std::vector<RemoteSpan> pending_remote_spans_;
  ClockOffsetEstimator clock_offset_;
};

}  // namespace wsq

#endif  // WSQ_CLIENT_TCP_WS_CLIENT_H_
