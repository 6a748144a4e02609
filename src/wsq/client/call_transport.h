#ifndef WSQ_CLIENT_CALL_TRANSPORT_H_
#define WSQ_CLIENT_CALL_TRANSPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "wsq/codec/codec.h"
#include "wsq/common/clock.h"
#include "wsq/common/status.h"
#include "wsq/obs/span_context.h"

namespace wsq {

/// One completed SOAP call as observed from the client side.
struct CallResult {
  std::string response;
  /// Time the call took as measured by the transport's clock: simulated
  /// wire + server time on the in-process transport, real wall time on a
  /// socket transport.
  double elapsed_ms = 0.0;
  /// Wire-time component of elapsed_ms (both legs); lets callers
  /// decompose a call span into network transfer vs server residence.
  double wire_ms = 0.0;
  /// Server residence (service) component of elapsed_ms. The live
  /// transport learns it from the response frame header; the simulated
  /// one from the container's dispatch accounting.
  double service_ms = 0.0;
};

/// The call shape of the paper's `WebService.requestNewBlock`: ship one
/// request document, get one response document, observe how long the
/// exchange took. Two transports implement it:
///
///  * `WsClient`    — the in-process simulated path (container +
///    LinkModel + SimClock);
///  * `TcpWsClient` — a real socket to a `wsqd` server, timed on the
///    wall clock.
///
/// `BlockFetcher` / `BlockShipper` drive either one through this
/// interface, so the pull loop, retry accounting, and observability are
/// byte-for-byte the same code on the simulated and the live path.
class WsCallTransport {
 public:
  virtual ~WsCallTransport() = default;

  /// Performs one request/response exchange. Returns kRemoteFault when
  /// the service answered with a SOAP fault, and kUnavailable when the
  /// exchange failed in transit (simulated drop, socket error, deadline
  /// expiry) — in both cases the elapsed time has already been charged
  /// to the transport's timeline; faults and timeouts cost real time
  /// too.
  virtual Result<CallResult> Call(const std::string& request_document) = 0;

  /// Charges dead time (injected fault costs, retry backoff) to the
  /// transport's timeline without performing an exchange. The simulated
  /// transport advances its SimClock; a wall-clock transport actually
  /// sleeps, so backoff behaves identically on both timelines.
  virtual void AdvanceClockMs(double ms) = 0;

  /// The clock Call charges; timestamps from it are what the pull loop
  /// stamps on trace events (simulated micros or real micros).
  virtual const Clock* clock() const = 0;

  /// Dead time (ms) the most recent failed Call charged to the timeline
  /// — the configured timeout on the simulated link, the measured
  /// elapsed time of the failed attempt on a socket. Only meaningful
  /// right after Call returned kUnavailable.
  virtual double LastFailureCostMs() const = 0;

  /// Hint from the resilience policy: the next Call should give up after
  /// `deadline_ms` (<= 0 restores the transport's default). Transports
  /// that can enforce it (socket poll timeouts) do; the simulated one
  /// ignores it — there the policy caps charged costs directly.
  virtual void SetCallDeadlineMs(double deadline_ms) { (void)deadline_ms; }

  /// The block codec negotiated with the peer — what the pull loop must
  /// encode RequestBlock messages in. SOAP until (unless) a handshake
  /// upgrades it; session-management messages are SOAP on every codec.
  virtual codec::CodecKind wire_codec() const {
    return codec::CodecKind::kSoap;
  }

  /// True when SOAP RequestBlock calls carry a sequence number, so a
  /// retry replays the server's cached block instead of skipping one.
  /// TcpWsClient always does (every wsqd connection is Hello'd and runs
  /// the replay cache). The default suits the simulated transport: its
  /// link model charges request bytes, so the blockSeq element would
  /// move every simulated figure, and it drops requests before dispatch,
  /// so it never needs a replay.
  virtual bool SequencedRetriesSafe() const { return false; }

  /// True when the connection negotiated trace-context propagation —
  /// requests carry a TraceContext extension and responses ship the
  /// server's spans back. Defaults model a transport without the
  /// feature: nothing is stamped, nothing comes back, and the pull
  /// loop's tracing calls are no-ops.
  virtual bool TracingNegotiated() const { return false; }

  /// Stamps the trace identity of the *next* Call's request frame. The
  /// pull loop calls this per attempt, so every retry is a distinct
  /// client span within the same trace.
  virtual void SetNextCallTrace(uint64_t trace_id, uint64_t span_id) {
    (void)trace_id;
    (void)span_id;
  }

  /// Drains the server-side spans accumulated by completed Calls since
  /// the last take, timestamps already mapped onto this transport's
  /// clock domain by the transport's clock-offset estimator.
  virtual std::vector<RemoteSpan> TakeRemoteSpans() { return {}; }
};

}  // namespace wsq

#endif  // WSQ_CLIENT_CALL_TRANSPORT_H_
