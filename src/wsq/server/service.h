#ifndef WSQ_SERVER_SERVICE_H_
#define WSQ_SERVER_SERVICE_H_

#include <cstdint>
#include <string>

namespace wsq {

namespace codec {
class BlockCodec;
}  // namespace codec

/// Outcome of one service invocation: the response document plus
/// the work accounting the container converts into simulated time.
struct ServiceResult {
  std::string response;
  /// Tuples produced/processed by this invocation (0 for session
  /// management ops); drives the tuple-dependent part of the simulated
  /// service time.
  int64_t tuples_produced = 0;
  /// True when the response is a SOAP fault.
  bool is_fault = false;
  /// True when the response was served from the per-session replay cache
  /// (a retried sequence number) rather than produced fresh. Surfaced so
  /// the telemetry plane can count replay hits per session.
  bool replayed = false;
};

/// A web service endpoint hosted by a ServiceContainer. Implementations
/// parse the SOAP request, do the work, and answer with either a
/// response envelope or a fault — never a C++ error; remote callers can
/// only ever see documents.
///
/// Every method below may be called concurrently, from any thread: the
/// live server dispatches on a worker pool with no lock of its own
/// around the service, and polls ActiveSessions and EvictIdleSessions
/// from its event loop meanwhile. Implementations serialize whatever
/// state they share.
class Service {
 public:
  virtual ~Service() = default;

  /// Handles one raw SOAP request document.
  virtual ServiceResult Handle(const std::string& request_document) = 0;

  /// Codec-aware entry point: `response_codec` configures how block
  /// responses are encoded (e.g. the compression option of a negotiated
  /// binary connection). The request's own wire form is always sniffed
  /// from its leading bytes. Services that predate codecs simply fall
  /// through to the SOAP-only Handle above.
  virtual ServiceResult Handle(const std::string& request_document,
                               const codec::BlockCodec* response_codec) {
    (void)response_codec;
    return Handle(request_document);
  }

  /// Number of currently open sessions, for the live stats snapshot.
  /// -1 when the service has no session concept.
  virtual int64_t ActiveSessions() const { return -1; }

  /// Evicts every session idle (untouched by any Handle) for longer
  /// than `idle_micros` as of `now_micros`; returns the count evicted.
  /// Bounds the per-session state (cursors, replay caches) an abandoned
  /// client can strand forever. Default: no session concept, nothing to
  /// evict.
  virtual int64_t EvictIdleSessions(int64_t now_micros, int64_t idle_micros) {
    (void)now_micros;
    (void)idle_micros;
    return 0;
  }
};

}  // namespace wsq

#endif  // WSQ_SERVER_SERVICE_H_
