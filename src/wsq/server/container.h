#ifndef WSQ_SERVER_CONTAINER_H_
#define WSQ_SERVER_CONTAINER_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "wsq/common/random.h"
#include "wsq/server/load_model.h"
#include "wsq/server/service.h"

namespace wsq {

/// One dispatched request: the response document plus the simulated
/// server residence time the network layer should charge.
struct DispatchResult {
  std::string response;
  double service_time_ms = 0.0;
  bool is_fault = false;
  /// Mirrors ServiceResult::replayed — the response came from the
  /// per-session replay cache.
  bool replayed = false;
};

/// The Tomcat stand-in: hosts a Service (data retrieval, processing,
/// ...) and converts its work accounting into simulated processing time
/// via the LoadModel. Block production/processing pays per-request +
/// per-tuple CPU plus the paging penalty when the block exceeds the
/// effective buffer; session management ops pay the per-request cost
/// only.
///
/// Dispatch may run concurrently: the service's Handle is thread-safe,
/// and the LoadModel draw sits under the container's own small mutex.
class ServiceContainer {
 public:
  /// `service` must outlive the container. The load model is owned and
  /// reconfigurable mid-run (experiments add/remove load).
  ServiceContainer(Service* service, const LoadModelConfig& load,
                   uint64_t seed);

  /// Dispatches one raw SOAP document.
  DispatchResult Dispatch(const std::string& request_document);

  /// Codec-aware dispatch: forwards `response_codec` to the service so
  /// a negotiated connection's block responses come back in its wire
  /// form. Null behaves exactly like the overload above.
  DispatchResult Dispatch(const std::string& request_document,
                          const codec::BlockCodec* response_codec);

  /// The mutable accessor is for single-threaded experiments that add
  /// or remove load between requests: mutating the model must never
  /// run concurrently with Dispatch.
  LoadModel& load_model() { return load_model_; }
  const LoadModel& load_model() const { return load_model_; }

  /// Forwards the hosted service's open-session count (-1 when the
  /// service is sessionless).
  int64_t active_sessions() const { return service_->ActiveSessions(); }

  /// Forwards idle-session eviction to the hosted service (see
  /// Service::EvictIdleSessions); safe concurrently with Dispatch.
  int64_t EvictIdleSessions(int64_t now_micros, int64_t idle_micros) {
    return service_->EvictIdleSessions(now_micros, idle_micros);
  }

 private:
  Service* service_;
  LoadModel load_model_;
  /// Guards rng_.
  std::mutex mu_;
  Random rng_;
};

}  // namespace wsq

#endif  // WSQ_SERVER_CONTAINER_H_
