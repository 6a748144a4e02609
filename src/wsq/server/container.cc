#include "wsq/server/container.h"

namespace wsq {

ServiceContainer::ServiceContainer(Service* service,
                                   const LoadModelConfig& load, uint64_t seed)
    : service_(service), load_model_(load), rng_(seed) {}

DispatchResult ServiceContainer::Dispatch(
    const std::string& request_document) {
  return Dispatch(request_document, nullptr);
}

DispatchResult ServiceContainer::Dispatch(
    const std::string& request_document,
    const codec::BlockCodec* response_codec) {
  ServiceResult handled = service_->Handle(request_document, response_codec);

  DispatchResult result;
  result.response = std::move(handled.response);
  result.is_fault = handled.is_fault;
  result.replayed = handled.replayed;
  // Block-producing requests pay the full tuple-dependent cost; session
  // management and faults pay only the envelope-handling cost.
  std::lock_guard<std::mutex> lock(mu_);
  result.service_time_ms =
      load_model_.ServiceTimeMs(handled.tuples_produced, rng_);
  return result;
}

}  // namespace wsq
