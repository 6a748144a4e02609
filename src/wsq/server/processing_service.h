#ifndef WSQ_SERVER_PROCESSING_SERVICE_H_
#define WSQ_SERVER_PROCESSING_SERVICE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "wsq/common/status.h"
#include "wsq/relation/tuple_serializer.h"
#include "wsq/server/service.h"
#include "wsq/soap/message.h"

namespace wsq {

/// Per-tuple transform applied by a processing function. Returning an
/// error makes the whole block request fault (remote functions are
/// all-or-nothing per call, like a WS operation).
using TupleTransform = std::function<Result<Tuple>(const Tuple&)>;

/// A registered server-side function: input/output schemas plus the
/// transform.
struct ProcessingFunction {
  Schema input_schema;
  Schema output_schema;
  TupleTransform transform;
};

/// The WS-management-system-style endpoint of the paper's setting:
/// "functions called from within database queries" exposed as a web
/// service, invoked with *blocks* of tuples whose size the client-side
/// controller tunes — the push-direction dual of DataService.
///
/// Typical uses: lookups, enrichment, scoring — anything mapping one
/// input tuple to one output tuple.
///
/// Functions are registered before the service is hosted. After that
/// Handle may run concurrently: the registry is only read, the tuple
/// counter is atomic, and each registered transform must itself be
/// safe to call from several threads.
class ProcessingService final : public Service {
 public:
  ProcessingService() = default;

  ProcessingService(const ProcessingService&) = delete;
  ProcessingService& operator=(const ProcessingService&) = delete;

  /// Registers `function` under `name`; kInvalidArgument when the name
  /// is taken or the transform is null. Not safe concurrently with
  /// Handle.
  Status RegisterFunction(const std::string& name,
                          ProcessingFunction function);

  ServiceResult Handle(const std::string& request_document) override;

  int64_t tuples_processed() const { return tuples_processed_.load(); }

 private:
  ServiceResult HandleProcessBlock(const XmlNode& payload);

  static ServiceResult Fault(std::string_view code,
                             std::string_view message);

  std::map<std::string, ProcessingFunction> functions_;
  std::atomic<int64_t> tuples_processed_{0};
};

}  // namespace wsq

#endif  // WSQ_SERVER_PROCESSING_SERVICE_H_
