#include "wsq/server/processing_service.h"

#include "wsq/soap/envelope.h"

namespace wsq {

ServiceResult ProcessingService::Fault(std::string_view code,
                                       std::string_view message) {
  ServiceResult result;
  result.response =
      BuildFaultEnvelope(SoapFault{std::string(code), std::string(message)});
  result.is_fault = true;
  return result;
}

Status ProcessingService::RegisterFunction(const std::string& name,
                                           ProcessingFunction function) {
  if (function.transform == nullptr) {
    return Status::InvalidArgument("RegisterFunction: null transform");
  }
  auto [it, inserted] = functions_.emplace(name, std::move(function));
  if (!inserted) {
    return Status::InvalidArgument("function already registered: " + name);
  }
  return Status::Ok();
}

ServiceResult ProcessingService::Handle(const std::string& request_document) {
  Result<XmlNode> payload = ParseEnvelope(request_document);
  if (!payload.ok()) {
    return Fault("Client", payload.status().ToString());
  }
  Result<RequestKind> kind = ClassifyRequest(payload.value());
  if (!kind.ok() || kind.value() != RequestKind::kProcessBlock) {
    return Fault("Client",
                 "processing service only understands ProcessBlock");
  }
  return HandleProcessBlock(payload.value());
}

ServiceResult ProcessingService::HandleProcessBlock(const XmlNode& payload) {
  Result<ProcessBlockRequest> request = DecodeProcessBlock(payload);
  if (!request.ok()) {
    return Fault("Client", request.status().ToString());
  }
  auto it = functions_.find(request.value().function);
  if (it == functions_.end()) {
    return Fault("Client",
                 "no function named " + request.value().function);
  }
  const ProcessingFunction& function = it->second;

  TupleSerializer input_serializer(function.input_schema);
  Result<std::vector<Tuple>> inputs =
      input_serializer.DeserializeBlock(request.value().payload);
  if (!inputs.ok()) {
    return Fault("Client", inputs.status().ToString());
  }
  if (static_cast<int64_t>(inputs.value().size()) !=
      request.value().num_tuples) {
    return Fault("Client", "numTuples does not match the payload");
  }

  std::vector<Tuple> outputs;
  outputs.reserve(inputs.value().size());
  for (const Tuple& input : inputs.value()) {
    if (!input.ConformsTo(function.input_schema).ok()) {
      return Fault("Client", "input tuple does not match the schema");
    }
    Result<Tuple> output = function.transform(input);
    if (!output.ok()) {
      return Fault("Server", "function failed: " +
                                 output.status().ToString());
    }
    if (!output.value().ConformsTo(function.output_schema).ok()) {
      return Fault("Server", "function produced a nonconforming tuple");
    }
    outputs.push_back(std::move(output).value());
  }

  TupleSerializer output_serializer(function.output_schema);
  Result<std::string> serialized =
      output_serializer.SerializeBlock(outputs);
  if (!serialized.ok()) {
    return Fault("Server", serialized.status().ToString());
  }

  ProcessBlockResponse response;
  response.sequence = request.value().sequence;
  response.num_tuples = static_cast<int64_t>(outputs.size());
  response.payload = std::move(serialized).value();

  tuples_processed_ += response.num_tuples;

  ServiceResult result;
  result.tuples_produced = response.num_tuples;
  result.response = EncodeProcessBlockResponse(response);
  return result;
}

}  // namespace wsq
