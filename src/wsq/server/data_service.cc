#include "wsq/server/data_service.h"

#include "wsq/codec/binary_codec.h"
#include "wsq/codec/soap_codec.h"
#include "wsq/common/clock.h"
#include "wsq/soap/envelope.h"

namespace wsq {
namespace {

const codec::SoapCodec& DefaultSoapCodec() {
  static const codec::SoapCodec* soap = new codec::SoapCodec();
  return *soap;
}

const codec::BinaryCodec& DefaultBinaryCodec() {
  static const codec::BinaryCodec* binary = new codec::BinaryCodec();
  return *binary;
}

}  // namespace

ServiceResult DataService::Fault(std::string_view code,
                                 std::string_view message) {
  ServiceResult result;
  result.response = BuildFaultEnvelope(
      SoapFault{std::string(code), std::string(message)});
  result.is_fault = true;
  return result;
}

ServiceResult DataService::Handle(const std::string& request_document) {
  return Handle(request_document, nullptr);
}

ServiceResult DataService::Handle(const std::string& request_document,
                                  const codec::BlockCodec* response_codec) {
  if (codec::SniffPayloadCodec(request_document) ==
      codec::CodecKind::kBinary) {
    return HandleBinaryRequest(request_document, response_codec);
  }
  Result<XmlNode> payload = ParseEnvelope(request_document);
  if (!payload.ok()) {
    return Fault("Client", payload.status().ToString());
  }
  Result<RequestKind> kind = ClassifyRequest(payload.value());
  if (!kind.ok()) {
    return Fault("Client", kind.status().ToString());
  }
  switch (kind.value()) {
    case RequestKind::kOpenSession:
      return HandleOpenSession(payload.value());
    case RequestKind::kRequestBlock: {
      Result<RequestBlockRequest> request =
          DecodeRequestBlock(payload.value());
      if (!request.ok()) {
        return Fault("Client", request.status().ToString());
      }
      // A SOAP request gets a SOAP response no matter what the
      // connection negotiated — this is what keeps every simulation,
      // which has no connection, byte-identical.
      return HandleRequestBlock(request.value(), DefaultSoapCodec());
    }
    case RequestKind::kCloseSession:
      return HandleCloseSession(payload.value());
    case RequestKind::kProcessBlock:
      // Block processing is ProcessingService's operation; sending it
      // here is the caller's mistake, not a server failure.
      return Fault("Client", "unsupported operation ProcessBlock: this is a "
                             "data service");
  }
  return Fault("Server", "unreachable dispatch");
}

ServiceResult DataService::HandleBinaryRequest(
    const std::string& request_document,
    const codec::BlockCodec* response_codec) {
  Result<RequestBlockRequest> request =
      DefaultBinaryCodec().DecodeRequestBlock(request_document);
  if (!request.ok()) {
    return Fault("Client", request.status().ToString());
  }
  // Binary requests are answered in binary; the negotiated codec only
  // contributes its encoding options (e.g. compression).
  const codec::BlockCodec& codec =
      response_codec != nullptr &&
              response_codec->kind() == codec::CodecKind::kBinary
          ? *response_codec
          : DefaultBinaryCodec();
  return HandleRequestBlock(request.value(), codec);
}

ServiceResult DataService::HandleOpenSession(const XmlNode& payload) {
  Result<OpenSessionRequest> request = DecodeOpenSession(payload);
  if (!request.ok()) {
    return Fault("Client", request.status().ToString());
  }

  ScanProjectQuery query;
  query.table_name = request.value().table;
  query.projected_columns = request.value().columns;
  query.filter = request.value().filter;

  Result<std::unique_ptr<QueryCursor>> cursor = dbms_->OpenCursor(query);
  if (!cursor.ok()) {
    return Fault("Client", cursor.status().ToString());
  }

  Result<std::shared_ptr<Table>> table =
      dbms_->GetTable(request.value().table);
  if (!table.ok()) {
    return Fault("Client", table.status().ToString());
  }

  auto session = std::make_shared<Session>();
  session->cursor = std::move(cursor).value();
  session->last_touch_micros = WallClock().NowMicros();

  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_session_id_++;
    sessions_.emplace(id, std::move(session));
  }

  OpenSessionResponse response;
  response.session_id = id;
  response.total_rows = static_cast<int64_t>(table.value()->num_rows());

  ServiceResult result;
  result.response = EncodeOpenSessionResponse(response);
  return result;
}

ServiceResult DataService::HandleRequestBlock(
    const RequestBlockRequest& request,
    const codec::BlockCodec& response_codec) {
  const int64_t now_micros = WallClock().NowMicros();
  std::shared_ptr<Session> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(request.session_id);
    if (it != sessions_.end()) {
      found = it->second;
      found->last_touch_micros = now_micros;
    }
  }
  if (found == nullptr) {
    return Fault("Client",
                 "unknown session id " + std::to_string(request.session_id));
  }
  if (request.block_size < 1) {
    return Fault("Client", "block size must be >= 1");
  }

  Session& session = *found;
  std::lock_guard<std::mutex> session_lock(session.mu);
  const bool replay =
      request.sequence >= 0 && request.sequence == session.last_sequence;
  if (!replay) {
    Result<RowBlock> block = session.cursor->FetchBlock(request.block_size);
    if (!block.ok()) {
      return Fault("Server", block.status().ToString());
    }
    session.last_block = std::move(block).value();
    session.last_sequence = request.sequence;
  }

  // A replay does no tuple work (tuples_produced stays 0), so it is
  // charged as a session-management op.
  Result<std::string> encoded = response_codec.EncodeBlockResponse(
      request.session_id, session.cursor->exhausted(),
      session.cursor->output_schema(), session.last_block);
  if (!encoded.ok()) {
    ServiceResult fault = Fault("Server", encoded.status().ToString());
    fault.replayed = replay;
    return fault;
  }
  ServiceResult result;
  result.response = std::move(encoded).value();
  result.replayed = replay;
  if (!replay) {
    result.tuples_produced = static_cast<int64_t>(session.last_block.size());
  }
  return result;
}

ServiceResult DataService::HandleCloseSession(const XmlNode& payload) {
  Result<CloseSessionRequest> request = DecodeCloseSession(payload);
  if (!request.ok()) {
    return Fault("Client", request.status().ToString());
  }
  size_t erased = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    erased = sessions_.erase(request.value().session_id);
  }
  if (erased == 0) {
    return Fault("Client", "unknown session id " +
                               std::to_string(request.value().session_id));
  }

  CloseSessionResponse response;
  response.session_id = request.value().session_id;

  ServiceResult result;
  result.response = EncodeCloseSessionResponse(response);
  return result;
}

size_t DataService::open_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

int64_t DataService::EvictIdleSessions(int64_t now_micros,
                                       int64_t idle_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t evicted = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now_micros - it->second->last_touch_micros >= idle_micros) {
      it = sessions_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

}  // namespace wsq
