#include "wsq/soap/message.h"

#include <charconv>

namespace wsq {
namespace {

constexpr std::string_view kServiceNamespace = "urn:wsq:data-service";

XmlNode MakeOperation(std::string_view name) {
  XmlNode node{std::string(name)};
  node.AddAttribute("xmlns", std::string(kServiceNamespace));
  return node;
}

void AddTextChild(XmlNode& parent, std::string_view name, std::string text) {
  XmlNode child{std::string(name)};
  child.set_text(std::move(text));
  parent.AddChild(std::move(child));
}

void AddIntChild(XmlNode& parent, std::string_view name, int64_t value) {
  AddTextChild(parent, name, std::to_string(value));
}

Status ExpectName(const XmlNode& payload, std::string_view name) {
  if (LocalName(payload.name()) != name) {
    return Status::InvalidArgument("expected element " + std::string(name) +
                                   ", got " + payload.name());
  }
  return Status::Ok();
}

Result<int64_t> IntChild(const XmlNode& payload, std::string_view name) {
  Result<std::string> text = payload.ChildText(name);
  if (!text.ok()) return text.status();
  int64_t value = 0;
  const std::string& s = text.value();
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("element " + std::string(name) +
                                   " is not an integer: " + s);
  }
  return value;
}

/// Moves the text of the first child named `name` out of `payload`;
/// kNotFound when absent.
Result<std::string> TakeChildText(XmlNode& payload, std::string_view name) {
  for (XmlNode& child : payload.mutable_children()) {
    if (child.name() == name) return std::move(child.mutable_text());
  }
  return Status::NotFound("no child element named " + std::string(name));
}

Result<bool> BoolChild(const XmlNode& payload, std::string_view name) {
  Result<std::string> text = payload.ChildText(name);
  if (!text.ok()) return text.status();
  if (text.value() == "true") return true;
  if (text.value() == "false") return false;
  return Status::InvalidArgument("element " + std::string(name) +
                                 " is not a boolean: " + text.value());
}

}  // namespace

std::string EncodeOpenSession(const OpenSessionRequest& request) {
  XmlNode op = MakeOperation("OpenSession");
  AddTextChild(op, "table", request.table);
  XmlNode columns("columns");
  for (const std::string& column : request.columns) {
    AddTextChild(columns, "column", column);
  }
  op.AddChild(std::move(columns));
  if (!request.filter.empty()) {
    AddTextChild(op, "filter", request.filter);
  }
  return BuildEnvelope(std::move(op));
}

std::string EncodeOpenSessionResponse(const OpenSessionResponse& response) {
  XmlNode op = MakeOperation("OpenSessionResponse");
  AddIntChild(op, "sessionId", response.session_id);
  AddIntChild(op, "totalRows", response.total_rows);
  return BuildEnvelope(std::move(op));
}

std::string EncodeRequestBlock(const RequestBlockRequest& request) {
  XmlNode op = MakeOperation("RequestBlock");
  AddIntChild(op, "sessionId", request.session_id);
  AddIntChild(op, "blockSize", request.block_size);
  // Unsequenced requests (-1) omit the element so pre-replay-cache
  // request documents keep their exact historical byte size.
  if (request.sequence >= 0) {
    AddIntChild(op, "blockSeq", request.sequence);
  }
  return BuildEnvelope(std::move(op));
}

void AppendBlockResponseHead(int64_t session_id, bool end_of_results,
                             int64_t num_tuples, std::string& out) {
  AppendEnvelopeHead(out);
  out.append("<BlockResponse xmlns=\"");
  out.append(kServiceNamespace);
  out.append("\"><sessionId>");
  out.append(std::to_string(session_id));
  out.append("</sessionId><endOfResults>");
  out.append(end_of_results ? "true" : "false");
  out.append("</endOfResults><numTuples>");
  out.append(std::to_string(num_tuples));
  out.append("</numTuples><payload>");
}

void AppendBlockResponseTail(bool empty_payload, std::string& out) {
  if (empty_payload) {
    out.pop_back();
    out.append("/>");
  } else {
    out.append("</payload>");
  }
  out.append("</BlockResponse>");
  AppendEnvelopeTail(out);
}

std::string EncodeCloseSession(const CloseSessionRequest& request) {
  XmlNode op = MakeOperation("CloseSession");
  AddIntChild(op, "sessionId", request.session_id);
  return BuildEnvelope(std::move(op));
}

std::string EncodeCloseSessionResponse(const CloseSessionResponse& response) {
  XmlNode op = MakeOperation("CloseSessionResponse");
  AddIntChild(op, "sessionId", response.session_id);
  return BuildEnvelope(std::move(op));
}

std::string EncodeProcessBlock(const ProcessBlockRequest& request) {
  XmlNode op = MakeOperation("ProcessBlock");
  AddTextChild(op, "function", request.function);
  AddIntChild(op, "sequence", request.sequence);
  AddIntChild(op, "numTuples", request.num_tuples);
  AddTextChild(op, "payload", request.payload);
  return BuildEnvelope(std::move(op));
}

std::string EncodeProcessBlockResponse(const ProcessBlockResponse& response) {
  XmlNode op = MakeOperation("ProcessBlockResponse");
  AddIntChild(op, "sequence", response.sequence);
  AddIntChild(op, "numTuples", response.num_tuples);
  AddTextChild(op, "payload", response.payload);
  return BuildEnvelope(std::move(op));
}

Result<RequestKind> ClassifyRequest(const XmlNode& payload) {
  const std::string_view local = LocalName(payload.name());
  if (local == "OpenSession") return RequestKind::kOpenSession;
  if (local == "RequestBlock") return RequestKind::kRequestBlock;
  if (local == "CloseSession") return RequestKind::kCloseSession;
  if (local == "ProcessBlock") return RequestKind::kProcessBlock;
  return Status::InvalidArgument("unknown operation: " + std::string(local));
}

Result<OpenSessionRequest> DecodeOpenSession(const XmlNode& payload) {
  WSQ_RETURN_IF_ERROR(ExpectName(payload, "OpenSession"));
  OpenSessionRequest request;
  Result<std::string> table = payload.ChildText("table");
  if (!table.ok()) return table.status();
  request.table = table.value();
  Result<const XmlNode*> columns = payload.Child("columns");
  if (columns.ok()) {
    for (const XmlNode& column : columns.value()->children()) {
      if (LocalName(column.name()) == "column") {
        request.columns.push_back(column.text());
      }
    }
  }
  Result<std::string> filter = payload.ChildText("filter");
  if (filter.ok()) request.filter = filter.value();
  return request;
}

Result<OpenSessionResponse> DecodeOpenSessionResponse(const XmlNode& payload) {
  WSQ_RETURN_IF_ERROR(ExpectName(payload, "OpenSessionResponse"));
  OpenSessionResponse response;
  Result<int64_t> id = IntChild(payload, "sessionId");
  if (!id.ok()) return id.status();
  response.session_id = id.value();
  Result<int64_t> rows = IntChild(payload, "totalRows");
  if (!rows.ok()) return rows.status();
  response.total_rows = rows.value();
  return response;
}

Result<RequestBlockRequest> DecodeRequestBlock(const XmlNode& payload) {
  WSQ_RETURN_IF_ERROR(ExpectName(payload, "RequestBlock"));
  RequestBlockRequest request;
  Result<int64_t> id = IntChild(payload, "sessionId");
  if (!id.ok()) return id.status();
  request.session_id = id.value();
  Result<int64_t> size = IntChild(payload, "blockSize");
  if (!size.ok()) return size.status();
  request.block_size = size.value();
  Result<int64_t> sequence = IntChild(payload, "blockSeq");
  if (sequence.ok()) request.sequence = sequence.value();
  return request;
}

Result<BlockResponse> DecodeBlockResponse(XmlNode payload) {
  WSQ_RETURN_IF_ERROR(ExpectName(payload, "BlockResponse"));
  BlockResponse response;
  Result<int64_t> id = IntChild(payload, "sessionId");
  if (!id.ok()) return id.status();
  response.session_id = id.value();
  Result<bool> eof = BoolChild(payload, "endOfResults");
  if (!eof.ok()) return eof.status();
  response.end_of_results = eof.value();
  Result<int64_t> count = IntChild(payload, "numTuples");
  if (!count.ok()) return count.status();
  response.num_tuples = count.value();
  Result<std::string> data = TakeChildText(payload, "payload");
  if (!data.ok()) return data.status();
  response.payload = std::move(data).value();
  return response;
}

Result<CloseSessionRequest> DecodeCloseSession(const XmlNode& payload) {
  WSQ_RETURN_IF_ERROR(ExpectName(payload, "CloseSession"));
  CloseSessionRequest request;
  Result<int64_t> id = IntChild(payload, "sessionId");
  if (!id.ok()) return id.status();
  request.session_id = id.value();
  return request;
}

Result<CloseSessionResponse> DecodeCloseSessionResponse(
    const XmlNode& payload) {
  WSQ_RETURN_IF_ERROR(ExpectName(payload, "CloseSessionResponse"));
  CloseSessionResponse response;
  Result<int64_t> id = IntChild(payload, "sessionId");
  if (!id.ok()) return id.status();
  response.session_id = id.value();
  return response;
}

Result<ProcessBlockRequest> DecodeProcessBlock(const XmlNode& payload) {
  WSQ_RETURN_IF_ERROR(ExpectName(payload, "ProcessBlock"));
  ProcessBlockRequest request;
  Result<std::string> function = payload.ChildText("function");
  if (!function.ok()) return function.status();
  request.function = function.value();
  Result<int64_t> sequence = IntChild(payload, "sequence");
  if (!sequence.ok()) return sequence.status();
  request.sequence = sequence.value();
  Result<int64_t> count = IntChild(payload, "numTuples");
  if (!count.ok()) return count.status();
  request.num_tuples = count.value();
  Result<std::string> data = payload.ChildText("payload");
  if (!data.ok()) return data.status();
  request.payload = data.value();
  return request;
}

Result<ProcessBlockResponse> DecodeProcessBlockResponse(
    const XmlNode& payload) {
  WSQ_RETURN_IF_ERROR(ExpectName(payload, "ProcessBlockResponse"));
  ProcessBlockResponse response;
  Result<int64_t> sequence = IntChild(payload, "sequence");
  if (!sequence.ok()) return sequence.status();
  response.sequence = sequence.value();
  Result<int64_t> count = IntChild(payload, "numTuples");
  if (!count.ok()) return count.status();
  response.num_tuples = count.value();
  Result<std::string> data = payload.ChildText("payload");
  if (!data.ok()) return data.status();
  response.payload = data.value();
  return response;
}

}  // namespace wsq
