#include "wsq/codec/soap_codec.h"

#include <utility>

#include "wsq/relation/tuple_serializer.h"
#include "wsq/soap/envelope.h"
#include "wsq/soap/message.h"

namespace wsq::codec {

Result<std::string> SoapCodec::EncodeRequestBlock(
    const RequestBlockRequest& request) const {
  return wsq::EncodeRequestBlock(request);
}

Result<RequestBlockRequest> SoapCodec::DecodeRequestBlock(
    const std::string& payload) const {
  Result<XmlNode> body = ParseEnvelope(payload);
  if (!body.ok()) return body.status();
  return wsq::DecodeRequestBlock(body.value());
}

Result<std::string> SoapCodec::EncodeBlockResponse(
    int64_t session_id, bool end_of_results, const Schema& schema,
    const RowBlock& rows) const {
  std::string document;
  AppendBlockResponseHead(session_id, end_of_results,
                          static_cast<int64_t>(rows.size()), document);
  WSQ_RETURN_IF_ERROR(
      TupleSerializer(schema).AppendBlockAsXmlText(rows, document));
  AppendBlockResponseTail(rows.empty(), document);
  return document;
}

Result<DecodedBlock> SoapCodec::DecodeBlockResponse(
    std::string payload) const {
  Result<XmlNode> body = ParseEnvelope(payload);
  if (!body.ok()) return body.status();
  Result<BlockResponse> response =
      wsq::DecodeBlockResponse(std::move(body).value());
  if (!response.ok()) return response.status();
  DecodedBlock block;
  block.session_id = response.value().session_id;
  block.end_of_results = response.value().end_of_results;
  block.num_tuples = response.value().num_tuples;
  block.rows = WireRows::FromText(
      std::move(response.value().payload),
      static_cast<size_t>(response.value().num_tuples < 0
                              ? 0
                              : response.value().num_tuples));
  return block;
}

}  // namespace wsq::codec
