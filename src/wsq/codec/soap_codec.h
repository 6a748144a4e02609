#ifndef WSQ_CODEC_SOAP_CODEC_H_
#define WSQ_CODEC_SOAP_CODEC_H_

#include <string>
#include <vector>

#include "wsq/codec/codec.h"

namespace wsq::codec {

/// The seed-era wire form behind the BlockCodec interface: rows go
/// through TupleSerializer's delimited text and ride inside a SOAP/XML
/// BlockResponse envelope. Its EncodeBlockResponse() is the one
/// block-response encoder: it streams the envelope head, every row
/// (field- and XML-escaped in one pass) and the tail into one buffer.
/// The documents are byte-for-byte what rendering the same response as
/// an XmlNode tree through BuildEnvelope gives, so every size-sensitive
/// simulation result is unchanged.
class SoapCodec : public BlockCodec {
 public:
  CodecKind kind() const override { return CodecKind::kSoap; }
  std::string_view name() const override { return "soap"; }

  Result<std::string> EncodeRequestBlock(
      const RequestBlockRequest& request) const override;
  Result<RequestBlockRequest> DecodeRequestBlock(
      const std::string& payload) const override;

  Result<std::string> EncodeBlockResponse(
      int64_t session_id, bool end_of_results, const Schema& schema,
      const RowBlock& rows) const override;
  Result<DecodedBlock> DecodeBlockResponse(std::string payload) const override;
};

}  // namespace wsq::codec

#endif  // WSQ_CODEC_SOAP_CODEC_H_
