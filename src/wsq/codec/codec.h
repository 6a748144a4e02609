#ifndef WSQ_CODEC_CODEC_H_
#define WSQ_CODEC_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "wsq/codec/wire_rows.h"
#include "wsq/common/status.h"
#include "wsq/relation/row_block.h"
#include "wsq/relation/schema.h"
#include "wsq/relation/tuple.h"
#include "wsq/soap/message.h"

namespace wsq::codec {

/// Which wire representation a result block travels in. kSoap is the
/// seed-era SOAP/XML envelope (and the compatibility default); kBinary
/// is the columnar format negotiated over the WSQ1 handshake.
enum class CodecKind : uint8_t {
  kSoap = 0,
  kBinary = 1,
};

std::string_view CodecKindName(CodecKind kind);

/// A concrete codec selection: the kind plus per-codec options. Parsed
/// from the user-facing --codec flag values "soap", "binary" and
/// "binary+lz" (binary with the compressed-body flag set on encode).
struct CodecChoice {
  CodecKind kind = CodecKind::kSoap;
  bool compress_blocks = false;

  static Result<CodecChoice> FromName(std::string_view name);
  std::string ToString() const;

  bool operator==(const CodecChoice& other) const {
    return kind == other.kind && compress_blocks == other.compress_blocks;
  }
};

/// A fully decoded block response, independent of wire form.
struct DecodedBlock {
  int64_t session_id = 0;
  bool end_of_results = false;
  int64_t num_tuples = 0;
  WireRows rows;
};

/// The block data path's pluggable wire format. Only the per-block
/// hot-path messages go through here (RequestBlock and its response);
/// session control, ProcessBlock push traffic and every fault reply
/// stay SOAP on all codecs.
class BlockCodec {
 public:
  virtual ~BlockCodec() = default;

  virtual CodecKind kind() const = 0;
  virtual std::string_view name() const = 0;

  virtual Result<std::string> EncodeRequestBlock(
      const RequestBlockRequest& request) const = 0;
  virtual Result<RequestBlockRequest> DecodeRequestBlock(
      const std::string& payload) const = 0;

  /// Encodes `rows` as read through their projection; `schema` is the
  /// projected schema. A row that does not conform to it fails the
  /// whole block.
  virtual Result<std::string> EncodeBlockResponse(
      int64_t session_id, bool end_of_results, const Schema& schema,
      const RowBlock& rows) const = 0;

  /// Takes the payload by value: binary decoding adopts the buffer so
  /// WireRows views point straight into the received bytes.
  virtual Result<DecodedBlock> DecodeBlockResponse(
      std::string payload) const = 0;
};

std::unique_ptr<BlockCodec> MakeBlockCodec(const CodecChoice& choice);

/// Distinguishes a binary block message from a SOAP envelope by its
/// leading bytes ('WSQB' magic vs. '<'). Lets the server dispatch and
/// fault-classify without knowing the connection's negotiated codec.
CodecKind SniffPayloadCodec(std::string_view payload);

/// --- Handshake negotiation -------------------------------------------
///
/// Every connection opens with a Hello: a comma-separated,
/// preference-ordered list of codec names. The server answers with the
/// single name it picked. Unknown names are ignored on both sides, and
/// anything that fails to parse picks SOAP. Optional features (CRC,
/// tracing) ride the Hello and HelloAck frames' flags, not this list.

/// The Hello payload advertising `preferred` (most preferred first,
/// always ending in "soap").
std::string AdvertisedCodecs(CodecKind preferred);

/// The server's pick: the client's most preferred codec that the server
/// is willing to speak (bounded by `server_max`). Falls back to kSoap.
CodecKind NegotiateCodec(std::string_view advertised, CodecKind server_max);

}  // namespace wsq::codec

#endif  // WSQ_CODEC_CODEC_H_
