#ifndef WSQ_CODEC_BINARY_CODEC_H_
#define WSQ_CODEC_BINARY_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "wsq/codec/codec.h"
#include "wsq/codec/varint.h"

namespace wsq::codec {

/// First bytes of every binary block message; what SniffPayloadCodec
/// keys on (a SOAP envelope starts with '<').
inline constexpr std::string_view kBinaryMagic = "WSQB";

inline constexpr uint8_t kBinaryVersion = 1;

/// Message kind byte, prelude offset 5.
inline constexpr uint8_t kBinaryMsgRequestBlock = 1;
inline constexpr uint8_t kBinaryMsgBlockResponse = 2;

/// Flags byte, prelude offset 6.
inline constexpr uint8_t kBinaryFlagCompressedBody = 0x01;

struct BinaryCodecOptions {
  /// Encode response bodies through the LZ block compressor (decoders
  /// always understand compressed bodies regardless of this setting).
  bool compress_blocks = false;
  /// Bodies smaller than this are never worth a compression attempt.
  size_t min_compress_bytes = 64;
};

/// The negotiated columnar wire format. Layout of every message:
///
///   prelude (8 bytes):
///     [0..3]  "WSQB"
///     [4]     version (1)
///     [5]     kind: 1 = RequestBlock, 2 = BlockResponse
///     [6]     flags: bit0 = body is LZ-compressed (responses only)
///     [7]     reserved, must be 0
///
///   RequestBlock:   varint sessionId, varint blockSize, varint sequence
///   BlockResponse:  varint sessionId, byte endOfResults, varint numRows,
///                   then the columnar body (when bit0 is set: varint
///                   rawBodySize followed by the LZ-compressed body).
///
///   body:  varint numCols, then per column:
///     byte columnType (0 = int64, 1 = double, 2 = string)
///     null bitmap, ceil(numRows/8) bytes LSB-first (all zero today —
///       the Value model has no null; decoders reject set bits)
///     data: int64  → numRows zigzag varints
///           double → numRows raw little-endian IEEE-754 8-byte values
///           string → numRows varint lengths, then the bytes, back to
///                    back (decoded as views, never copied)
///
/// Integers use zigzag LEB128 throughout. Doubles round-trip bit-exact
/// — this codec is what retires the 2-decimal text truncation.
class BinaryCodec : public BlockCodec {
 public:
  explicit BinaryCodec(BinaryCodecOptions options = {})
      : options_(options) {}

  CodecKind kind() const override { return CodecKind::kBinary; }
  std::string_view name() const override {
    return options_.compress_blocks ? "binary+lz" : "binary";
  }

  Result<std::string> EncodeRequestBlock(
      const RequestBlockRequest& request) const override;
  Result<RequestBlockRequest> DecodeRequestBlock(
      const std::string& payload) const override;

  Result<std::string> EncodeBlockResponse(
      int64_t session_id, bool end_of_results, const Schema& schema,
      const RowBlock& rows) const override;
  Result<DecodedBlock> DecodeBlockResponse(std::string payload) const override;

 private:
  /// Parses the columnar body out of `cursor` into `rows`. `buffer_base`
  /// is the start of the buffer the cursor walks, so view offsets can be
  /// recorded as indices into the string WireRows will adopt. Static
  /// member (not a free helper) because it builds WireRows internals.
  static Status DecodeBody(ByteCursor* cursor, const char* buffer_base,
                           size_t num_rows, WireRows* rows);

  BinaryCodecOptions options_;
};

}  // namespace wsq::codec

#endif  // WSQ_CODEC_BINARY_CODEC_H_
