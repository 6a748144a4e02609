#include "wsq/codec/codec.h"

#include "wsq/codec/binary_codec.h"
#include "wsq/codec/soap_codec.h"

namespace wsq::codec {

std::string_view CodecKindName(CodecKind kind) {
  switch (kind) {
    case CodecKind::kSoap:
      return "soap";
    case CodecKind::kBinary:
      return "binary";
  }
  return "soap";
}

Result<CodecChoice> CodecChoice::FromName(std::string_view name) {
  CodecChoice choice;
  if (name == "soap") return choice;
  if (name == "binary") {
    choice.kind = CodecKind::kBinary;
    return choice;
  }
  if (name == "binary+lz") {
    choice.kind = CodecKind::kBinary;
    choice.compress_blocks = true;
    return choice;
  }
  return Status::InvalidArgument("unknown codec: " + std::string(name) +
                                 " (expected soap, binary or binary+lz)");
}

std::string CodecChoice::ToString() const {
  if (kind == CodecKind::kBinary && compress_blocks) return "binary+lz";
  return std::string(CodecKindName(kind));
}

std::unique_ptr<BlockCodec> MakeBlockCodec(const CodecChoice& choice) {
  if (choice.kind == CodecKind::kBinary) {
    BinaryCodecOptions options;
    options.compress_blocks = choice.compress_blocks;
    return std::make_unique<BinaryCodec>(options);
  }
  return std::make_unique<SoapCodec>();
}

CodecKind SniffPayloadCodec(std::string_view payload) {
  return payload.size() >= kBinaryMagic.size() &&
                 payload.substr(0, kBinaryMagic.size()) == kBinaryMagic
             ? CodecKind::kBinary
             : CodecKind::kSoap;
}

std::string AdvertisedCodecs(CodecKind preferred) {
  if (preferred == CodecKind::kBinary) return "binary,soap";
  return "soap";
}

CodecKind NegotiateCodec(std::string_view advertised, CodecKind server_max) {
  size_t start = 0;
  while (start <= advertised.size()) {
    const size_t comma = advertised.find(',', start);
    const std::string_view name =
        advertised.substr(start, comma == std::string_view::npos
                                     ? std::string_view::npos
                                     : comma - start);
    if (name == "binary" && server_max == CodecKind::kBinary) {
      return CodecKind::kBinary;
    }
    if (name == "soap") return CodecKind::kSoap;
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return CodecKind::kSoap;
}

}  // namespace wsq::codec
