#include "wsq/net/frame.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "wsq/net/crc32c.h"
#include "wsq/obs/metrics.h"

namespace wsq::net {

namespace {

/// Process-wide transport counters (the "frame plane" of the live stats
/// surface). Cached handles into the global registry: the framing layer
/// has no context object to hang a private registry on, and in the wsqd
/// process the global registry *is* the server's registry.
Counter& FramesReadCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("wsq.net.frames_read");
  return *counter;
}

Counter& FramesWrittenCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("wsq.net.frames_written");
  return *counter;
}

Counter& PartialReadsCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("wsq.net.partial_reads");
  return *counter;
}

Counter& ShortWritesCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("wsq.net.short_writes");
  return *counter;
}

Counter& CrcFailuresCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("wsq.net.crc_failures");
  return *counter;
}

void PutU32(char* out, uint32_t v) {
  out[0] = static_cast<char>((v >> 24) & 0xff);
  out[1] = static_cast<char>((v >> 16) & 0xff);
  out[2] = static_cast<char>((v >> 8) & 0xff);
  out[3] = static_cast<char>(v & 0xff);
}

void PutU64(char* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v >> 32));
  PutU32(out + 4, static_cast<uint32_t>(v & 0xffffffffull));
}

uint32_t GetU32(const char* in) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(in);
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

uint64_t GetU64(const char* in) {
  return (static_cast<uint64_t>(GetU32(in)) << 32) |
         static_cast<uint64_t>(GetU32(in + 4));
}

/// Loops gather writes until every byte of the `count` pieces is out,
/// trimming what went out from the front of `pieces` in place.
Status WriteAllPieces(ByteStream& stream, struct iovec* pieces, int count) {
  size_t left = 0;
  for (int i = 0; i < count; ++i) left += pieces[i].iov_len;
  while (left > 0) {
    Result<size_t> n = stream.WriteSomeV(pieces, count);
    if (!n.ok()) return n.status();
    if (n.value() == 0) {
      return Status::Unavailable("connection refused further writes");
    }
    if (n.value() < left) ShortWritesCounter().Increment();
    left -= n.value();
    size_t done = n.value();
    while (count > 0 && done >= pieces->iov_len) {
      done -= pieces->iov_len;
      ++pieces;
      --count;
    }
    if (count > 0) {
      pieces->iov_base = static_cast<char*>(pieces->iov_base) + done;
      pieces->iov_len -= done;
    }
  }
  return Status::Ok();
}

constexpr std::string_view kChecksumMismatchMessage =
    "frame checksum mismatch (corrupted on the wire)";

}  // namespace

Status ReadExact(ByteStream& stream, void* buf, size_t len) {
  char* out = static_cast<char*>(buf);
  size_t got = 0;
  while (got < len) {
    Result<size_t> n = stream.ReadSome(out + got, len - got);
    if (!n.ok()) return n.status();
    if (n.value() == 0) {
      return Status::Unavailable(got == 0 ? "connection closed by peer"
                                          : "connection closed mid-message");
    }
    if (n.value() < len - got) PartialReadsCounter().Increment();
    got += n.value();
  }
  return Status::Ok();
}

bool IsChecksumMismatch(const Status& status) {
  return status.code() == StatusCode::kUnavailable &&
         status.message() == kChecksumMismatchMessage;
}

Result<size_t> ByteStream::WriteSomeV(const struct iovec* pieces,
                                      int count) {
  for (int i = 0; i < count; ++i) {
    if (pieces[i].iov_len > 0) {
      return WriteSome(pieces[i].iov_base, pieces[i].iov_len);
    }
  }
  return Status::InvalidArgument("gather write of zero bytes");
}

Status WriteAll(ByteStream& stream, const void* buf, size_t len) {
  struct iovec piece;
  piece.iov_base = const_cast<void*>(buf);
  piece.iov_len = len;
  return WriteAllPieces(stream, &piece, 1);
}

void EncodeFrameHeader(const Frame& frame, char out[kFrameHeaderBytes]) {
  uint8_t flags =
      frame.flags &
      static_cast<uint8_t>(~(kFrameFlagTraceContext | kFrameFlagServerSpans |
                             kFrameFlagCrc));
  if (frame.has_trace) {
    flags |= kFrameFlagTraceContext;
    // Spans never travel without the context that parents them.
    if (!frame.span_block.empty()) flags |= kFrameFlagServerSpans;
  }
  if (frame.has_crc) flags |= kFrameFlagCrc;
  PutU32(out, kFrameMagic);
  out[4] = static_cast<char>(frame.type);
  out[5] = static_cast<char>(flags);
  out[6] = 0;  // reserved
  out[7] = 0;  // reserved
  PutU32(out + 8, static_cast<uint32_t>(frame.payload.size()));
  PutU64(out + 12, frame.service_micros);
}

Result<FrameHeader> DecodeFrameHeader(const char in[kFrameHeaderBytes]) {
  if (GetU32(in) != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic (not a wsq peer?)");
  }
  const uint8_t type = static_cast<uint8_t>(in[4]);
  if (type != static_cast<uint8_t>(FrameType::kRequest) &&
      type != static_cast<uint8_t>(FrameType::kResponse) &&
      type != static_cast<uint8_t>(FrameType::kHello) &&
      type != static_cast<uint8_t>(FrameType::kHelloAck) &&
      type != static_cast<uint8_t>(FrameType::kStats) &&
      type != static_cast<uint8_t>(FrameType::kStatsAck) &&
      type != static_cast<uint8_t>(FrameType::kPing) &&
      type != static_cast<uint8_t>(FrameType::kPong) &&
      type != static_cast<uint8_t>(FrameType::kGoaway)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  FrameHeader header;
  header.type = static_cast<FrameType>(type);
  header.flags = static_cast<uint8_t>(in[5]);
  header.payload_len = GetU32(in + 8);
  header.service_micros = GetU64(in + 12);
  if ((header.flags & kFrameFlagServerSpans) != 0 &&
      (header.flags & kFrameFlagTraceContext) == 0) {
    return Status::InvalidArgument(
        "span extension announced without a trace context");
  }
  if (header.payload_len > kMaxFramePayloadBytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(header.payload_len) +
        " bytes exceeds the " + std::to_string(kMaxFramePayloadBytes) +
        "-byte limit");
  }
  return header;
}

Result<Frame> ReadFrame(ByteStream& stream) {
  FrameParser parser;
  Frame frame;
  for (;;) {
    const size_t len = parser.pull_len();
    WSQ_RETURN_IF_ERROR(ReadExact(stream, parser.pull_buffer(len), len));
    Result<bool> done = parser.Pulled(len, &frame);
    if (!done.ok()) return done.status();
    if (done.value()) return frame;
  }
}

void FrameParser::BeginFrame() {
  phase_ = Phase::kHeader;
  need_ = kFrameHeaderBytes;
  filled_ = 0;
  frame_ = Frame();
  payload_len_ = 0;
  crc_ = 0;
}

std::string* FrameParser::VariableField() {
  if (phase_ == Phase::kSpanBlock) return &frame_.span_block;
  if (phase_ == Phase::kPayload) return &frame_.payload;
  return nullptr;
}

char* FrameParser::pull_buffer(size_t len) {
  std::string* field = VariableField();
  if (field == nullptr) return fixed_ + filled_;
  // Grown only by the bytes about to arrive: a header announcing a huge
  // payload commits no memory the peer has not sent.
  field->resize(filled_ + len);
  return field->data() + filled_;
}

Result<bool> FrameParser::Pulled(size_t len, Frame* out) {
  if (!error_.ok()) return error_;
  filled_ += len;
  if (filled_ < need_) return false;
  filled_ = 0;
  bool complete = false;
  Status status = Step(&complete);
  if (!status.ok()) {
    error_ = status;
    return error_;
  }
  if (!complete) return false;
  FramesReadCounter().Increment();
  *out = std::move(frame_);
  BeginFrame();
  return true;
}

Status FrameParser::Step(bool* complete) {
  // The current phase's need_ bytes are in place. Transitions follow
  // the wire order: header, trace context, span length, span block,
  // payload, crc trailer — skipping the extensions the flags do not
  // announce.
  const std::string* field = VariableField();
  const char* bytes = field == nullptr ? fixed_ : field->data();
  const auto finish_body = [this, complete] {
    if ((frame_.flags & kFrameFlagCrc) != 0) {
      phase_ = Phase::kCrcTrailer;
      need_ = kFrameCrcBytes;
      return;
    }
    *complete = true;
  };
  const auto enter_payload = [this, &finish_body] {
    if (payload_len_ > 0) {
      phase_ = Phase::kPayload;
      need_ = payload_len_;
      frame_.payload.reserve(payload_len_);
      return;
    }
    finish_body();
  };
  // CRC accumulates over the raw bytes exactly as transmitted, so the
  // trailer is comparable whichever extensions travelled. Every body
  // phase of a checksummed frame feeds it before being interpreted (the
  // header feeds it below, once the flag is known; the trailer itself
  // is never part of the sum). Unflagged frames skip the accumulation
  // entirely — the crc-off hot path does no extra work.
  if ((frame_.flags & kFrameFlagCrc) != 0 && phase_ != Phase::kHeader &&
      phase_ != Phase::kCrcTrailer) {
    crc_ = Crc32cExtend(crc_, bytes, need_);
  }
  switch (phase_) {
    case Phase::kHeader: {
      Result<FrameHeader> header = DecodeFrameHeader(bytes);
      if (!header.ok()) return header.status();
      frame_.type = header.value().type;
      frame_.flags = header.value().flags;
      frame_.service_micros = header.value().service_micros;
      payload_len_ = header.value().payload_len;
      if ((frame_.flags & kFrameFlagCrc) != 0) {
        crc_ = Crc32cExtend(0, bytes, kFrameHeaderBytes);
      }
      if ((frame_.flags & kFrameFlagTraceContext) != 0) {
        phase_ = Phase::kTraceContext;
        need_ = kTraceContextBytes;
      } else {
        enter_payload();
      }
      return Status::Ok();
    }
    case Phase::kTraceContext: {
      frame_.has_trace = true;
      frame_.trace = DecodeTraceContext(bytes);
      if ((frame_.flags & kFrameFlagServerSpans) != 0) {
        phase_ = Phase::kSpanLength;
        need_ = 4;
      } else {
        enter_payload();
      }
      return Status::Ok();
    }
    case Phase::kSpanLength: {
      const uint32_t span_len = GetU32(bytes);
      if (span_len > kMaxRemoteSpanBytes) {
        return Status::InvalidArgument(
            "span block of " + std::to_string(span_len) +
            " bytes exceeds the " + std::to_string(kMaxRemoteSpanBytes) +
            "-byte limit");
      }
      if (span_len > 0) {
        phase_ = Phase::kSpanBlock;
        need_ = span_len;
        frame_.span_block.reserve(span_len);
      } else {
        enter_payload();
      }
      return Status::Ok();
    }
    case Phase::kSpanBlock:
      enter_payload();
      return Status::Ok();
    case Phase::kPayload:
      finish_body();
      return Status::Ok();
    case Phase::kCrcTrailer: {
      if (GetU32(bytes) != crc_) {
        CrcFailuresCounter().Increment();
        return Status::Unavailable(std::string(kChecksumMismatchMessage));
      }
      frame_.has_crc = true;
      *complete = true;
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable frame parser phase");
}

Status FrameParser::Consume(const char* data, size_t len,
                            std::vector<Frame>* out) {
  if (!error_.ok()) return error_;
  Frame frame;
  while (len > 0) {
    // Each phase's bytes are copied once, straight to where the pull
    // interface would have read them: a payload split across recv()
    // batches is assembled in place, never staged.
    const size_t take = std::min(pull_len(), len);
    std::memcpy(pull_buffer(take), data, take);
    data += take;
    len -= take;
    Result<bool> done = Pulled(take, &frame);
    if (!done.ok()) return done.status();
    if (done.value()) out->push_back(std::move(frame));
  }
  return Status::Ok();
}

Status EncodeFramePieces(const Frame& frame, FramePieces* out) {
  if (frame.payload.size() > kMaxFramePayloadBytes) {
    return Status::InvalidArgument(
        "refusing to send a " + std::to_string(frame.payload.size()) +
        "-byte frame payload (limit " +
        std::to_string(kMaxFramePayloadBytes) + ")");
  }
  if (frame.span_block.size() > kMaxRemoteSpanBytes) {
    return Status::InvalidArgument(
        "refusing to send a " + std::to_string(frame.span_block.size()) +
        "-byte span block (limit " + std::to_string(kMaxRemoteSpanBytes) +
        ")");
  }
  size_t head_len = kFrameHeaderBytes;
  EncodeFrameHeader(frame, out->head);
  const bool spans = frame.has_trace && !frame.span_block.empty();
  if (frame.has_trace) {
    EncodeTraceContext(frame.trace, out->head + head_len);
    head_len += kTraceContextBytes;
    if (spans) {
      PutU32(out->head + head_len,
             static_cast<uint32_t>(frame.span_block.size()));
      head_len += 4;
    }
  }
  out->count = 0;
  out->total_bytes = 0;
  const auto add = [out](const char* data, size_t len) {
    if (len == 0) return;
    out->pieces[out->count].iov_base = const_cast<char*>(data);
    out->pieces[out->count].iov_len = len;
    ++out->count;
    out->total_bytes += len;
  };
  add(out->head, head_len);
  if (spans) add(frame.span_block.data(), frame.span_block.size());
  add(frame.payload.data(), frame.payload.size());
  if (frame.has_crc) {
    // The trailer covers every byte before it, piece by piece — no
    // staging copy of the payload just to checksum it.
    uint32_t crc = 0;
    for (int i = 0; i < out->count; ++i) {
      crc = Crc32cExtend(crc, out->pieces[i].iov_base, out->pieces[i].iov_len);
    }
    PutU32(out->trailer, crc);
    add(out->trailer, kFrameCrcBytes);
  }
  FramesWrittenCounter().Increment();
  return Status::Ok();
}

void AppendUnsentBytes(const FramePieces& frame, size_t skip,
                       std::string* out) {
  if (skip < frame.total_bytes) {
    out->reserve(out->size() + frame.total_bytes - skip);
  }
  for (int i = 0; i < frame.count; ++i) {
    const size_t len = frame.pieces[i].iov_len;
    if (skip >= len) {
      skip -= len;
      continue;
    }
    out->append(static_cast<const char*>(frame.pieces[i].iov_base) + skip,
                len - skip);
    skip = 0;
  }
}

Status AppendFrameBytes(const Frame& frame, std::string* out) {
  FramePieces pieces;
  WSQ_RETURN_IF_ERROR(EncodeFramePieces(frame, &pieces));
  AppendUnsentBytes(pieces, 0, out);
  return Status::Ok();
}

Status WriteFrame(ByteStream& stream, const Frame& frame) {
  FramePieces encoded;
  WSQ_RETURN_IF_ERROR(EncodeFramePieces(frame, &encoded));
  return WriteAllPieces(stream, encoded.pieces, encoded.count);
}

}  // namespace wsq::net
