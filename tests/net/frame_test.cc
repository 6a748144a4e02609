#include "wsq/net/frame.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wsq/codec/binary_codec.h"
#include "wsq/relation/schema.h"
#include "wsq/relation/tuple.h"

namespace wsq::net {
namespace {

/// In-memory ByteStream with a configurable maximum transfer per call,
/// so tests exercise the partial-read / short-write loops the real
/// socket path depends on.
class MemoryStream : public ByteStream {
 public:
  explicit MemoryStream(size_t max_chunk = std::numeric_limits<size_t>::max())
      : max_chunk_(max_chunk) {}

  Result<size_t> ReadSome(void* buf, size_t len) override {
    if (read_pos_ >= data_.size()) return static_cast<size_t>(0);  // EOF
    const size_t n =
        std::min({len, max_chunk_, data_.size() - read_pos_});
    std::memcpy(buf, data_.data() + read_pos_, n);
    read_pos_ += n;
    return n;
  }

  Result<size_t> WriteSome(const void* buf, size_t len) override {
    const size_t n = std::min(len, max_chunk_);
    data_.append(static_cast<const char*>(buf), n);
    return n;
  }

  std::string& data() { return data_; }

 private:
  std::string data_;
  size_t read_pos_ = 0;
  size_t max_chunk_;
};

Frame SampleFrame() {
  Frame frame;
  frame.type = FrameType::kResponse;
  frame.flags = kFrameFlagSoapFault;
  frame.service_micros = 123456789ull;
  frame.payload = std::string("soap\0envelope\xffwith binary", 25);
  return frame;
}

TEST(FrameTest, RoundTripPreservesEveryField) {
  MemoryStream stream;
  const Frame sent = SampleFrame();
  ASSERT_TRUE(WriteFrame(stream, sent).ok());

  Result<Frame> got = ReadFrame(stream);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().type, sent.type);
  EXPECT_EQ(got.value().flags, sent.flags);
  EXPECT_EQ(got.value().service_micros, sent.service_micros);
  EXPECT_EQ(got.value().payload, sent.payload);
}

TEST(FrameTest, RoundTripSurvivesOneByteTransfers) {
  // Every ReadSome/WriteSome moves a single byte: the framing loops must
  // reassemble the exact same frame.
  MemoryStream stream(/*max_chunk=*/1);
  const Frame sent = SampleFrame();
  ASSERT_TRUE(WriteFrame(stream, sent).ok());
  ASSERT_EQ(stream.data().size(), kFrameHeaderBytes + sent.payload.size());

  Result<Frame> got = ReadFrame(stream);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().payload, sent.payload);
  EXPECT_EQ(got.value().service_micros, sent.service_micros);
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  MemoryStream stream;
  Frame frame;
  frame.type = FrameType::kRequest;
  ASSERT_TRUE(WriteFrame(stream, frame).ok());
  ASSERT_EQ(stream.data().size(), kFrameHeaderBytes);

  Result<Frame> got = ReadFrame(stream);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().payload.empty());
  EXPECT_EQ(got.value().type, FrameType::kRequest);
}

TEST(FrameTest, CleanEofBetweenFramesIsUnavailable) {
  MemoryStream stream;  // nothing to read
  Result<Frame> got = ReadFrame(stream);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(got.status().message().find("closed"), std::string::npos);
}

TEST(FrameTest, EofMidHeaderIsUnavailable) {
  MemoryStream stream;
  ASSERT_TRUE(WriteFrame(stream, SampleFrame()).ok());
  stream.data().resize(kFrameHeaderBytes / 2);  // cut inside the header

  Result<Frame> got = ReadFrame(stream);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(got.status().message().find("mid-message"), std::string::npos);
}

TEST(FrameTest, EofMidPayloadIsUnavailable) {
  MemoryStream stream;
  ASSERT_TRUE(WriteFrame(stream, SampleFrame()).ok());
  stream.data().resize(kFrameHeaderBytes + 3);  // cut inside the payload

  Result<Frame> got = ReadFrame(stream);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
}

TEST(FrameTest, GarbageHeaderIsInvalidArgument) {
  MemoryStream stream;
  stream.data().assign(kFrameHeaderBytes, 'x');
  Result<Frame> got = ReadFrame(stream);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("magic"), std::string::npos);
}

TEST(FrameTest, UnknownFrameTypeIsInvalidArgument) {
  MemoryStream stream;
  ASSERT_TRUE(WriteFrame(stream, SampleFrame()).ok());
  stream.data()[4] = 99;  // corrupt the type byte (9 is kGoaway now)

  Result<Frame> got = ReadFrame(stream);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, OversizedHeaderRejectedBeforeAllocation) {
  MemoryStream stream;
  ASSERT_TRUE(WriteFrame(stream, SampleFrame()).ok());
  // Patch payload_len (bytes 8..11, big-endian) to 64 MiB + 1.
  const uint32_t huge = kMaxFramePayloadBytes + 1;
  stream.data()[8] = static_cast<char>((huge >> 24) & 0xff);
  stream.data()[9] = static_cast<char>((huge >> 16) & 0xff);
  stream.data()[10] = static_cast<char>((huge >> 8) & 0xff);
  stream.data()[11] = static_cast<char>(huge & 0xff);

  Result<Frame> got = ReadFrame(stream);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("exceeds"), std::string::npos);
}

TEST(FrameTest, WriteRefusesOversizedPayloadSymmetrically) {
  MemoryStream stream;
  Frame frame;
  frame.payload.resize(kMaxFramePayloadBytes + 1);
  Status status = WriteFrame(stream, frame);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(stream.data().empty());  // nothing hit the wire
}

TEST(FrameTest, BackToBackFramesReadInOrder) {
  MemoryStream stream(/*max_chunk=*/3);
  Frame first = SampleFrame();
  Frame second;
  second.type = FrameType::kRequest;
  second.payload = "short";
  ASSERT_TRUE(WriteFrame(stream, first).ok());
  ASSERT_TRUE(WriteFrame(stream, second).ok());

  Result<Frame> got1 = ReadFrame(stream);
  Result<Frame> got2 = ReadFrame(stream);
  ASSERT_TRUE(got1.ok());
  ASSERT_TRUE(got2.ok());
  EXPECT_EQ(got1.value().payload, first.payload);
  EXPECT_EQ(got2.value().payload, "short");
  // And the stream is drained: a third read reports the clean EOF.
  EXPECT_EQ(ReadFrame(stream).status().code(), StatusCode::kUnavailable);
}

TEST(FrameTest, BinaryCodecPayloadSurvivesOneByteTransfers) {
  // A real binary block response — every byte value on the wire, no
  // text anywhere — through the same single-byte framing torture the
  // SOAP payloads get. The decoded block must be bit-exact.
  Schema schema({{"id", ColumnType::kInt64},
                 {"v", ColumnType::kDouble},
                 {"s", ColumnType::kString}});
  std::vector<Tuple> rows;
  std::string all_bytes;
  for (int i = 0; i < 256; ++i) {
    all_bytes.push_back(static_cast<char>(i));
  }
  for (int i = 0; i < 20; ++i) {
    rows.emplace_back(Tuple({Value(static_cast<int64_t>(i - 10) * 1000003),
                             Value(i * 0.0625 - 0.5), Value(all_bytes)}));
  }
  codec::BinaryCodec codec;
  Frame sent;
  sent.type = FrameType::kResponse;
  sent.payload =
      codec.EncodeBlockResponse(3, true, schema, rows).value();

  MemoryStream stream(/*max_chunk=*/1);
  ASSERT_TRUE(WriteFrame(stream, sent).ok());
  Result<Frame> got = ReadFrame(stream);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got.value().payload, sent.payload);

  Result<codec::DecodedBlock> block =
      codec.DecodeBlockResponse(got.value().payload);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  Result<std::vector<Tuple>> tuples = block.value().rows.Materialize(nullptr);
  ASSERT_TRUE(tuples.ok());
  EXPECT_EQ(tuples.value(), rows);
}

TEST(FrameTest, CompressedBinaryPayloadSurvivesOneByteTransfers) {
  Schema schema({{"s", ColumnType::kString}});
  std::vector<Tuple> rows;
  for (int i = 0; i < 100; ++i) {
    rows.emplace_back(Tuple({Value(std::string("block after block "))}));
  }
  codec::BinaryCodecOptions options;
  options.compress_blocks = true;
  codec::BinaryCodec codec(options);
  Frame sent;
  sent.type = FrameType::kResponse;
  sent.payload = codec.EncodeBlockResponse(1, false, schema, rows).value();
  ASSERT_EQ(static_cast<uint8_t>(sent.payload[6]),
            codec::kBinaryFlagCompressedBody);

  MemoryStream stream(/*max_chunk=*/1);
  ASSERT_TRUE(WriteFrame(stream, sent).ok());
  Result<Frame> got = ReadFrame(stream);
  ASSERT_TRUE(got.ok());
  Result<codec::DecodedBlock> block =
      codec.DecodeBlockResponse(got.value().payload);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  Result<std::vector<Tuple>> tuples = block.value().rows.Materialize(nullptr);
  ASSERT_TRUE(tuples.ok());
  EXPECT_EQ(tuples.value(), rows);
}

TEST(FrameTest, HelloFramesRoundTrip) {
  MemoryStream stream(/*max_chunk=*/1);
  Frame hello;
  hello.type = FrameType::kHello;
  hello.payload = "binary,soap";
  Frame ack;
  ack.type = FrameType::kHelloAck;
  ack.payload = "binary";
  ASSERT_TRUE(WriteFrame(stream, hello).ok());
  ASSERT_TRUE(WriteFrame(stream, ack).ok());

  Result<Frame> got_hello = ReadFrame(stream);
  Result<Frame> got_ack = ReadFrame(stream);
  ASSERT_TRUE(got_hello.ok());
  ASSERT_TRUE(got_ack.ok());
  EXPECT_EQ(got_hello.value().type, FrameType::kHello);
  EXPECT_EQ(got_hello.value().payload, "binary,soap");
  EXPECT_EQ(got_ack.value().type, FrameType::kHelloAck);
  EXPECT_EQ(got_ack.value().payload, "binary");
}

TEST(FrameTest, StatsFramesRoundTrip) {
  MemoryStream stream(/*max_chunk=*/1);
  Frame stats;
  stats.type = FrameType::kStats;
  Frame ack;
  ack.type = FrameType::kStatsAck;
  ack.payload = "{\"schema_version\":1}";
  ASSERT_TRUE(WriteFrame(stream, stats).ok());
  ASSERT_TRUE(WriteFrame(stream, ack).ok());

  Result<Frame> got_stats = ReadFrame(stream);
  Result<Frame> got_ack = ReadFrame(stream);
  ASSERT_TRUE(got_stats.ok());
  ASSERT_TRUE(got_ack.ok());
  EXPECT_EQ(got_stats.value().type, FrameType::kStats);
  EXPECT_TRUE(got_stats.value().payload.empty());
  EXPECT_EQ(got_ack.value().type, FrameType::kStatsAck);
  EXPECT_EQ(got_ack.value().payload, "{\"schema_version\":1}");
}

Frame TracedFrame() {
  Frame frame;
  frame.type = FrameType::kResponse;
  frame.service_micros = 777;
  frame.payload = "block bytes";
  frame.has_trace = true;
  frame.trace.trace_id = 0x0123456789abcdefull;
  frame.trace.span_id = 42;
  frame.trace.clock_micros = 1722500000000000ull;
  std::vector<RemoteSpan> spans;
  RemoteSpan root;
  root.span_id = 100;
  root.parent_span_id = 42;
  root.ts_micros = 1722500000000123;
  root.dur_micros = 900;
  root.name = "server.request";
  spans.push_back(root);
  RemoteSpan hit;
  hit.span_id = 101;
  hit.parent_span_id = 100;
  hit.ts_micros = 1722500000000200;
  hit.dur_micros = 0;
  hit.name = "server.replay_hit";
  spans.push_back(hit);
  frame.span_block = EncodeRemoteSpans(spans);
  return frame;
}

TEST(FrameTest, TracedFrameRoundTripsOverOneByteTransfers) {
  // The full extension chain — header | trace ctx | span block | payload
  // — reassembled from single-byte reads.
  MemoryStream stream(/*max_chunk=*/1);
  const Frame sent = TracedFrame();
  ASSERT_TRUE(WriteFrame(stream, sent).ok());

  Result<Frame> got = ReadFrame(stream);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got.value().has_trace);
  EXPECT_EQ(got.value().trace, sent.trace);
  EXPECT_EQ(got.value().span_block, sent.span_block);
  EXPECT_EQ(got.value().payload, sent.payload);

  Result<std::vector<RemoteSpan>> spans =
      DecodeRemoteSpans(got.value().span_block);
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  ASSERT_EQ(spans.value().size(), 2u);
  EXPECT_EQ(spans.value()[0].name, "server.request");
  EXPECT_EQ(spans.value()[1].dur_micros, 0);
}

TEST(FrameTest, TracedRequestWithoutSpansRoundTrips) {
  // The request direction: trace context only, no span block.
  MemoryStream stream;
  Frame sent;
  sent.type = FrameType::kRequest;
  sent.payload = "req";
  sent.has_trace = true;
  sent.trace = {7, 8, 9};
  ASSERT_TRUE(WriteFrame(stream, sent).ok());
  ASSERT_EQ(stream.data().size(),
            kFrameHeaderBytes + kTraceContextBytes + sent.payload.size());

  Result<Frame> got = ReadFrame(stream);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().has_trace);
  EXPECT_EQ(got.value().trace, sent.trace);
  EXPECT_TRUE(got.value().span_block.empty());
}

TEST(FrameTest, LegacyFrameBytesAreUntouchedByTheExtension) {
  // Byte-identity contract: a frame without tracing must serialize to
  // exactly the pre-extension wire image — header then payload, no
  // extension bytes, no flag bits. Golden-checked field by field.
  MemoryStream stream;
  Frame frame;
  frame.type = FrameType::kResponse;
  frame.service_micros = 0x0102030405060708ull;
  frame.payload = "legacy";
  ASSERT_TRUE(WriteFrame(stream, frame).ok());

  const std::string& wire = stream.data();
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 6);
  const unsigned char* raw =
      reinterpret_cast<const unsigned char*>(wire.data());
  EXPECT_EQ(raw[0], 0x57);  // 'W'
  EXPECT_EQ(raw[1], 0x53);  // 'S'
  EXPECT_EQ(raw[2], 0x51);  // 'Q'
  EXPECT_EQ(raw[3], 0x31);  // '1'
  EXPECT_EQ(raw[4], 2);     // kResponse
  EXPECT_EQ(raw[5], 0);     // flags: no extension bits
  EXPECT_EQ(raw[6], 0);     // reserved
  EXPECT_EQ(raw[7], 0);
  EXPECT_EQ(raw[8], 0);  // payload_len == 6, big-endian
  EXPECT_EQ(raw[9], 0);
  EXPECT_EQ(raw[10], 0);
  EXPECT_EQ(raw[11], 6);
  for (int i = 0; i < 8; ++i) {  // service_micros big-endian
    EXPECT_EQ(raw[12 + i], i + 1);
  }
  EXPECT_EQ(wire.substr(kFrameHeaderBytes), "legacy");
}

TEST(FrameTest, ExtensionFlagsDeriveFromDataNotCallerFlags) {
  // A frame whose `flags` claim an extension but whose fields carry none
  // must not announce it — EncodeFrameHeader masks the bits out.
  Frame frame;
  frame.type = FrameType::kResponse;
  frame.flags = kFrameFlagTraceContext | kFrameFlagServerSpans;
  char raw[kFrameHeaderBytes];
  EncodeFrameHeader(frame, raw);
  Result<FrameHeader> header = DecodeFrameHeader(raw);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().flags & kFrameFlagTraceContext, 0);
  EXPECT_EQ(header.value().flags & kFrameFlagServerSpans, 0);
}

TEST(FrameTest, SpanFlagWithoutTraceFlagIsInvalidArgument) {
  // Build a valid traced frame, then clear the trace bit on the wire so
  // only the span bit survives — structurally invalid.
  MemoryStream stream;
  ASSERT_TRUE(WriteFrame(stream, TracedFrame()).ok());
  stream.data()[5] = static_cast<char>(kFrameFlagServerSpans);

  Result<Frame> got = ReadFrame(stream);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, OversizedSpanBlockRejectedOnBothSides) {
  // Write side refuses to emit it...
  MemoryStream refuse;
  Frame big = TracedFrame();
  big.span_block.assign(kMaxRemoteSpanBytes + 1, 's');
  Status status = WriteFrame(refuse, big);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(refuse.data().empty());

  // ...and the read side rejects a hostile length before allocating.
  MemoryStream stream;
  ASSERT_TRUE(WriteFrame(stream, TracedFrame()).ok());
  const size_t len_at = kFrameHeaderBytes + kTraceContextBytes;
  const uint32_t huge = static_cast<uint32_t>(kMaxRemoteSpanBytes) + 1;
  stream.data()[len_at] = static_cast<char>((huge >> 24) & 0xff);
  stream.data()[len_at + 1] = static_cast<char>((huge >> 16) & 0xff);
  stream.data()[len_at + 2] = static_cast<char>((huge >> 8) & 0xff);
  stream.data()[len_at + 3] = static_cast<char>(huge & 0xff);
  Result<Frame> got = ReadFrame(stream);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, TracedFrameTruncatedAtEveryCutNeverSucceedsWrong) {
  // Cut the traced wire image after every prefix length. Each cut must
  // produce a clean failure (kUnavailable mid-message) — never a bogus
  // decoded frame, never a crash.
  MemoryStream full;
  const Frame sent = TracedFrame();
  ASSERT_TRUE(WriteFrame(full, sent).ok());
  const std::string wire = full.data();
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    MemoryStream stream;
    stream.data() = wire.substr(0, cut);
    Result<Frame> got = ReadFrame(stream);
    ASSERT_FALSE(got.ok()) << "cut at " << cut << " decoded a frame";
    EXPECT_EQ(got.status().code(), StatusCode::kUnavailable)
        << "cut at " << cut;
  }
}

TEST(FrameTest, TracedFrameSurvivesEverySingleBitFlip) {
  // Flip each bit of the traced wire image in turn. The reader may
  // reject the frame or may decode one with different field values —
  // but it must never crash, hang, or over-read.
  MemoryStream full;
  ASSERT_TRUE(WriteFrame(full, TracedFrame()).ok());
  const std::string wire = full.data();
  for (size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      MemoryStream stream;
      stream.data() = wire;
      stream.data()[byte] =
          static_cast<char>(stream.data()[byte] ^ (1 << bit));
      Result<Frame> got = ReadFrame(stream);
      if (got.ok() && !got.value().span_block.empty()) {
        // A span block that still parses is fine; one that does not must
        // fail cleanly too.
        DecodeRemoteSpans(got.value().span_block).status();
      }
    }
  }
  SUCCEED();
}

TEST(FrameTest, HeaderEncodeDecodeAgree) {
  Frame frame;
  frame.type = FrameType::kResponse;
  frame.flags = kFrameFlagTransientFault;
  frame.service_micros = 0xDEADBEEFCAFEull;
  frame.payload.assign(4096, 'p');

  char raw[kFrameHeaderBytes];
  EncodeFrameHeader(frame, raw);
  Result<FrameHeader> header = DecodeFrameHeader(raw);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().type, frame.type);
  EXPECT_EQ(header.value().flags, frame.flags);
  EXPECT_EQ(header.value().payload_len, frame.payload.size());
  EXPECT_EQ(header.value().service_micros, frame.service_micros);
}

// ---------------------------------------------------------------------------
// FrameParser: the incremental decoder under the event-loop server. Its
// contract is byte-for-byte agreement with ReadFrame regardless of how
// recv() slices the stream.
// ---------------------------------------------------------------------------

/// The wire image of `frame`, as WriteFrame would emit it.
std::string WireImage(const Frame& frame) {
  MemoryStream stream;
  EXPECT_TRUE(WriteFrame(stream, frame).ok());
  return stream.data();
}

void ExpectSameFrame(const Frame& got, const Frame& sent) {
  // The reference is what ReadFrame reports for the same wire image: it
  // surfaces the raw wire flags, extension bits included, and the parser
  // must agree with it bit for bit.
  MemoryStream stream;
  ASSERT_TRUE(WriteFrame(stream, sent).ok());
  Result<Frame> read = ReadFrame(stream);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const Frame& ref = read.value();
  EXPECT_EQ(got.type, ref.type);
  EXPECT_EQ(got.flags, ref.flags);
  EXPECT_EQ(got.service_micros, ref.service_micros);
  EXPECT_EQ(got.payload, ref.payload);
  EXPECT_EQ(got.has_trace, ref.has_trace);
  if (ref.has_trace) {
    EXPECT_EQ(got.trace.trace_id, ref.trace.trace_id);
    EXPECT_EQ(got.trace.span_id, ref.trace.span_id);
    EXPECT_EQ(got.trace.clock_micros, ref.trace.clock_micros);
  }
  EXPECT_EQ(got.span_block, ref.span_block);
}

TEST(FrameParserTest, AppendFrameBytesMatchesWriteFrame) {
  const Frame plain = SampleFrame();
  const Frame traced = TracedFrame();
  for (const Frame& frame : {plain, traced}) {
    std::string appended;
    ASSERT_TRUE(AppendFrameBytes(frame, &appended).ok());
    EXPECT_EQ(appended, WireImage(frame));
  }
}

TEST(FrameParserTest, AppendFrameBytesRefusesOversizeAndLeavesOutAlone) {
  Frame big;
  big.payload.assign(kMaxFramePayloadBytes + 1, 'x');
  std::string out = "prefix";
  Status status = AppendFrameBytes(big, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out, "prefix");
}

TEST(FrameParserTest, WholeBufferYieldsTheFrame) {
  const Frame sent = TracedFrame();
  const std::string wire = WireImage(sent);
  FrameParser parser;
  std::vector<Frame> frames;
  ASSERT_TRUE(parser.Consume(wire.data(), wire.size(), &frames).ok());
  ASSERT_EQ(frames.size(), 1u);
  ExpectSameFrame(frames[0], sent);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  EXPECT_FALSE(parser.failed());
}

TEST(FrameParserTest, ByteAtATimeYieldsIdenticalFrames) {
  // The cruellest recv schedule: one byte per call, across a plain
  // frame, a traced frame with spans, and an empty-payload frame
  // back-to-back on one stream.
  Frame empty;
  empty.type = FrameType::kStats;
  const std::vector<Frame> sent = {SampleFrame(), TracedFrame(), empty};
  std::string wire;
  for (const Frame& frame : sent) {
    ASSERT_TRUE(AppendFrameBytes(frame, &wire).ok());
  }
  FrameParser parser;
  std::vector<Frame> frames;
  for (char byte : wire) {
    ASSERT_TRUE(parser.Consume(&byte, 1, &frames).ok());
  }
  ASSERT_EQ(frames.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    ExpectSameFrame(frames[i], sent[i]);
  }
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(FrameParserTest, EveryChunkingOfAPipelinedStreamAgrees) {
  // Split a three-frame stream at a dense sampling of boundary pairs
  // (coprime strides cover every phase of every wire structure): the
  // parser must produce the same three frames no matter where the
  // kernel happened to cut the bytes.
  const std::vector<Frame> sent = {SampleFrame(), TracedFrame(),
                                   SampleFrame()};
  std::string wire;
  for (const Frame& frame : sent) {
    ASSERT_TRUE(AppendFrameBytes(frame, &wire).ok());
  }
  for (size_t a = 0; a <= wire.size(); a += 3) {
    for (size_t b = a; b <= wire.size(); b += 5) {
      FrameParser parser;
      std::vector<Frame> frames;
      ASSERT_TRUE(parser.Consume(wire.data(), a, &frames).ok());
      ASSERT_TRUE(parser.Consume(wire.data() + a, b - a, &frames).ok());
      ASSERT_TRUE(
          parser.Consume(wire.data() + b, wire.size() - b, &frames).ok());
      ASSERT_EQ(frames.size(), sent.size())
          << "cuts at " << a << "," << b;
      for (size_t i = 0; i < sent.size(); ++i) {
        ExpectSameFrame(frames[i], sent[i]);
      }
    }
  }
}

TEST(FrameParserTest, GarbagePoisonsTheParserPermanently) {
  FrameParser parser;
  std::vector<Frame> frames;
  const std::string junk(kFrameHeaderBytes, 'x');
  Status status = parser.Consume(junk.data(), junk.size(), &frames);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(parser.failed());
  EXPECT_TRUE(frames.empty());

  // Even a perfectly valid frame afterwards keeps failing with the same
  // error: framing is lost, the connection must drop.
  const std::string wire = WireImage(SampleFrame());
  Status again = parser.Consume(wire.data(), wire.size(), &frames);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(frames.empty());
}

TEST(FrameParserTest, FramesBeforeTheGarbageAreStillDelivered) {
  std::string wire = WireImage(SampleFrame());
  wire += std::string(kFrameHeaderBytes, 'x');
  FrameParser parser;
  std::vector<Frame> frames;
  Status status = parser.Consume(wire.data(), wire.size(), &frames);
  ASSERT_FALSE(status.ok());
  ASSERT_EQ(frames.size(), 1u);
  ExpectSameFrame(frames[0], SampleFrame());
}

TEST(FrameParserTest, OversizedSpanLengthIsRejectedBeforeAllocation) {
  std::string wire = WireImage(TracedFrame());
  const size_t len_at = kFrameHeaderBytes + kTraceContextBytes;
  const uint32_t huge = static_cast<uint32_t>(kMaxRemoteSpanBytes) + 1;
  wire[len_at] = static_cast<char>((huge >> 24) & 0xff);
  wire[len_at + 1] = static_cast<char>((huge >> 16) & 0xff);
  wire[len_at + 2] = static_cast<char>((huge >> 8) & 0xff);
  wire[len_at + 3] = static_cast<char>(huge & 0xff);
  FrameParser parser;
  std::vector<Frame> frames;
  Status status = parser.Consume(wire.data(), wire.size(), &frames);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(parser.failed());
}

TEST(FrameParserTest, BufferedBytesReportsMidFrameProgress) {
  const std::string wire = WireImage(SampleFrame());
  FrameParser parser;
  std::vector<Frame> frames;
  ASSERT_TRUE(parser.Consume(wire.data(), 5, &frames).ok());
  EXPECT_EQ(parser.buffered_bytes(), 5u);  // mid-header
  ASSERT_TRUE(
      parser.Consume(wire.data() + 5, wire.size() - 5, &frames).ok());
  EXPECT_EQ(parser.buffered_bytes(), 0u);  // between frames
  ASSERT_EQ(frames.size(), 1u);
}

}  // namespace
}  // namespace wsq::net
