#ifndef WSQ_NET_FRAME_H_
#define WSQ_NET_FRAME_H_

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/obs/span_context.h"

namespace wsq::net {

/// Abstract byte stream the framing layer reads/writes — a connected TCP
/// socket in production, an in-memory buffer (possibly throttled to
/// 1-byte reads/writes) in tests. Implementations may transfer fewer
/// bytes than asked; the framing layer loops.
class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Reads up to `len` bytes into `buf`. Returns the count actually read
  /// (>= 1), or 0 on clean end-of-stream (peer closed). Errors (socket
  /// failure, deadline expiry) come back as non-ok.
  virtual Result<size_t> ReadSome(void* buf, size_t len) = 0;

  /// Writes up to `len` bytes from `buf`; returns the count actually
  /// written (>= 1). Short writes are normal (full socket buffers).
  virtual Result<size_t> WriteSome(const void* buf, size_t len) = 0;

  /// Gather form of WriteSome: writes up to the sum of the `count`
  /// pieces, in order, and returns the count actually written (>= 1).
  /// The default writes from the first non-empty piece only; a socket
  /// overrides it with one sendmsg over all of them.
  virtual Result<size_t> WriteSomeV(const struct iovec* pieces, int count);
};

/// Loops ReadSome until exactly `len` bytes have arrived. A clean EOF
/// after 0 bytes — or mid-message — is kUnavailable ("connection
/// closed"): on the live path a torn-down connection is a transient,
/// retryable condition.
Status ReadExact(ByteStream& stream, void* buf, size_t len);

/// Loops writes until all `len` bytes are out.
Status WriteAll(ByteStream& stream, const void* buf, size_t len);

/// Frame type tag. Every exchange on a wsq connection is one request
/// frame answered by one response frame, strictly in order. A client
/// opens every connection with a Hello/HelloAck exchange that picks the
/// block codec and optional features; the server refuses a kRequest
/// that arrives before it. kStats and the heartbeat frames need no
/// Hello.
///
/// Features are negotiated by frame flags, not by payload text: the
/// Hello carries kFrameFlagCrc / kFrameFlagTraceContext for each
/// feature the client wants, and the HelloAck carries the flag of each
/// feature the server grants.
enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
  /// Codec negotiation: payload is a comma-separated, preference-ordered
  /// list of codec names the client can speak (e.g. "binary,soap").
  kHello = 3,
  /// Server's answer: payload is the single codec name it picked.
  kHelloAck = 4,
  /// Telemetry-plane control frame: asks the server for its live stats
  /// snapshot. Empty payload; answered with one kStatsAck whose payload
  /// is the stats JSON document.
  kStats = 5,
  kStatsAck = 6,
  /// Liveness probe (empty payload): either side may send one; the peer
  /// answers with kPong.
  kPing = 7,
  kPong = 8,
  /// Graceful-shutdown notice (empty payload): a draining server tells
  /// an idle client the connection is going away; the client treats it
  /// as a retryable close and reconnects elsewhere/later.
  kGoaway = 9,
};

/// Response flag: the payload is a SOAP fault envelope (the service
/// answered, but with an error — maps to kRemoteFault client-side, never
/// retried).
inline constexpr uint8_t kFrameFlagSoapFault = 0x01;
/// Response flag: the exchange was failed by server-side fault injection
/// (wsqd --fault-plan). Maps to kUnavailable client-side — retryable,
/// exactly like a connection that dropped. The server's cursor did NOT
/// advance.
inline constexpr uint8_t kFrameFlagTransientFault = 0x02;
/// The frame carries a 24-byte trace-context extension (obs/span_context
/// TraceContext) between the fixed header and the payload. On a Hello
/// it asks for tracing, on the HelloAck it grants it; after that only
/// a traced connection's frames carry it.
inline constexpr uint8_t kFrameFlagTraceContext = 0x04;
/// The frame additionally carries a span-block extension (u32 length +
/// EncodeRemoteSpans bytes) after the trace context: the server-side
/// spans of this exchange, piggybacked on the response. Requires
/// kFrameFlagTraceContext; a frame with spans but no context is
/// structurally invalid.
inline constexpr uint8_t kFrameFlagServerSpans = 0x08;
/// The frame is followed by a 4-byte CRC-32C trailer covering every
/// preceding byte of the frame as transmitted (header, extensions,
/// payload). A Hello that carries it (verified) asks for CRC on the
/// connection and a HelloAck that carries it grants it; from then on
/// every frame of the connection carries it. The flag is
/// self-describing: a receiver verifies any frame that carries it,
/// negotiated or not.
inline constexpr uint8_t kFrameFlagCrc = 0x10;

/// "WSQ1" — the protocol magic leading every frame. A peer that opens
/// with anything else is not speaking this protocol; reject, don't
/// guess.
inline constexpr uint32_t kFrameMagic = 0x57535131;

/// Fixed header size: magic(4) type(1) flags(2:1 reserved) payload
/// length(4) service time(8).
inline constexpr size_t kFrameHeaderBytes = 20;

/// Size of the CRC-32C trailer announced by kFrameFlagCrc.
inline constexpr size_t kFrameCrcBytes = 4;

/// Oversized-frame guard: a header announcing a payload beyond this is
/// rejected before any allocation — one malformed (or hostile) length
/// field must not make the peer try to buffer gigabytes.
inline constexpr uint32_t kMaxFramePayloadBytes = 64u * 1024u * 1024u;

/// One framed message: a SOAP envelope plus transport metadata. The
/// server stamps `service_micros` on responses (wall time from request
/// fully read to response write), so the client can decompose its
/// measured call time into wire vs server residence — the live analogue
/// of the simulated CallResult.wire_ms/service_ms split.
struct Frame {
  FrameType type = FrameType::kRequest;
  uint8_t flags = 0;
  uint64_t service_micros = 0;
  std::string payload;
  /// Trace-context extension (kFrameFlagTraceContext). WriteFrame sets
  /// the flag from `has_trace`; ReadFrame sets `has_trace` from the
  /// received flags.
  bool has_trace = false;
  TraceContext trace;
  /// Span-block extension (kFrameFlagServerSpans): raw EncodeRemoteSpans
  /// bytes, empty = no extension. Responses only by convention.
  std::string span_block;
  /// CRC trailer (kFrameFlagCrc). EncodeFramePieces emits the trailer
  /// when `has_crc` is set; readers set `has_crc` from the
  /// received flags after verifying the checksum.
  bool has_crc = false;
};

/// True when `status` is the checksum-mismatch signal the framing layer
/// emits for a frame whose CRC trailer did not match its bytes. Carried
/// as kUnavailable: corruption on the wire is an ambient transient —
/// the retry path treats it exactly like a dropped connection, never
/// like a protocol bug. Centralized next to the producer so callers and
/// tests never string-match.
bool IsChecksumMismatch(const Status& status);

/// Serializes the fixed header for `frame` into `out` (network byte
/// order throughout). Flags for the trace/span extensions are derived
/// from the frame's `has_trace` / `span_block` fields, never taken from
/// `flags` — a frame without the data cannot announce the extension.
void EncodeFrameHeader(const Frame& frame, char out[kFrameHeaderBytes]);

/// Parsed header fields, pre-payload.
struct FrameHeader {
  FrameType type = FrameType::kRequest;
  uint8_t flags = 0;
  uint32_t payload_len = 0;
  uint64_t service_micros = 0;
};

/// Validates and decodes a fixed header: wrong magic, unknown type, or a
/// payload length beyond kMaxFramePayloadBytes are kInvalidArgument —
/// the connection is unsalvageable after any of them (framing is lost).
Result<FrameHeader> DecodeFrameHeader(const char in[kFrameHeaderBytes]);

/// Reads one complete frame by pulling each phase of a FrameParser
/// through ReadExact: the header, any extensions the flags announce,
/// then the payload and CRC trailer, each read in place (the payload
/// lands straight in the returned Frame). kUnavailable when the peer
/// closed the connection (cleanly between frames or mid-frame) or the
/// checksum failed; kInvalidArgument on the parser's protocol errors.
Result<Frame> ReadFrame(ByteStream& stream);

/// One frame's wire image as a gather list, in wire order: the fixed
/// header together with any trace context and span-length prefix (one
/// contiguous run), the span block, the payload, and the CRC trailer.
/// The span-block and payload pieces point into the Frame, so encoding
/// copies no payload byte; the Frame must outlive the pieces. Not
/// copyable: `pieces` points into the struct's own storage.
struct FramePieces {
  static constexpr int kMaxPieces = 4;

  FramePieces() = default;
  FramePieces(const FramePieces&) = delete;
  FramePieces& operator=(const FramePieces&) = delete;

  struct iovec pieces[kMaxPieces];
  /// Pieces in use; empty ones are left out.
  int count = 0;
  /// Sum of the pieces' lengths: the frame's size on the wire.
  size_t total_bytes = 0;
  /// Header, trace context, u32 span-block length.
  char head[kFrameHeaderBytes + kTraceContextBytes + 4];
  char trailer[kFrameCrcBytes];
};

/// Builds `frame`'s pieces, computing the CRC trailer when `has_crc` is
/// set. The one frame encoder: WriteFrame, AppendFrameBytes and the
/// server's own sends all go through it. Refuses payloads beyond
/// kMaxFramePayloadBytes and span blocks beyond kMaxRemoteSpanBytes
/// (kInvalidArgument) — the guards are enforced symmetrically so a
/// well-behaved peer can never emit a frame the other side must reject.
/// Each encoded frame counts once in wsq.net.frames_written.
Status EncodeFramePieces(const Frame& frame, FramePieces* out);

/// Appends the bytes of the frame past the first `skip` to `out`.
void AppendUnsentBytes(const FramePieces& frame, size_t skip,
                       std::string* out);

/// Writes one complete frame, handling short writes: one gather write
/// per attempt, never a staging copy of the payload. Same guards as
/// EncodeFramePieces.
Status WriteFrame(ByteStream& stream, const Frame& frame);

/// Serializes one complete frame (header, negotiated extensions,
/// payload) and appends the bytes to `out` — the buffered-write half of
/// the readiness-based path, where frames are queued into a
/// per-connection write buffer instead of written to a blocking stream.
/// Same guards as EncodeFramePieces; on error `out` is untouched.
Status AppendFrameBytes(const Frame& frame, std::string* out);

/// The one frame decoder: a header → trace-context → span-length →
/// span-block → payload → crc-trailer state machine, skipping the
/// extensions the header's flags do not announce. It has two front ends:
///
///  - push (Consume), for readiness-based I/O: feed whatever bytes
///    recv() produced and collect every frame completed so far. The
///    phase the parser is in *is* the connection's read state, so a
///    single event-loop thread can interleave thousands of connections
///    each mid-frame.
///  - pull (pull_len / pull_buffer / Pulled), for a blocking reader:
///    ReadFrame reads exactly the bytes each phase asks for.
///
/// Validation lives here alone: DecodeFrameHeader, the span-length
/// cap, the CRC check. Any protocol error poisons the parser — framing
/// is unrecoverable after garbage, so every later call returns the same
/// error and the connection must be dropped.
class FrameParser {
 public:
  /// Consumes `len` bytes, appending each completed frame to `out` (one
  /// read batch can complete several pipelined frames).
  Status Consume(const char* data, size_t len, std::vector<Frame>* out);

  /// Bytes the current phase still needs (always >= 1).
  size_t pull_len() const { return need_ - filled_; }
  /// Where the current phase's next `len` (<= pull_len()) bytes go: a
  /// scratch field for the fixed-size phases, the frame's own span
  /// block or payload for the variable ones, so they are filled in
  /// place.
  char* pull_buffer(size_t len);

  /// `len` bytes (at most pull_len()) were written at pull_buffer().
  /// Finishes the phase once it is full; after a frame's last phase,
  /// moves the frame to `*out`, counts it in wsq.net.frames_read and
  /// returns true.
  Result<bool> Pulled(size_t len, Frame* out);

  /// Bytes received toward the current phase (0 between frames).
  size_t buffered_bytes() const { return filled_; }

  /// True once a protocol error poisoned the parser.
  bool failed() const { return !error_.ok(); }

 private:
  enum class Phase : uint8_t {
    kHeader,
    kTraceContext,
    kSpanLength,
    kSpanBlock,
    kPayload,
    kCrcTrailer,
  };

  /// Interprets the completed phase's bytes and moves to the next phase;
  /// sets `*complete` when the frame is finished.
  Status Step(bool* complete);
  /// The frame field the current phase fills, or null for the
  /// fixed-size phases (which fill fixed_).
  std::string* VariableField();
  void BeginFrame();

  static_assert(kTraceContextBytes >= kFrameHeaderBytes,
                "fixed_ holds the largest fixed-size phase");

  Phase phase_ = Phase::kHeader;
  size_t need_ = kFrameHeaderBytes;
  size_t filled_ = 0;
  char fixed_[kTraceContextBytes] = {};
  Frame frame_;
  uint32_t payload_len_ = 0;
  /// Running CRC-32C over every wire byte of the frame in progress
  /// (accumulated per phase; compared against the trailer at the end).
  uint32_t crc_ = 0;
  Status error_ = Status::Ok();
};

}  // namespace wsq::net

#endif  // WSQ_NET_FRAME_H_
