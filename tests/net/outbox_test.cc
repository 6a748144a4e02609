// The per-connection outbox wsqd's loop and workers share: the worker
// that ran an exchange sends its own response, the loop answers control
// frames and flushes leftovers on EPOLLOUT, and a closed connection's
// fd is never written after the loop lets it go. Driven by raw peers so
// every byte on the wire is visible. Built for the thread sanitizer as
// well as the plain suite.

#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "live_test_util.h"
#include "wsq/codec/soap_codec.h"
#include "wsq/fault/fault_plan.h"
#include "wsq/net/frame.h"
#include "wsq/net/socket.h"
#include "wsq/obs/metrics.h"
#include "wsq/relation/row_block.h"
#include "wsq/soap/envelope.h"
#include "wsq/soap/message.h"

namespace wsq {
namespace {

constexpr double kIoTimeoutMs = 10000.0;

net::Frame Request(const std::string& payload) {
  net::Frame frame;
  frame.type = net::FrameType::kRequest;
  frame.payload = payload;
  frame.has_crc = true;
  return frame;
}

net::Frame Ping() {
  net::Frame frame;
  frame.type = net::FrameType::kPing;
  frame.has_crc = true;
  return frame;
}

std::string BlockRequest(int64_t session, int64_t block_size,
                         int64_t sequence) {
  RequestBlockRequest request;
  request.session_id = session;
  request.block_size = block_size;
  request.sequence = sequence;
  return EncodeRequestBlock(request);
}

/// Connects, says Hello with CRC on (so every frame the server sends is
/// checksummed end to end) and opens a session over the customer table.
/// Returns the session id, or -1 with a test failure recorded.
int64_t OpenOver(net::Socket& conn) {
  conn.set_io_timeout_ms(kIoTimeoutMs);
  const Status hello = RawHello(conn, "soap", /*crc=*/true);
  EXPECT_TRUE(hello.ok()) << hello.ToString();
  OpenSessionRequest open;
  open.table = "customer";
  EXPECT_TRUE(net::WriteFrame(conn, Request(EncodeOpenSession(open))).ok());
  Result<net::Frame> opened = net::ReadFrame(conn);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return -1;
  Result<XmlNode> payload = ParseEnvelope(opened.value().payload);
  EXPECT_TRUE(payload.ok()) << payload.status().ToString();
  if (!payload.ok()) return -1;
  return DecodeOpenSessionResponse(payload.value()).value().session_id;
}

/// The SOAP payload the server's codec encodes for table rows
/// [first, first + count) of `session`.
std::string ExpectedBlock(const LiveServerHarness& harness, int64_t session,
                          size_t first, size_t count) {
  const std::vector<Tuple>& rows = harness.customer().rows();
  const std::vector<Tuple> slice(rows.begin() + static_cast<long>(first),
                                 rows.begin() + static_cast<long>(first + count));
  const bool end = first + count >= rows.size();
  return codec::SoapCodec()
      .EncodeBlockResponse(session, end, CustomerSchema(), RowBlock(slice))
      .value();
}

int64_t ShortWrites() {
  return MetricsRegistry::Global().GetCounter("wsq.net.short_writes")->value();
}

TEST(OutboxTest, PingIsAnsweredWholeBeforeAStalledResponse) {
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  FaultSpec stall;
  stall.kind = FaultKind::kServerStall;
  stall.stall_ms = 400.0;
  options.fault_plan.specs.push_back(stall);
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok())
      << harness.start_status().ToString();

  Result<net::Socket> conn =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  const int64_t session = OpenOver(conn.value());
  ASSERT_GT(session, 0);

  // The whole table in one block, so the response is large; the stall
  // holds it on a worker while the ping arrives behind it.
  const size_t rows = harness.customer().num_rows();
  ASSERT_TRUE(net::WriteFrame(conn.value(),
                              Request(BlockRequest(session, rows, 0)))
                  .ok());
  ASSERT_TRUE(net::WriteFrame(conn.value(), Ping()).ok());

  Result<net::Frame> first = net::ReadFrame(conn.value());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().type, net::FrameType::kPong);
  // Answered during the dispatch, not after it: only the OpenSession
  // exchange has been served.
  EXPECT_EQ(harness.server().exchanges_served(), 1);

  Result<net::Frame> second = net::ReadFrame(conn.value());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().type, net::FrameType::kResponse);
  EXPECT_TRUE(second.value().has_crc);
  EXPECT_EQ(second.value().payload, ExpectedBlock(harness, session, 0, rows));
}

TEST(OutboxTest, LeftoverOfAShortWorkerWriteArrivesThroughTheLoop) {
  // Three blocks of 12500 rows (about 2 MB of SOAP each) pipelined at a
  // peer that does not read: more than loopback's socket buffers hold,
  // so some worker's send comes up short and the loop must flush the
  // rest on EPOLLOUT once the peer drains.
  LiveServerHarness harness(LiveServerHarness::QuickOptions(),
                            /*scale=*/0.25);
  ASSERT_TRUE(harness.start_status().ok())
      << harness.start_status().ToString();
  const size_t rows = harness.customer().num_rows();
  constexpr int kBlocks = 3;
  const size_t block_size = rows / kBlocks;
  ASSERT_EQ(block_size * kBlocks, rows);

  Result<net::Socket> conn =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  const int64_t session = OpenOver(conn.value());
  ASSERT_GT(session, 0);

  const int64_t short_before = ShortWrites();
  for (int b = 0; b < kBlocks; ++b) {
    ASSERT_TRUE(net::WriteFrame(conn.value(),
                                Request(BlockRequest(session, block_size, b)))
                    .ok());
  }
  // Stop reading until every worker has run and the outbox holds what
  // the kernel refused.
  for (int i = 0; i < 10000 && harness.server().exchanges_served() < 1 + kBlocks;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(harness.server().exchanges_served(), 1 + kBlocks);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GT(ShortWrites(), short_before);

  // Now drain: every byte must be exactly the codec's encode, framed.
  std::string wire;
  std::vector<net::Frame> frames;
  net::FrameParser parser;
  char buf[64 * 1024];
  while (frames.size() < kBlocks) {
    Result<size_t> n = conn.value().ReadSome(buf, sizeof(buf));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_GT(n.value(), 0u) << "server closed mid-response";
    wire.append(buf, n.value());
    ASSERT_TRUE(parser.Consume(buf, n.value(), &frames).ok());
  }
  ASSERT_EQ(frames.size(), static_cast<size_t>(kBlocks));
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  std::string expected_wire;
  for (int b = 0; b < kBlocks; ++b) {
    net::Frame expected;
    expected.type = net::FrameType::kResponse;
    expected.service_micros = frames[b].service_micros;
    expected.has_crc = true;
    expected.payload =
        ExpectedBlock(harness, session, b * block_size, block_size);
    EXPECT_EQ(frames[b].payload, expected.payload) << "block " << b;
    ASSERT_TRUE(net::AppendFrameBytes(expected, &expected_wire).ok());
  }
  EXPECT_TRUE(wire == expected_wire) << "the wire differs from the encode";
}

TEST(OutboxTest, AHungUpPeersResponseNeverReachesTheFdsNextOwner) {
  // The simulated service sleep (about 216 ms for an 11000-row block)
  // runs after the worker's abandonment check, so the peer's hangup
  // lands while the worker still means to send.
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.simulate_service_time = true;
  LiveServerHarness harness(options, /*scale=*/0.1);
  ASSERT_TRUE(harness.start_status().ok())
      << harness.start_status().ToString();

  {
    Result<net::Socket> doomed =
        net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
    ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();
    const int64_t session = OpenOver(doomed.value());
    ASSERT_GT(session, 0);
    ASSERT_TRUE(net::WriteFrame(doomed.value(),
                                Request(BlockRequest(session, 11000, 0)))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }  // hangs up mid-dispatch
  for (int i = 0; i < 5000 && harness.server().live_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(harness.server().live_connections(), 0);
  ASSERT_EQ(harness.server().exchanges_served(), 1) << "dispatch not stalled";

  // Opened at once: the server's accept most likely gets the fd number
  // the loop just closed.
  Result<net::Socket> next =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  next.value().set_io_timeout_ms(kIoTimeoutMs);
  ASSERT_TRUE(RawHello(next.value(), "soap", /*crc=*/true).ok());
  for (int i = 0; i < 5000 && harness.server().exchanges_served() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(harness.server().exchanges_served(), 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The abandoned response went nowhere: the next frame is the answer
  // to this connection's own ping, and nothing follows it.
  ASSERT_TRUE(net::WriteFrame(next.value(), Ping()).ok());
  Result<net::Frame> pong = net::ReadFrame(next.value());
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong.value().type, net::FrameType::kPong);
  struct pollfd pfd;
  pfd.fd = next.value().fd();
  pfd.events = POLLIN;
  pfd.revents = 0;
  EXPECT_EQ(::poll(&pfd, 1, 50), 0) << "stray bytes after the pong";
}

}  // namespace
}  // namespace wsq
