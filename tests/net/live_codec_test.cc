// The negotiated binary codec over the real TCP transport: upgrade,
// fallback, bit-exact delivery, and the restart-retry regression the
// replay cache closes.

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "live_test_util.h"
#include "wsq/client/tcp_ws_client.h"
#include "wsq/codec/codec.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/fault/resilience_policy.h"
#include "wsq/net/frame.h"
#include "wsq/net/socket.h"

namespace wsq {
namespace {

net::WsqServerOptions BinaryServerOptions(bool compress = false) {
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.codec = codec::CodecChoice{codec::CodecKind::kBinary, compress};
  return options;
}

LiveSetup BinaryClientSetup(const LiveServerHarness& harness) {
  LiveSetup setup = harness.MakeSetup();
  setup.client_options.codec =
      codec::CodecChoice{codec::CodecKind::kBinary, false};
  return setup;
}

TEST(LiveCodecTest, NegotiatedBinaryDeliversTheTableBitExactly) {
  // Under the binary codec the live path sheds SOAP's 2-decimal text
  // truncation: fetched rows equal the server's in-memory table, raw
  // double bits included — not the serializer round-trip WireRows()
  // models for SOAP runs.
  LiveServerHarness harness(BinaryServerOptions());
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(BinaryClientSetup(harness));
  FixedController controller(300);
  std::vector<Tuple> rows;
  Result<RunTrace> trace =
      live.RunQueryKeepingTuples(&controller, RunSpec{}, &rows);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace.value().CheckConsistent().ok());

  ASSERT_EQ(rows.size(), harness.customer().num_rows());
  EXPECT_EQ(rows, harness.customer().rows());

  // And the SOAP wire model would NOT have matched: the table has
  // full-precision balances that 2-decimal text must mangle.
  EXPECT_NE(rows, harness.WireRows());
}

TEST(LiveCodecTest, CompressedBinaryMatchesPlainOverTcp) {
  LiveServerHarness harness(BinaryServerOptions(/*compress=*/true));
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(BinaryClientSetup(harness));
  FixedController controller(400);
  std::vector<Tuple> rows;
  Result<RunTrace> trace =
      live.RunQueryKeepingTuples(&controller, RunSpec{}, &rows);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(rows, harness.customer().rows());
}

TEST(LiveCodecTest, ClientFallsBackWhenServerOnlySpeaksSoap) {
  // Default server options: negotiation answers "soap" to everyone. A
  // client advertising binary must settle for SOAP and still drain the
  // query — delivering the SOAP-precision rows, proving the downgraded
  // codec really carried the blocks.
  LiveServerHarness harness;  // QuickOptions: codec defaults to soap
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(BinaryClientSetup(harness));
  FixedController controller(300);
  std::vector<Tuple> rows;
  Result<RunTrace> trace =
      live.RunQueryKeepingTuples(&controller, RunSpec{}, &rows);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  const std::vector<Tuple> expected = harness.WireRows();
  ASSERT_EQ(rows.size(), expected.size());
  EXPECT_EQ(rows, expected);
}

TEST(LiveCodecTest, SoapClientUnaffectedByABinaryCapableServer) {
  // The reverse direction: a client advertising only SOAP still opens
  // with a Hello, and a server willing to speak binary answers it with
  // "soap" — blocks arrive as SOAP, sequenced like every live fetch.
  LiveServerHarness harness(BinaryServerOptions());
  ASSERT_TRUE(harness.start_status().ok());

  TcpWsClient client("127.0.0.1", harness.port());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.wire_codec(), codec::CodecKind::kSoap);
  EXPECT_TRUE(client.SequencedRetriesSafe());

  LiveBackend live(harness.MakeSetup());  // client codec defaults to soap
  FixedController controller(300);
  std::vector<Tuple> rows;
  Result<RunTrace> trace =
      live.RunQueryKeepingTuples(&controller, RunSpec{}, &rows);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(rows, harness.WireRows());
}

TcpWsClientOptions BinaryClientOptions(double timeout_ms) {
  TcpWsClientOptions options;
  options.connect_timeout_ms = timeout_ms;
  options.codec = codec::CodecChoice{codec::CodecKind::kBinary, false};
  return options;
}

TEST(LiveCodecTest, AckTimeoutDoesNotLatchTheClientOntoSoap) {
  // Regression: a transient ack timeout during the Hello exchange (a
  // slow server under load) must surface as an ordinary connect failure,
  // and the next reconnect must send the Hello again — never fall back
  // to SOAP against a binary-capable server.
  Result<net::Socket> listener = net::TcpListen(0);
  ASSERT_TRUE(listener.ok());
  Result<int> port = net::LocalPort(listener.value());
  ASSERT_TRUE(port.ok());

  std::thread peer([&] {
    // Connection 1: swallow the Hello and go mute (but keep the socket
    // open, so the client sees a deadline expiry, not a close).
    Result<net::Socket> c1 = net::Accept(listener.value(), 5000.0);
    ASSERT_TRUE(c1.ok());
    Result<net::Frame> hello1 = net::ReadFrame(c1.value());
    EXPECT_TRUE(hello1.ok());
    // Connection 2: a healthy handshake.
    Result<net::Socket> c2 = net::Accept(listener.value(), 5000.0);
    ASSERT_TRUE(c2.ok());
    Result<net::Frame> hello2 = net::ReadFrame(c2.value());
    ASSERT_TRUE(hello2.ok());
    EXPECT_EQ(hello2.value().type, net::FrameType::kHello);
    net::Frame ack;
    ack.type = net::FrameType::kHelloAck;
    ack.payload = "binary";
    EXPECT_TRUE(WriteFrame(c2.value(), ack).ok());
  });

  TcpWsClient client("127.0.0.1", port.value(), BinaryClientOptions(200.0));
  const Status first = client.Connect();
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);

  const Status second = client.Connect();
  EXPECT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(client.wire_codec(), codec::CodecKind::kBinary);
  peer.join();
}

TEST(LiveCodecTest, NonAckAnswerToTheHelloIsATerminalProtocolError) {
  // A peer that answers the Hello with anything but a HelloAck does not
  // speak this protocol. There is no fallback: the connect fails with
  // kInvalidArgument and the socket is dropped, and a Call surfaces the
  // same status instead of masking it as a retryable kUnavailable.
  Result<net::Socket> listener = net::TcpListen(0);
  ASSERT_TRUE(listener.ok());
  Result<int> port = net::LocalPort(listener.value());
  ASSERT_TRUE(port.ok());

  std::thread peer([&] {
    for (int i = 0; i < 2; ++i) {
      Result<net::Socket> conn = net::Accept(listener.value(), 5000.0);
      ASSERT_TRUE(conn.ok());
      Result<net::Frame> hello = net::ReadFrame(conn.value());
      ASSERT_TRUE(hello.ok());
      EXPECT_EQ(hello.value().type, net::FrameType::kHello);
      net::Frame wrong;
      wrong.type = net::FrameType::kResponse;
      wrong.payload = "not an ack";
      EXPECT_TRUE(WriteFrame(conn.value(), wrong).ok());
    }
  });

  TcpWsClient client("127.0.0.1", port.value(), BinaryClientOptions(2000.0));
  const Status connected = client.Connect();
  EXPECT_EQ(connected.code(), StatusCode::kInvalidArgument)
      << connected.ToString();
  EXPECT_FALSE(client.connected());

  Result<CallResult> call = client.Call("<doc/>");
  EXPECT_EQ(call.status().code(), StatusCode::kInvalidArgument)
      << call.status().ToString();
  peer.join();
}

TEST(LiveCodecTest, BinaryRestartRetryDeliversEveryTupleExactlyOnce) {
  // The binary twin of LiveRetryTest's restart test. Requests carry a
  // sequence number, the server's replay cache makes the retried fetch
  // idempotent, and the reconnect handshake restores the codec — so the
  // restarted query must deliver *exactly* the full table.
  net::WsqServerOptions options;  // service-time sim ON: paces the run
  options.codec = codec::CodecChoice{codec::CodecKind::kBinary, false};
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(BinaryClientSetup(harness));
  FixedController controller(50);
  ResilienceConfig chaos = ResilienceConfig::Chaos();
  RunSpec spec;
  spec.resilience = &chaos;

  std::vector<Tuple> rows;
  Result<RunTrace> trace = Status::Internal("not run");
  std::thread runner(
      [&] { trace = live.RunQueryKeepingTuples(&controller, spec, &rows); });

  const auto gate_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.server().exchanges_served() < 5 &&
         std::chrono::steady_clock::now() < gate_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(harness.server().exchanges_served(), 5);
  harness.server().Stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(harness.server().Start().ok());
  runner.join();

  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace.value().CheckConsistent().ok())
      << trace.value().CheckConsistent().ToString();
  EXPECT_GE(trace.value().total_retries, 1);

  // Exact delivery: every tuple, once, in order, bit-exact.
  EXPECT_EQ(trace.value().total_tuples,
            static_cast<int64_t>(harness.customer().num_rows()));
  EXPECT_EQ(rows, harness.customer().rows());
}

}  // namespace
}  // namespace wsq
