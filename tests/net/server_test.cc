#include "wsq/net/server.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "live_test_util.h"
#include "wsq/client/block_fetcher.h"
#include "wsq/client/tcp_ws_client.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/net/frame.h"
#include "wsq/net/socket.h"
#include "wsq/relation/tuple_serializer.h"
#include "wsq/soap/envelope.h"
#include "wsq/soap/message.h"

namespace wsq {
namespace {

TEST(WsqServerTest, StartPinsAnEphemeralPortAndIsIdempotent) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok())
      << harness.start_status().ToString();
  const int port = harness.port();
  EXPECT_GT(port, 0);
  EXPECT_TRUE(harness.server().running());

  // Start while running is a no-op and the port does not move.
  EXPECT_TRUE(harness.server().Start().ok());
  EXPECT_EQ(harness.port(), port);
}

TEST(WsqServerTest, StopIsIdempotentAndRestartReusesThePort) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());
  const int port = harness.port();

  harness.server().Stop();
  EXPECT_FALSE(harness.server().running());
  harness.server().Stop();  // second Stop is a no-op

  // A stopped server refuses connections...
  Result<net::Socket> refused = net::TcpConnect("127.0.0.1", port, 500.0);
  EXPECT_FALSE(refused.ok());

  // ...and a restart comes back on the very same port.
  ASSERT_TRUE(harness.server().Start().ok());
  EXPECT_EQ(harness.port(), port);
  Result<net::Socket> accepted = net::TcpConnect("127.0.0.1", port, 2000.0);
  EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
}

TEST(WsqServerTest, ServesAFullPullLoopOverLoopback) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  TcpWsClient client("127.0.0.1", harness.port());
  FixedController controller(400);
  BlockFetcher fetcher(&client, &controller);
  ScanProjectQuery query;
  query.table_name = "customer";

  Result<FetchOutcome> outcome = fetcher.Run(query);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().total_tuples,
            static_cast<int64_t>(harness.customer().num_rows()));
  EXPECT_EQ(outcome.value().retries, 0);
  EXPECT_GT(outcome.value().total_time_ms, 0.0);
  EXPECT_GT(harness.server().exchanges_served(), 0);
}

TEST(WsqServerTest, GarbageSpeakerIsDisconnectedWithoutHarmingOthers) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  // A peer that does not speak the protocol gets its connection closed
  // at the first header.
  Result<net::Socket> garbage =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(garbage.ok());
  std::string junk(64, 'x');
  ASSERT_TRUE(net::WriteAll(garbage.value(), junk.data(), junk.size()).ok());
  garbage.value().set_io_timeout_ms(3000.0);
  char probe;
  Result<size_t> n = garbage.value().ReadSome(&probe, 1);
  // The server hung up on us: a clean FIN, or an RST if our unread junk
  // was still in its receive buffer at close — both count.
  EXPECT_TRUE((n.ok() && n.value() == 0u) ||
              (!n.ok() && n.status().code() == StatusCode::kUnavailable))
      << n.status().ToString();

  // The server is still healthy for well-behaved clients.
  TcpWsClient client("127.0.0.1", harness.port());
  FixedController controller(500);
  BlockFetcher fetcher(&client, &controller);
  ScanProjectQuery query;
  query.table_name = "customer";
  Result<FetchOutcome> outcome = fetcher.Run(query);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().total_tuples,
            static_cast<int64_t>(harness.customer().num_rows()));
}

TEST(WsqServerTest, ConcurrentClientsGetDisjointSessionsAndFullResults) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  // Four clients pull the full table concurrently with different block
  // sizes. Sessions must not leak into each other: every client gets
  // every row, in order, exactly once.
  const std::vector<int64_t> sizes = {150, 300, 450, 700};
  std::vector<Result<FetchOutcome>> outcomes(
      sizes.size(), Result<FetchOutcome>(Status::Internal("not run")));
  std::vector<std::vector<Tuple>> rows(sizes.size());
  const TupleSerializer serializer(CustomerSchema());

  std::vector<std::thread> threads;
  for (size_t i = 0; i < sizes.size(); ++i) {
    threads.emplace_back([&, i] {
      TcpWsClient client("127.0.0.1", harness.port());
      FixedController controller(sizes[i]);
      BlockFetcher fetcher(&client, &controller);
      ScanProjectQuery query;
      query.table_name = "customer";
      outcomes[i] = fetcher.Run(query, &serializer, &rows[i]);
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<Tuple> expected = harness.WireRows();
  for (size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].status().ToString();
    EXPECT_EQ(outcomes[i].value().total_tuples,
              static_cast<int64_t>(harness.customer().num_rows()));
    ASSERT_EQ(rows[i].size(), expected.size());
    // Spot-check identity at the block-size boundaries of this client.
    EXPECT_TRUE(rows[i].front() == expected.front());
    EXPECT_TRUE(rows[i].back() == expected.back());
    EXPECT_TRUE(rows[i][static_cast<size_t>(sizes[i])] ==
                expected[static_cast<size_t>(sizes[i])]);
  }
  EXPECT_GE(harness.server().connections_accepted(), 4);
}

TEST(WsqServerTest, StatsJsonCarriesSessionLatencyAndFairness) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  // Two sequential clients: two sessions with served blocks, so the
  // fairness rollup has a real population.
  for (int64_t size : {200, 600}) {
    TcpWsClient client("127.0.0.1", harness.port());
    FixedController controller(size);
    BlockFetcher fetcher(&client, &controller);
    ScanProjectQuery query;
    query.table_name = "customer";
    Result<FetchOutcome> outcome = fetcher.Run(query);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }

  const std::string json = harness.server().StatsJson();
  // Per-session block-latency rollup...
  EXPECT_NE(json.find("\"latency_ms\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  // ...and the fleet-facing fairness section over active sessions.
  EXPECT_NE(json.find("\"fairness\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sessions\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_spread_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"jain_index\":"), std::string::npos);
}

TEST(WsqServerTest, SocketDeadlineExpiresAsUnavailable) {
  // A listener that accepts but never answers: the client's read must
  // time out within the io deadline instead of hanging.
  Result<net::Socket> listener = net::TcpListen(0);
  ASSERT_TRUE(listener.ok());
  Result<int> port = net::LocalPort(listener.value());
  ASSERT_TRUE(port.ok());

  Result<net::Socket> conn =
      net::TcpConnect("127.0.0.1", port.value(), 2000.0);
  ASSERT_TRUE(conn.ok());
  Result<net::Socket> accepted = net::Accept(listener.value(), 2000.0);
  ASSERT_TRUE(accepted.ok());

  conn.value().set_io_timeout_ms(80.0);
  char buf;
  Result<size_t> n = conn.value().ReadSome(&buf, 1);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(n.status().message().find("timed out"), std::string::npos);
}

TEST(WsqServerTest, StopWakesABlockedClientRead) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  // A connected client blocked waiting for a frame must be released
  // when the server stops (connection shutdown), not hang forever.
  Result<net::Socket> conn =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(conn.ok());

  std::thread stopper([&] {
    // Give the read below a moment to block, then stop the server.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    harness.server().Stop();
  });
  conn.value().set_io_timeout_ms(5000.0);
  Result<net::Frame> frame = net::ReadFrame(conn.value());
  stopper.join();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// The Hello rule: a block request needs a completed Hello on its
// connection; the telemetry plane does not.
// ---------------------------------------------------------------------------

net::Frame RequestFrame(std::string payload) {
  net::Frame frame;
  frame.type = net::FrameType::kRequest;
  frame.payload = std::move(payload);
  return frame;
}

Result<net::Socket> HelloedConnection(int port) {
  Result<net::Socket> conn = net::TcpConnect("127.0.0.1", port, 2000.0);
  if (!conn.ok()) return conn;
  conn.value().set_io_timeout_ms(3000.0);
  WSQ_RETURN_IF_ERROR(RawHello(conn.value()));
  return conn;
}

std::string OpenCustomerSession() {
  OpenSessionRequest open;
  open.table = "customer";
  return EncodeOpenSession(open);
}

TEST(WsqServerTest, RequestBeforeHelloIsRefusedAndLeavesTheCursorAlone) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  // A Hello'd connection opens a session...
  Result<net::Socket> owner = HelloedConnection(harness.port());
  ASSERT_TRUE(owner.ok()) << owner.status().ToString();
  ASSERT_TRUE(
      net::WriteFrame(owner.value(), RequestFrame(OpenCustomerSession())).ok());
  Result<net::Frame> opened = net::ReadFrame(owner.value());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Result<XmlNode> open_envelope = ParseEnvelope(opened.value().payload);
  ASSERT_TRUE(open_envelope.ok());
  Result<OpenSessionResponse> session =
      DecodeOpenSessionResponse(open_envelope.value());
  ASSERT_TRUE(session.ok());

  // ...and a connection that skipped the Hello asks for its first block.
  RequestBlockRequest block;
  block.session_id = session.value().session_id;
  block.block_size = 10;
  block.sequence = 0;
  Result<net::Socket> rude =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(rude.ok());
  rude.value().set_io_timeout_ms(3000.0);
  ASSERT_TRUE(
      net::WriteFrame(rude.value(), RequestFrame(EncodeRequestBlock(block)))
          .ok());
  Result<net::Frame> refused = net::ReadFrame(rude.value());
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused.value().type, net::FrameType::kResponse);
  // A terminal SOAP fault: retrying on this connection cannot help.
  EXPECT_NE(refused.value().flags & net::kFrameFlagSoapFault, 0);
  EXPECT_EQ(refused.value().flags & net::kFrameFlagTransientFault, 0);
  EXPECT_EQ(ParseEnvelope(refused.value().payload).status().code(),
            StatusCode::kRemoteFault);
  // The server hangs up once the fault is flushed.
  Result<net::Frame> after = net::ReadFrame(rude.value());
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);

  // The refused request never reached the session: a later Hello'd
  // client reads it from block 0.
  Result<net::Socket> later = HelloedConnection(harness.port());
  ASSERT_TRUE(later.ok()) << later.status().ToString();
  ASSERT_TRUE(
      net::WriteFrame(later.value(), RequestFrame(EncodeRequestBlock(block)))
          .ok());
  Result<net::Frame> fetched = net::ReadFrame(later.value());
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(fetched.value().flags & net::kFrameFlagSoapFault, 0);
  Result<XmlNode> block_envelope = ParseEnvelope(fetched.value().payload);
  ASSERT_TRUE(block_envelope.ok()) << block_envelope.status().ToString();
  Result<BlockResponse> response =
      DecodeBlockResponse(std::move(block_envelope).value());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  Result<std::vector<Tuple>> rows =
      TupleSerializer(CustomerSchema()).DeserializeBlock(
          response.value().payload);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const std::vector<Tuple> wire = harness.WireRows();
  EXPECT_EQ(rows.value(), std::vector<Tuple>(wire.begin(), wire.begin() + 10));
}

TEST(WsqServerTest, StatsWithoutHelloIsAnswered) {
  // FetchServerStats opens a bare connection and sends kStats alone.
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  Result<net::Socket> conn =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(conn.ok());
  conn.value().set_io_timeout_ms(3000.0);
  net::Frame stats;
  stats.type = net::FrameType::kStats;
  ASSERT_TRUE(net::WriteFrame(conn.value(), stats).ok());
  Result<net::Frame> ack = net::ReadFrame(conn.value());
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack.value().type, net::FrameType::kStatsAck);
  EXPECT_NE(ack.value().payload.find("\"schema_version\""), std::string::npos);

  Result<std::string> fetched =
      net::FetchServerStats("127.0.0.1", harness.port(), 3000.0);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(harness.server().stats_requests(), 2);
}

TEST(WsqServerTest, HelloAndRequestInOneSendAreAnsweredInOrder) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  net::Frame hello;
  hello.type = net::FrameType::kHello;
  hello.payload = "soap";
  std::string bytes;
  ASSERT_TRUE(net::AppendFrameBytes(hello, &bytes).ok());
  ASSERT_TRUE(
      net::AppendFrameBytes(RequestFrame(OpenCustomerSession()), &bytes).ok());

  Result<net::Socket> conn =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(conn.ok());
  conn.value().set_io_timeout_ms(3000.0);
  ASSERT_TRUE(net::WriteAll(conn.value(), bytes.data(), bytes.size()).ok());

  Result<net::Frame> ack = net::ReadFrame(conn.value());
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack.value().type, net::FrameType::kHelloAck);
  EXPECT_EQ(ack.value().payload, "soap");
  Result<net::Frame> opened = net::ReadFrame(conn.value());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().type, net::FrameType::kResponse);
  EXPECT_EQ(opened.value().flags & net::kFrameFlagSoapFault, 0);
  Result<XmlNode> envelope = ParseEnvelope(opened.value().payload);
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  EXPECT_TRUE(DecodeOpenSessionResponse(envelope.value()).ok());
}

}  // namespace
}  // namespace wsq
