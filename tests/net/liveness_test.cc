// Liveness heartbeats, half-open eviction, session TTL, and graceful
// drain — the server-side endgame states PR "transport chaos" hardens:
// a connection must never be half-open forever, a session must never
// leak forever, and a SIGTERM must never cost a client its query.

#include <chrono>
#include <functional>
#include <string>
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
#include "wsq/soap/envelope.h"
#include "wsq/soap/message.h"

namespace wsq {
namespace {

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 3000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

Result<net::Frame> Exchange(net::Socket& conn, const std::string& payload) {
  net::Frame frame;
  frame.type = net::FrameType::kRequest;
  frame.payload = payload;
  Status written = net::WriteFrame(conn, frame);
  if (!written.ok()) return written;
  return net::ReadFrame(conn);
}

std::string OpenCustomerSession() {
  OpenSessionRequest open;
  open.table = "customer";
  return EncodeOpenSession(open);
}

net::WsqServerOptions IdleTimeoutOptions(double idle_timeout_ms) {
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.idle_timeout_ms = idle_timeout_ms;
  return options;
}

// ---------------------------------------------------------------------------
// Heartbeats.
// ---------------------------------------------------------------------------

TEST(LivenessTest, ClientPingRoundTripsOnEveryConnection) {
  // Heartbeats are part of the base protocol: a peer that negotiated
  // nothing beyond the Hello gets its kPing answered, and the
  // connection stays usable afterwards.
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  Result<net::Socket> conn =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(conn.ok());
  conn.value().set_io_timeout_ms(2000.0);
  ASSERT_TRUE(RawHello(conn.value()).ok());
  net::Frame ping;
  ping.type = net::FrameType::kPing;
  ASSERT_TRUE(net::WriteFrame(conn.value(), ping).ok());
  Result<net::Frame> pong = net::ReadFrame(conn.value());
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong.value().type, net::FrameType::kPong);

  Result<net::Frame> served = Exchange(conn.value(), OpenCustomerSession());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(ParseEnvelope(served.value().payload).ok());
}

TEST(LivenessTest, AnsweredHeartbeatsKeepAnIdleLiveConnectionAlive) {
  // Idle budget 400ms. A raw peer that answers every kPing stays
  // admitted across several multiples of the budget — liveness, not
  // traffic, is what the server meters.
  LiveServerHarness harness(IdleTimeoutOptions(400.0));
  ASSERT_TRUE(harness.start_status().ok());

  Result<net::Socket> conn =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(conn.ok());
  conn.value().set_io_timeout_ms(2000.0);
  ASSERT_TRUE(RawHello(conn.value()).ok());

  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1300);
  while (std::chrono::steady_clock::now() < until) {
    conn.value().set_io_timeout_ms(60.0);
    Result<net::Frame> frame = net::ReadFrame(conn.value());
    if (frame.ok() && frame.value().type == net::FrameType::kPing) {
      net::Frame pong;
      pong.type = net::FrameType::kPong;
      ASSERT_TRUE(net::WriteFrame(conn.value(), pong).ok());
    }
  }

  EXPECT_GE(harness.server().pings_sent(), 2);
  EXPECT_EQ(harness.server().idle_evicted(), 0);
  // Still a first-class connection: a real exchange works.
  conn.value().set_io_timeout_ms(3000.0);
  Result<net::Frame> served = Exchange(conn.value(), OpenCustomerSession());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served.value().type, net::FrameType::kResponse);
}

TEST(LivenessTest, UnansweredPingEvictsAHalfOpenLivePeer) {
  // A peer that goes mute is probed at half the budget and
  // evicted at the full budget — the half-open connection cannot pin a
  // slot forever.
  LiveServerHarness harness(IdleTimeoutOptions(300.0));
  ASSERT_TRUE(harness.start_status().ok());

  Result<net::Socket> conn =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(conn.ok());
  conn.value().set_io_timeout_ms(2000.0);
  ASSERT_TRUE(RawHello(conn.value()).ok());

  ASSERT_TRUE(WaitFor([&] { return harness.server().idle_evicted() >= 1; }));
  EXPECT_GE(harness.server().pings_sent(), 1);
  ASSERT_TRUE(WaitFor([&] { return harness.server().live_connections() == 0; }));
}

TEST(LivenessTest, EvictionSurfacesRetryablyAndTheClientReconnects) {
  // The client side of eviction: a TcpWsClient idle between calls gets
  // evicted (it does not read its socket while idle, so it cannot
  // pong). The eviction surfaces as at most one retryable kUnavailable
  // — exactly what the resilience policy absorbs — and the following
  // Call runs on a fresh connection.
  LiveServerHarness harness(IdleTimeoutOptions(250.0));
  ASSERT_TRUE(harness.start_status().ok());

  TcpWsClient client("127.0.0.1", harness.port());
  Result<CallResult> first = client.Call(OpenCustomerSession());
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  ASSERT_TRUE(WaitFor([&] { return harness.server().idle_evicted() >= 1; }));

  Result<CallResult> second = client.Call(OpenCustomerSession());
  if (!second.ok()) {
    // The dead socket was only discoverable mid-exchange (the buffered
    // ping masks the FIN from the pre-call peek): retryable, never
    // terminal.
    EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
    second = client.Call(OpenCustomerSession());
  }
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GE(client.reconnects(), 1);
}

// ---------------------------------------------------------------------------
// Session TTL.
// ---------------------------------------------------------------------------

TEST(LivenessTest, SessionTtlEvictsAbandonedSessions) {
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.session_ttl_ms = 200.0;
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());

  // Open a session and abandon it (keep the connection alive so the
  // eviction is unambiguously the TTL, not connection teardown).
  Result<net::Socket> conn =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(conn.ok());
  conn.value().set_io_timeout_ms(3000.0);
  ASSERT_TRUE(RawHello(conn.value()).ok());
  Result<net::Frame> opened = Exchange(conn.value(), OpenCustomerSession());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Result<XmlNode> envelope = ParseEnvelope(opened.value().payload);
  ASSERT_TRUE(envelope.ok());
  Result<OpenSessionResponse> session =
      DecodeOpenSessionResponse(envelope.value());
  ASSERT_TRUE(session.ok());

  ASSERT_TRUE(
      WaitFor([&] { return harness.server().evicted_sessions() >= 1; }));

  // The evicted session is really gone: fetching against it is a
  // terminal SOAP fault (unknown session), not a hang or a crash.
  RequestBlockRequest block;
  block.session_id = session.value().session_id;
  block.block_size = 10;
  Result<net::Frame> after = Exchange(conn.value(), EncodeRequestBlock(block));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(after.value().flags & net::kFrameFlagSoapFault, 0);
  EXPECT_EQ(after.value().flags & net::kFrameFlagTransientFault, 0);
}

TEST(LivenessTest, SessionTtlErasesTheSessionsLabeledMirrors) {
  // The sweep that drops a session's stats rollup drops its labeled
  // metrics too, so the stats registry does not grow with every session
  // ever served.
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.session_ttl_ms = 50.0;
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());
  // StatsJson() lists every metric of the server's private registry.
  const auto labeled_metrics = [&harness] {
    const std::string json = harness.server().StatsJson();
    size_t count = 0;
    for (size_t at = json.find("{session="); at != std::string::npos;
         at = json.find("{session=", at + 1)) {
      ++count;
    }
    return count;
  };
  EXPECT_EQ(labeled_metrics(), 0u);

  TcpWsClient client("127.0.0.1", harness.port());
  Result<CallResult> opened = client.Call(OpenCustomerSession());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const int64_t session =
      DecodeOpenSessionResponse(ParseEnvelope(opened.value().response).value())
          .value()
          .session_id;
  // A repeated sequence is a replay, so the session gets all four
  // mirrors: blocks, bytes_out, replay_hits and block_ms.
  for (int64_t sequence : {0, 0}) {
    RequestBlockRequest block;
    block.session_id = session;
    block.block_size = 50;
    block.sequence = sequence;
    Result<CallResult> call = client.Call(EncodeRequestBlock(block));
    ASSERT_TRUE(call.ok()) << call.status().ToString();
  }
  EXPECT_EQ(labeled_metrics(), 4u);

  ASSERT_TRUE(WaitFor([&] { return labeled_metrics() == 0; }));
  const std::string json = harness.server().StatsJson();
  EXPECT_NE(json.find("\"sessions\":{}"), std::string::npos) << json;
  EXPECT_EQ(json.find("{session="), std::string::npos) << json;
  EXPECT_GE(harness.server().evicted_sessions(), 1);
}

TEST(LivenessTest, ActiveSessionsSurviveTheTtl) {
  // A session that keeps fetching keeps its lease: the TTL meters idle
  // time, not age. With the service-time simulation pacing the run past
  // several TTLs, every fetch still lands inside its lease and the
  // whole table arrives.
  net::WsqServerOptions options;  // service-time sim ON
  options.session_ttl_ms = 500.0;
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(harness.MakeSetup());
  FixedController controller(100);
  std::vector<Tuple> rows;
  RunSpec spec;
  Result<RunTrace> trace =
      live.RunQueryKeepingTuples(&controller, spec, &rows);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(rows.size(), harness.WireRows().size());
  EXPECT_EQ(harness.server().evicted_sessions(), 0);
}

// ---------------------------------------------------------------------------
// Graceful drain.
// ---------------------------------------------------------------------------

TEST(DrainTest, DrainOfAQuietServerIsImmediateAndClean) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(harness.server().Drain(5.0));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed_ms, 2000.0);
  EXPECT_FALSE(harness.server().draining());

  // Drain ends in Stop; the server restarts cleanly afterwards.
  ASSERT_TRUE(harness.server().Start().ok());
  Result<net::Socket> conn =
      net::TcpConnect("127.0.0.1", harness.server().port(), 2000.0);
  EXPECT_TRUE(conn.ok());
}

TEST(DrainTest, BeginDrainGoawaysIdleLivePeersAndClosesTheDoor) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());
  const int port = harness.port();

  Result<net::Socket> conn = net::TcpConnect("127.0.0.1", port, 2000.0);
  ASSERT_TRUE(conn.ok());
  conn.value().set_io_timeout_ms(3000.0);
  ASSERT_TRUE(RawHello(conn.value()).ok());
  ASSERT_TRUE(WaitFor([&] { return harness.server().live_connections() == 1; }));

  harness.server().BeginDrain();
  EXPECT_TRUE(harness.server().draining());

  // The idle peer gets an explicit kGoaway, then a clean close.
  Result<net::Frame> notice = net::ReadFrame(conn.value());
  ASSERT_TRUE(notice.ok()) << notice.status().ToString();
  EXPECT_EQ(notice.value().type, net::FrameType::kGoaway);
  EXPECT_GE(harness.server().goaways_sent(), 1);
  Result<net::Frame> after = net::ReadFrame(conn.value());
  EXPECT_FALSE(after.ok());

  // And the listener is gone: a draining server takes no new traffic.
  ASSERT_TRUE(WaitFor([&] {
    Result<net::Socket> probe = net::TcpConnect("127.0.0.1", port, 200.0);
    return !probe.ok();
  }));
}

TEST(DrainTest, DrainedRestartPreservesExactlyOnceDelivery) {
  // The acceptance scenario: SIGTERM's code path (Drain) fires in the
  // middle of a binary query, the server finishes the in-flight
  // exchange, sheds the rest as retryable backpressure, stops, and
  // restarts. The chaos-policy client rides the goaway/refused window
  // out and the replay cache keeps delivery exactly-once — a graceful
  // restart costs time, never tuples.
  net::WsqServerOptions options;  // service-time sim ON: paces the run
  options.codec = codec::CodecChoice{codec::CodecKind::kBinary, false};
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());

  LiveSetup setup = harness.MakeSetup();
  setup.client_options.codec = codec::CodecChoice{codec::CodecKind::kBinary,
                                                  false};
  setup.client_options.enable_crc = true;
  LiveBackend live(setup);
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

  EXPECT_TRUE(harness.server().Drain(5.0)) << "drain did not finish cleanly";
  ASSERT_TRUE(harness.server().Start().ok());
  runner.join();

  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace.value().CheckConsistent().ok())
      << trace.value().CheckConsistent().ToString();
  EXPECT_GE(trace.value().total_retries, 1);
  EXPECT_EQ(trace.value().total_tuples,
            static_cast<int64_t>(harness.customer().num_rows()));
  EXPECT_EQ(rows, harness.customer().rows());
}

TEST(DrainTest, SequencedSoapSurvivesADrainedRestartExactlyOnce) {
  // The SOAP twin, with default client options: every live SOAP block
  // request carries blockSeq, so the replay cache protects SOAP clients
  // through the drained restart too.
  net::WsqServerOptions options;  // service-time sim ON
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(harness.MakeSetup());
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

  EXPECT_TRUE(harness.server().Drain(5.0)) << "drain did not finish cleanly";
  ASSERT_TRUE(harness.server().Start().ok());
  runner.join();

  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_GE(trace.value().total_retries, 1);
  const std::vector<Tuple> expected = harness.WireRows();
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(rows[i] == expected[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace wsq
