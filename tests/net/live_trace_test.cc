// The distributed-tracing extension over the real TCP transport:
// handshake gating, server-span round trip and clock-aligned
// correlation, the kStats telemetry plane, and extension-free frames
// for peers that never asked for any of it.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "live_test_util.h"
#include "support/json_check.h"
#include "wsq/client/tcp_ws_client.h"
#include "wsq/codec/codec.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/net/frame.h"
#include "wsq/net/socket.h"
#include "wsq/obs/metrics.h"
#include "wsq/obs/run_observer.h"
#include "wsq/obs/trace.h"
#include "wsq/soap/envelope.h"
#include "wsq/soap/message.h"

namespace wsq {
namespace {

net::WsqServerOptions BinaryServerOptions() {
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.codec = codec::CodecChoice{codec::CodecKind::kBinary, false};
  return options;
}

LiveSetup TracedSetup(const LiveServerHarness& harness,
                      codec::CodecKind kind = codec::CodecKind::kBinary) {
  LiveSetup setup = harness.MakeSetup();
  setup.client_options.codec = codec::CodecChoice{kind, false};
  setup.client_options.enable_tracing = true;
  return setup;
}

/// Pulls the value of a hex-string arg ("key":"0123...") out of an
/// event's pre-rendered args JSON; empty when absent.
std::string HexArg(const std::string& args_json, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = args_json.find(needle);
  if (at == std::string::npos) return {};
  const size_t start = at + needle.size();
  const size_t end = args_json.find('"', start);
  if (end == std::string::npos) return {};
  return args_json.substr(start, end - start);
}

TEST(LiveTraceTest, ServerSpansCorrelateWithClientBlocksAfterAlignment) {
  // The acceptance shape: every client block span must have a
  // same-trace server.request child landing within it (clock-aligned).
  LiveServerHarness harness(BinaryServerOptions());
  ASSERT_TRUE(harness.start_status().ok());

  MetricsRegistry metrics;
  Tracer tracer;
  RunObserver observer(&metrics, &tracer);
  LiveBackend live(TracedSetup(harness));
  FixedController controller(200);
  RunSpec spec;
  spec.observer = &observer;
  Result<RunTrace> trace = live.RunQuery(&controller, spec);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  EXPECT_GE(harness.server().trace_connections(), 1);
  EXPECT_GT(metrics.GetCounter("wsq.server.remote_spans_total")->value(), 0);

  const std::vector<TraceEvent> events = tracer.events();
  std::vector<const TraceEvent*> blocks;
  std::vector<const TraceEvent*> server_roots;
  for (const TraceEvent& event : events) {
    if (event.name == "block_request" &&
        !HexArg(event.args_json, "trace_id").empty()) {
      blocks.push_back(&event);
    }
    if (event.name == "server.request") {
      EXPECT_EQ(event.tid, TraceLane::kRemoteServer);
      server_roots.push_back(&event);
    }
  }
  ASSERT_GT(blocks.size(), 0u);
  ASSERT_GE(server_roots.size(), blocks.size());  // + session open/close

  // Loopback clocks share a domain, but the estimator still ran; allow
  // a small slack for scheduling noise on a loaded CI box.
  const int64_t slack = 5000;  // 5 ms
  for (const TraceEvent* block : blocks) {
    const std::string trace_id = HexArg(block->args_json, "trace_id");
    const std::string span_id = HexArg(block->args_json, "span_id");
    ASSERT_EQ(trace_id.size(), 16u);
    const TraceEvent* child = nullptr;
    for (const TraceEvent* server : server_roots) {
      if (HexArg(server->args_json, "trace_id") == trace_id &&
          HexArg(server->args_json, "parent_span_id") == span_id) {
        child = server;
        break;
      }
    }
    ASSERT_NE(child, nullptr)
        << "block span " << span_id << " of trace " << trace_id
        << " has no correlated server.request";
    EXPECT_GE(child->ts_micros, block->ts_micros - slack);
    EXPECT_LE(child->ts_micros + child->dur_micros,
              block->ts_micros + block->dur_micros + slack);
  }
}

TEST(LiveTraceTest, SimulatedServiceTimeShowsAsAServiceSleepSpan) {
  net::WsqServerOptions options = BinaryServerOptions();
  options.simulate_service_time = true;
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());

  Tracer tracer;
  RunObserver observer(nullptr, &tracer);
  LiveBackend live(TracedSetup(harness));
  FixedController controller(500);
  RunSpec spec;
  spec.observer = &observer;
  Result<RunTrace> trace = live.RunQuery(&controller, spec);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  // Every block pays a modelled service time, slept on the server and
  // reported as a child of that request's server.request span.
  int64_t sleeps = 0;
  for (const TraceEvent& event : tracer.events()) {
    if (event.name != "server.service_sleep") continue;
    ++sleeps;
    EXPECT_EQ(event.tid, TraceLane::kRemoteServer);
    EXPECT_GT(event.dur_micros, 0);
    EXPECT_FALSE(HexArg(event.args_json, "parent_span_id").empty());
  }
  EXPECT_GE(sleeps, trace.value().total_blocks);
}

TEST(LiveTraceTest, SoapClientNegotiatesTracingViaForcedHandshake) {
  // Tracing rides the Hello on a SOAP client too: the codec stays
  // SOAP, the spans still flow.
  LiveServerHarness harness;  // codec defaults to soap
  ASSERT_TRUE(harness.start_status().ok());

  MetricsRegistry metrics;
  Tracer tracer;
  RunObserver observer(&metrics, &tracer);
  LiveBackend live(TracedSetup(harness, codec::CodecKind::kSoap));
  FixedController controller(200);
  RunSpec spec;
  spec.observer = &observer;
  std::vector<Tuple> rows;
  Result<RunTrace> trace =
      live.RunQueryKeepingTuples(&controller, spec, &rows);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(rows, harness.WireRows());  // the data path is untouched
  EXPECT_GE(harness.server().trace_connections(), 1);
  EXPECT_GT(metrics.GetCounter("wsq.server.remote_spans_total")->value(), 0);
}

TEST(LiveTraceTest, NonTracingSoapClientSendsNoTraceBytesOnTheWire) {
  // Asserted at the socket: a SOAP client without tracing opens with a
  // Hello advertising exactly "soap" with no flags, then sends a bare
  // 20-byte header + payload — flags zero, no extension bytes.
  Result<net::Socket> listener = net::TcpListen(0);
  ASSERT_TRUE(listener.ok());
  Result<int> port = net::LocalPort(listener.value());
  ASSERT_TRUE(port.ok());

  std::thread peer([&] {
    Result<net::Socket> conn = net::Accept(listener.value(), 5000.0);
    ASSERT_TRUE(conn.ok());
    Result<net::Frame> hello = net::ReadFrame(conn.value());
    ASSERT_TRUE(hello.ok()) << hello.status().ToString();
    EXPECT_EQ(hello.value().type, net::FrameType::kHello);
    EXPECT_EQ(hello.value().payload, "soap");
    EXPECT_EQ(hello.value().flags, 0);
    net::Frame ack;
    ack.type = net::FrameType::kHelloAck;
    ack.payload = "soap";
    ASSERT_TRUE(WriteFrame(conn.value(), ack).ok());

    char header[net::kFrameHeaderBytes];
    ASSERT_TRUE(net::ReadExact(conn.value(), header, sizeof(header)).ok());
    Result<net::FrameHeader> decoded = net::DecodeFrameHeader(header);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().type, net::FrameType::kRequest);
    EXPECT_EQ(decoded.value().flags, 0);
    std::string payload(decoded.value().payload_len, '\0');
    ASSERT_TRUE(
        net::ReadExact(conn.value(), payload.data(), payload.size()).ok());
    EXPECT_EQ(payload, "<doc/>");
    net::Frame response;
    response.type = net::FrameType::kResponse;
    response.payload = "ok";
    EXPECT_TRUE(WriteFrame(conn.value(), response).ok());
  });

  TcpWsClientOptions options;
  options.connect_timeout_ms = 2000.0;
  TcpWsClient client("127.0.0.1", port.value(), options);
  Result<CallResult> result = client.Call("<doc/>");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().response, "ok");
  EXPECT_FALSE(client.TracingNegotiated());
  peer.join();
}

TEST(LiveTraceTest, ServerWithoutTraceAckDisablesClientTracing) {
  // A server whose HelloAck does not carry the trace flag has not
  // granted tracing: the client must keep its request frames clean.
  Result<net::Socket> listener = net::TcpListen(0);
  ASSERT_TRUE(listener.ok());
  Result<int> port = net::LocalPort(listener.value());
  ASSERT_TRUE(port.ok());

  std::thread peer([&] {
    Result<net::Socket> conn = net::Accept(listener.value(), 5000.0);
    ASSERT_TRUE(conn.ok());
    Result<net::Frame> hello = net::ReadFrame(conn.value());
    ASSERT_TRUE(hello.ok());
    EXPECT_EQ(hello.value().type, net::FrameType::kHello);
    // The client asked for tracing with the Hello's flag...
    EXPECT_TRUE(hello.value().has_trace);
    EXPECT_EQ(hello.value().payload, "binary,soap");
    net::Frame ack;
    ack.type = net::FrameType::kHelloAck;
    ack.payload = "binary";  // ...but this ack does not grant it
    ASSERT_TRUE(WriteFrame(conn.value(), ack).ok());
    Result<net::Frame> request = net::ReadFrame(conn.value());
    ASSERT_TRUE(request.ok());
    EXPECT_FALSE(request.value().has_trace);
    net::Frame response;
    response.type = net::FrameType::kResponse;
    response.payload = "ok";
    EXPECT_TRUE(WriteFrame(conn.value(), response).ok());
  });

  TcpWsClientOptions options;
  options.connect_timeout_ms = 2000.0;
  options.codec = codec::CodecChoice{codec::CodecKind::kBinary, false};
  options.enable_tracing = true;
  TcpWsClient client("127.0.0.1", port.value(), options);
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.wire_codec(), codec::CodecKind::kBinary);
  EXPECT_FALSE(client.TracingNegotiated());
  client.SetNextCallTrace(1, 2);  // must be ignored without negotiation
  Result<CallResult> result = client.Call("<doc/>");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  peer.join();
}

TEST(LiveTraceTest, HelloFlagsGrantOnlyVerifiedAndRequestedFeatures) {
  // Features are negotiated by the Hello and HelloAck frames' flags.
  // Server side, on raw sockets: CRC is granted only to a Hello whose
  // trailer verified, and the ack carries exactly the flags asked for.
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());
  const auto hello_ack = [&](bool crc, bool trace, bool corrupt,
                             Result<net::Frame>* ack) {
    Result<net::Socket> conn =
        net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
    ASSERT_TRUE(conn.ok());
    conn.value().set_io_timeout_ms(5000.0);
    net::Frame hello;
    hello.type = net::FrameType::kHello;
    hello.payload = "soap";
    hello.has_crc = crc;
    hello.has_trace = trace;
    std::string wire;
    ASSERT_TRUE(net::AppendFrameBytes(hello, &wire).ok());
    if (corrupt) wire.back() ^= 0x01;  // the CRC trailer's last byte
    ASSERT_TRUE(net::WriteAll(conn.value(), wire.data(), wire.size()).ok());
    *ack = net::ReadFrame(conn.value());
  };

  Result<net::Frame> plain = Status::Ok();
  hello_ack(/*crc=*/false, /*trace=*/false, /*corrupt=*/false, &plain);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain.value().type, net::FrameType::kHelloAck);
  EXPECT_EQ(plain.value().payload, "soap");
  EXPECT_EQ(plain.value().flags, 0);

  Result<net::Frame> checked = Status::Ok();
  hello_ack(/*crc=*/true, /*trace=*/false, /*corrupt=*/false, &checked);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_EQ(checked.value().payload, "soap");
  EXPECT_TRUE(checked.value().has_crc);
  EXPECT_FALSE(checked.value().has_trace);

  const int64_t traced_before = harness.server().trace_connections();
  Result<net::Frame> traced = Status::Ok();
  hello_ack(/*crc=*/false, /*trace=*/true, /*corrupt=*/false, &traced);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  EXPECT_EQ(traced.value().payload, "soap");
  EXPECT_TRUE(traced.value().has_trace);
  EXPECT_FALSE(traced.value().has_crc);
  EXPECT_EQ(harness.server().trace_connections(), traced_before + 1);

  // A crc flag whose trailer does not match grants nothing: the frame
  // never reaches the handshake, and the connection is dropped unacked.
  Result<net::Frame> corrupted = Status::Ok();
  hello_ack(/*crc=*/true, /*trace=*/false, /*corrupt=*/true, &corrupted);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.status().code(), StatusCode::kUnavailable)
      << corrupted.status().ToString();

  // Client side: ack flags for features the client never asked for are
  // ignored, so its requests stay free of trace context and trailers.
  Result<net::Socket> listener = net::TcpListen(0);
  ASSERT_TRUE(listener.ok());
  Result<int> port = net::LocalPort(listener.value());
  ASSERT_TRUE(port.ok());
  std::thread peer([&] {
    Result<net::Socket> conn = net::Accept(listener.value(), 5000.0);
    ASSERT_TRUE(conn.ok());
    Result<net::Frame> hello = net::ReadFrame(conn.value());
    ASSERT_TRUE(hello.ok());
    EXPECT_EQ(hello.value().flags, 0);
    net::Frame ack;
    ack.type = net::FrameType::kHelloAck;
    ack.payload = "soap";
    ack.has_trace = true;
    ack.has_crc = true;
    ASSERT_TRUE(WriteFrame(conn.value(), ack).ok());
    Result<net::Frame> request = net::ReadFrame(conn.value());
    ASSERT_TRUE(request.ok());
    EXPECT_EQ(request.value().flags, 0);
    net::Frame response;
    response.type = net::FrameType::kResponse;
    response.payload = "ok";
    EXPECT_TRUE(WriteFrame(conn.value(), response).ok());
  });

  TcpWsClientOptions options;
  options.connect_timeout_ms = 2000.0;
  TcpWsClient client("127.0.0.1", port.value(), options);
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_FALSE(client.TracingNegotiated());
  EXPECT_FALSE(client.CrcNegotiated());
  client.SetNextCallTrace(1, 2);
  Result<CallResult> result = client.Call("<doc/>");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().response, "ok");
  peer.join();
}

TEST(LiveTraceTest, FetchServerStatsReturnsSchemaValidJson) {
  LiveServerHarness harness(BinaryServerOptions());
  ASSERT_TRUE(harness.start_status().ok());

  // Drain one query so the per-session rollups have something to say.
  LiveSetup setup = harness.MakeSetup();
  setup.client_options.codec =
      codec::CodecChoice{codec::CodecKind::kBinary, false};
  LiveBackend live(setup);
  FixedController controller(300);
  ASSERT_TRUE(live.RunQuery(&controller, RunSpec{}).ok());

  Result<std::string> stats =
      net::FetchServerStats("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(harness.server().stats_requests(), 1);

  const std::string& json = stats.value();
  Status valid = CheckJson(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << json;
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"sessions\""), std::string::npos);
  EXPECT_NE(json.find("\"blocks\""), std::string::npos);
  EXPECT_NE(json.find("\"codec_mix\""), std::string::npos);
  EXPECT_NE(json.find("\"worker_queue_depth\""), std::string::npos);
  // The labeled per-session mirrors made it into the metrics section.
  EXPECT_NE(json.find("wsq.server.session.blocks{session="),
            std::string::npos);
}

/// The integer after `"key":` at or after `from` in `json`; -1 when
/// absent.
int64_t JsonIntAfter(const std::string& json, const std::string& key,
                     size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos) return -1;
  return std::stoll(json.substr(at + needle.size(), 24));
}

TEST(LiveTraceTest, SessionMirrorsEqualTheRollupByValue) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());
  TcpWsClient client("127.0.0.1", harness.port());

  OpenSessionRequest open;
  open.table = "customer";
  Result<CallResult> opened = client.Call(EncodeOpenSession(open));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const int64_t session =
      DecodeOpenSessionResponse(ParseEnvelope(opened.value().response).value())
          .value()
          .session_id;
  // Sequences 0, 0, 1, 1, 2: the repeats are answered from the replay
  // cache, so the session ends with five blocks and two replay hits.
  for (int64_t sequence : {0, 0, 1, 1, 2}) {
    RequestBlockRequest block;
    block.session_id = session;
    block.block_size = 200;
    block.sequence = sequence;
    Result<CallResult> call = client.Call(EncodeRequestBlock(block));
    ASSERT_TRUE(call.ok()) << call.status().ToString();
  }
  ASSERT_EQ(harness.server().replay_hits(), 2);

  const std::string json = harness.server().StatsJson();
  const std::string id = std::to_string(session);
  const size_t rollup = json.find("\"sessions\":{\"" + id + "\":{");
  ASSERT_NE(rollup, std::string::npos) << json;
  const int64_t blocks = JsonIntAfter(json, "blocks", rollup);
  EXPECT_EQ(blocks, 5);
  EXPECT_EQ(JsonIntAfter(json, "replay_hits", rollup), 2);
  EXPECT_EQ(JsonIntAfter(json, "count", rollup), blocks);

  const auto mirror = [&](const char* base) {
    return JsonIntAfter(json, LabeledName(base, "session", id));
  };
  EXPECT_EQ(mirror("wsq.server.session.blocks"), blocks);
  EXPECT_EQ(mirror("wsq.server.session.bytes_out"),
            JsonIntAfter(json, "bytes_out", rollup));
  EXPECT_EQ(mirror("wsq.server.session.replay_hits"),
            JsonIntAfter(json, "replay_hits", rollup));
  const size_t histogram =
      json.find(LabeledName("wsq.server.session.block_ms", "session", id));
  ASSERT_NE(histogram, std::string::npos) << json;
  EXPECT_EQ(JsonIntAfter(json, "count", histogram), blocks);
}

TEST(LiveTraceTest, StatsFrameDoesNotDisturbTheDataPath) {
  // A stats fetch against a server mid-run must not corrupt concurrent
  // exchanges (it rides its own connection).
  LiveServerHarness harness(BinaryServerOptions());
  ASSERT_TRUE(harness.start_status().ok());

  LiveSetup setup = harness.MakeSetup();
  setup.client_options.codec =
      codec::CodecChoice{codec::CodecKind::kBinary, false};
  LiveBackend live(setup);
  FixedController controller(100);
  std::vector<Tuple> rows;
  Result<RunTrace> trace = Status::Internal("not run");
  std::thread runner([&] {
    trace = live.RunQueryKeepingTuples(&controller, RunSpec{}, &rows);
  });
  for (int i = 0; i < 5; ++i) {
    Result<std::string> stats =
        net::FetchServerStats("127.0.0.1", harness.port(), 2000.0);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  }
  runner.join();
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(rows, harness.customer().rows());
  EXPECT_EQ(harness.server().stats_requests(), 5);
}

}  // namespace
}  // namespace wsq
