// The transport-chaos conformance matrix: every NetFaultPlan preset,
// through the in-process ChaosProxy, against both negotiated codecs,
// with the client running the Chaos() resilience policy plus the crc
// feature. The contract under every scenario is the same:
// the query terminates within a hard wall-clock bound (no hangs) and
// delivers every tuple exactly once, in order — transport chaos may
// cost time, never data.

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "live_test_util.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/fault/fault_plan.h"
#include "wsq/fault/net_fault_plan.h"
#include "wsq/fault/resilience_policy.h"
#include "wsq/net/chaosproxy.h"
#include "wsq/net/socket.h"
#include "wsq/soap/envelope.h"
#include "wsq/soap/message.h"

namespace wsq {
namespace {

/// Hard per-scenario bound. The worst presets (blackhole: two ~2 s
/// handshake deadlines; halfopen: two ~2 s read deadlines) cost a few
/// seconds plus backoff; anything near the bound is a hang.
constexpr double kScenarioWallBoundMs = 30000.0;

struct Scenario {
  std::string plan;
  codec::CodecKind codec;
};

std::vector<Scenario> Matrix() {
  std::vector<Scenario> out;
  for (const std::string& plan : NetFaultPlan::KnownNames()) {
    for (const codec::CodecKind kind :
         {codec::CodecKind::kSoap, codec::CodecKind::kBinary}) {
      out.push_back({plan, kind});
    }
  }
  return out;
}

void RunScenario(const Scenario& scenario) {
  SCOPED_TRACE("plan=" + scenario.plan + " codec=" +
               std::string(codec::CodecKindName(scenario.codec)));

  net::WsqServerOptions server_options = LiveServerHarness::QuickOptions();
  server_options.codec.kind = codec::CodecKind::kBinary;  // richest offer
  LiveServerHarness harness(server_options);
  ASSERT_TRUE(harness.start_status().ok());

  net::ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = harness.port();
  proxy_options.plan = NetFaultPlan::FromName(scenario.plan).value();
  net::ChaosProxy proxy(std::move(proxy_options));
  ASSERT_TRUE(proxy.Start().ok());

  LiveSetup setup = harness.MakeSetup();
  setup.port = proxy.port();  // every byte through the chaos
  setup.client_options.codec.kind = scenario.codec;
  setup.client_options.enable_crc = true;

  LiveBackend live(setup);
  FixedController controller(40);
  ResilienceConfig chaos = ResilienceConfig::Chaos();
  RunSpec spec;
  spec.resilience = &chaos;

  std::vector<Tuple> rows;
  const auto t0 = std::chrono::steady_clock::now();
  Result<RunTrace> trace = live.RunQueryKeepingTuples(&controller, spec, &rows);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  // No hangs: the scenario terminates well inside the bound.
  EXPECT_LT(elapsed_ms, kScenarioWallBoundMs);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace.value().CheckConsistent().ok())
      << trace.value().CheckConsistent().ToString();

  // Exactly-once, in order: binary delivers bit-exact rows; SOAP
  // delivers the wire round-trip (2-decimal doubles) — in both cases
  // every row, no dupes, no holes.
  const std::vector<Tuple> expected =
      scenario.codec == codec::CodecKind::kBinary
          ? harness.customer().rows()
          : harness.WireRows();
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(rows[i] == expected[i]) << "row " << i;
  }
  proxy.Stop();
}

TEST(NetChaosMatrixTest, NonePreset) {
  for (const Scenario& s : Matrix()) {
    if (s.plan == "none") RunScenario(s);
  }
}

TEST(NetChaosMatrixTest, LatencyPreset) {
  for (const Scenario& s : Matrix()) {
    if (s.plan == "latency") RunScenario(s);
  }
}

TEST(NetChaosMatrixTest, BandwidthPreset) {
  for (const Scenario& s : Matrix()) {
    if (s.plan == "bandwidth") RunScenario(s);
  }
}

TEST(NetChaosMatrixTest, TricklePreset) {
  for (const Scenario& s : Matrix()) {
    if (s.plan == "trickle") RunScenario(s);
  }
}

TEST(NetChaosMatrixTest, ResetPreset) {
  for (const Scenario& s : Matrix()) {
    if (s.plan == "reset") RunScenario(s);
  }
}

TEST(NetChaosMatrixTest, BlackholePreset) {
  for (const Scenario& s : Matrix()) {
    if (s.plan == "blackhole") RunScenario(s);
  }
}

TEST(NetChaosMatrixTest, HalfopenPreset) {
  for (const Scenario& s : Matrix()) {
    if (s.plan == "halfopen") RunScenario(s);
  }
}

TEST(NetChaosMatrixTest, CorruptPreset) {
  for (const Scenario& s : Matrix()) {
    if (s.plan == "corrupt") RunScenario(s);
  }
}

TEST(NetChaosMatrixTest, MatrixCoversEveryKnownPreset) {
  // The per-preset tests above are spelled out so a failure names its
  // scenario; this guard fails the suite if a new preset is added
  // without joining the matrix.
  const std::vector<std::string> known = NetFaultPlan::KnownNames();
  const std::vector<std::string> covered = {
      "none",  "latency",   "bandwidth", "trickle",
      "reset", "blackhole", "halfopen",  "corrupt"};
  EXPECT_EQ(known, covered);
}

TEST(NetChaosMatrixTest, CorruptedFramesAreCountedAndRetriedWithCrc) {
  // Focused CRC-path check: aggressive corruption (p=1, budget 6,
  // handshake window skipped) with crc negotiated. The query still
  // delivers exactly-once, and at least one corruption was actually
  // caught by a checksum somewhere (client or server side) or by
  // framing — the proxy's budget being spent proves bytes were flipped.
  net::WsqServerOptions server_options = LiveServerHarness::QuickOptions();
  server_options.codec.kind = codec::CodecKind::kBinary;
  LiveServerHarness harness(server_options);
  ASSERT_TRUE(harness.start_status().ok());

  NetFaultPlan plan;
  plan.name = "corrupt-hard";
  plan.seed = 7;
  plan.corrupt_probability = 1.0;
  plan.corrupt_max = 6;
  plan.corrupt_skip_bytes = 512;
  net::ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = harness.port();
  proxy_options.plan = plan;
  net::ChaosProxy proxy(std::move(proxy_options));
  ASSERT_TRUE(proxy.Start().ok());

  LiveSetup setup = harness.MakeSetup();
  setup.port = proxy.port();
  setup.client_options.codec.kind = codec::CodecKind::kBinary;
  setup.client_options.enable_crc = true;

  LiveBackend live(setup);
  FixedController controller(40);
  ResilienceConfig chaos = ResilienceConfig::Chaos();
  RunSpec spec;
  spec.resilience = &chaos;

  std::vector<Tuple> rows;
  Result<RunTrace> trace = live.RunQueryKeepingTuples(&controller, spec, &rows);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(proxy.bytes_corrupted(), 6);
  ASSERT_EQ(rows.size(), harness.customer().num_rows());
  EXPECT_EQ(rows, harness.customer().rows());
  proxy.Stop();
}

// ---------------------------------------------------------------------------
// Admission control through the chaos proxy: the server's protective
// rejections must stay *retryable backpressure* when the network is
// also misbehaving — never silent drops, never data loss.
// ---------------------------------------------------------------------------

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 3000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

TEST(AdmissionThroughChaosTest, RateLimitedConnectIsRiddenOutOverLatency) {
  // Two direct connections burn the whole admission bucket just before
  // the real client (routed through a latency proxy) arrives. Its first
  // connection is rate-limited — answered with the retryable transient
  // fault — and the chaos policy's backoff outlasts the token refill,
  // so the query still delivers everything exactly once.
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.admission.rate_limit_per_sec = 2.0;  // one token per 500ms
  options.admission.rate_limit_burst = 2.0;
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());

  net::ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = harness.port();
  proxy_options.plan = NetFaultPlan::FromName("latency").value();
  net::ChaosProxy proxy(std::move(proxy_options));
  ASSERT_TRUE(proxy.Start().ok());

  Result<net::Socket> burner1 =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  Result<net::Socket> burner2 =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(burner1.ok() && burner2.ok());
  ASSERT_TRUE(
      WaitFor([&] { return harness.server().live_connections() == 2; }));

  LiveSetup setup = harness.MakeSetup();
  setup.port = proxy.port();
  setup.client_options.enable_crc = true;
  LiveBackend live(setup);
  FixedController controller(200);
  ResilienceConfig chaos = ResilienceConfig::Chaos();
  RunSpec spec;
  spec.resilience = &chaos;

  std::vector<Tuple> rows;
  Result<RunTrace> trace = live.RunQueryKeepingTuples(&controller, spec, &rows);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_GE(harness.server().rate_limited(), 1);

  const std::vector<Tuple> expected = harness.WireRows();
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(rows[i] == expected[i]) << "row " << i;
  }
  proxy.Stop();
}

TEST(AdmissionThroughChaosTest, ShedsUnderTrickleAreRetryableNotSilent) {
  // A scripted 400ms stall pins the only tolerated dispatch slot
  // (shed watermark 1) while the chaos client fetches through a
  // trickling proxy. Requests landing during the stall are shed with
  // the retryable backpressure fault; the trickle stretches every
  // exchange; the client still assembles the full table exactly once.
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.admission.shed_queue_watermark = 1;
  FaultSpec stall;
  stall.kind = FaultKind::kServerStall;
  stall.first_block = 0;
  stall.last_block = 0;
  stall.stall_ms = 400.0;
  options.fault_plan.specs.push_back(stall);
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());

  net::ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = harness.port();
  proxy_options.plan = NetFaultPlan::FromName("trickle").value();
  net::ChaosProxy proxy(std::move(proxy_options));
  ASSERT_TRUE(proxy.Start().ok());

  std::atomic<bool> stall_requested{false};
  std::thread staller([&] {
    Result<net::Socket> conn =
        net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
    ASSERT_TRUE(conn.ok());
    conn.value().set_io_timeout_ms(5000.0);
    ASSERT_TRUE(RawHello(conn.value()).ok());
    net::Frame open;
    open.type = net::FrameType::kRequest;
    OpenSessionRequest open_request;
    open_request.table = "customer";
    open.payload = EncodeOpenSession(open_request);
    ASSERT_TRUE(net::WriteFrame(conn.value(), open).ok());
    Result<net::Frame> opened = net::ReadFrame(conn.value());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Result<XmlNode> envelope = ParseEnvelope(opened.value().payload);
    ASSERT_TRUE(envelope.ok());
    Result<OpenSessionResponse> session =
        DecodeOpenSessionResponse(envelope.value());
    ASSERT_TRUE(session.ok());

    RequestBlockRequest block;
    block.session_id = session.value().session_id;
    block.block_size = 100;
    net::Frame fetch;
    fetch.type = net::FrameType::kRequest;
    fetch.payload = EncodeRequestBlock(block);
    stall_requested.store(true);
    ASSERT_TRUE(net::WriteFrame(conn.value(), fetch).ok());
    Result<net::Frame> response = net::ReadFrame(conn.value());
    EXPECT_TRUE(response.ok()) << response.status().ToString();
  });

  ASSERT_TRUE(WaitFor([&] { return stall_requested.load(); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  LiveSetup setup = harness.MakeSetup();
  setup.port = proxy.port();
  setup.client_options.enable_crc = true;
  LiveBackend live(setup);
  FixedController controller(500);
  ResilienceConfig chaos = ResilienceConfig::Chaos();
  RunSpec spec;
  spec.resilience = &chaos;
  std::vector<Tuple> rows;
  Result<RunTrace> trace = live.RunQueryKeepingTuples(&controller, spec, &rows);
  staller.join();

  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_GT(harness.server().sheds(), 0);
  const std::vector<Tuple> expected = harness.WireRows();
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(rows[i] == expected[i]) << "row " << i;
  }
  proxy.Stop();
}

}  // namespace
}  // namespace wsq
