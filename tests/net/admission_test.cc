#include "wsq/net/admission.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "live_test_util.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/fault/fault_plan.h"
#include "wsq/fault/resilience_policy.h"
#include "wsq/net/frame.h"
#include "wsq/net/socket.h"
#include "wsq/soap/envelope.h"
#include "wsq/soap/message.h"

namespace wsq {
namespace {

// ---------------------------------------------------------------------------
// TokenBucket: refill timing is deterministic because the clock is an
// argument — no sleeps, no flakes.
// ---------------------------------------------------------------------------

TEST(TokenBucketTest, DefaultConstructedAdmitsEverything) {
  net::TokenBucket bucket;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(/*now_micros=*/42));
  }
}

TEST(TokenBucketTest, BurstDrainsThenSteadyRateRefills) {
  // 2 tokens/second, burst of 3, starting full.
  net::TokenBucket bucket(/*rate_per_sec=*/2.0, /*burst=*/3.0);
  const int64_t t0 = 1'000'000;
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_FALSE(bucket.TryAcquire(t0)) << "burst exhausted";

  // At 2 tokens/second one token takes 500ms to come back: 1 microsecond
  // before the refill instant the acquire must still fail, at it (plus a
  // float-friendly microsecond) it must succeed — and only once.
  EXPECT_FALSE(bucket.TryAcquire(t0 + 499'999));
  EXPECT_TRUE(bucket.TryAcquire(t0 + 500'001));
  EXPECT_FALSE(bucket.TryAcquire(t0 + 500'001));
}

TEST(TokenBucketTest, RefillIsCappedAtBurst) {
  net::TokenBucket bucket(/*rate_per_sec=*/10.0, /*burst=*/2.0);
  const int64_t t0 = 5'000'000;
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_FALSE(bucket.TryAcquire(t0));
  // An hour of idle refills to the burst cap, not to rate * elapsed.
  const int64_t an_hour_later = t0 + 3'600'000'000ll;
  EXPECT_TRUE(bucket.TryAcquire(an_hour_later));
  EXPECT_TRUE(bucket.TryAcquire(an_hour_later));
  EXPECT_FALSE(bucket.TryAcquire(an_hour_later));
}

TEST(TokenBucketTest, BurstDefaultsToAtLeastOneToken) {
  // rate < 1/s with an unset burst must still admit the first acquire —
  // a bucket that can never hold a whole token admits nobody, ever.
  net::TokenBucket bucket(/*rate_per_sec=*/0.25, /*burst=*/0.0);
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(4'000'001));  // 4s later: one token back
}

// ---------------------------------------------------------------------------
// Wire-level admission behavior.
// ---------------------------------------------------------------------------

/// Polls `pred` for up to `timeout_ms` — accept handling is asynchronous
/// (the event loop registers connections after TcpConnect returns), so
/// tests wait for the loop's view to catch up instead of sleeping blind.
bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 3000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// One framed request/response exchange over a raw socket that has
/// already sent its Hello (RawHello).
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

bool IsRetryableFault(const net::Frame& frame) {
  return frame.type == net::FrameType::kResponse &&
         (frame.flags & net::kFrameFlagSoapFault) != 0 &&
         (frame.flags & net::kFrameFlagTransientFault) != 0;
}

TEST(AdmissionControlTest, MaxConnectionsRejectsOverflowWithRetryableFault) {
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.admission.max_connections = 2;
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());

  // Two idle connections fill the cap. TcpConnect returns at SYN-ACK
  // time (kernel backlog), so wait for the loop to actually admit them.
  Result<net::Socket> first =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  Result<net::Socket> second =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(WaitFor(
      [&] { return harness.server().live_connections() == 2; }));

  // The third connection is accepted (so it can be *told* no) but
  // marked rejecting; its first request is answered with the same
  // transient-fault frame chaos injection uses — client-side that is a
  // retryable kUnavailable, not an error — and then the server hangs up.
  Result<net::Socket> third =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(third.ok());
  third.value().set_io_timeout_ms(3000.0);
  ASSERT_TRUE(RawHello(third.value()).ok());
  Result<net::Frame> response =
      Exchange(third.value(), OpenCustomerSession());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(IsRetryableFault(response.value()));
  EXPECT_EQ(harness.server().connections_rejected(), 1);

  Result<net::Frame> after_close = net::ReadFrame(third.value());
  ASSERT_FALSE(after_close.ok());
  EXPECT_EQ(after_close.status().code(), StatusCode::kUnavailable);

  // Admitted connections still work: the cap rejected, it did not harm.
  first.value().set_io_timeout_ms(3000.0);
  ASSERT_TRUE(RawHello(first.value()).ok());
  Result<net::Frame> served =
      Exchange(first.value(), OpenCustomerSession());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_FALSE(IsRetryableFault(served.value()));
}

TEST(AdmissionControlTest, HelloIsStillAnsweredOnARejectingConnection) {
  // A fault frame in answer to Hello would fail the client's connect
  // as a protocol error, so a rejecting connection must complete the
  // handshake normally and only fault the first *request* — which the
  // client reads as retryable backpressure.
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.admission.max_connections = 1;
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());

  Result<net::Socket> holder =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(holder.ok());
  ASSERT_TRUE(WaitFor(
      [&] { return harness.server().live_connections() == 1; }));

  Result<net::Socket> rejected =
      net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
  ASSERT_TRUE(rejected.ok());
  rejected.value().set_io_timeout_ms(3000.0);

  net::Frame hello;
  hello.type = net::FrameType::kHello;
  hello.payload = "binary,soap";
  ASSERT_TRUE(net::WriteFrame(rejected.value(), hello).ok());
  Result<net::Frame> ack = net::ReadFrame(rejected.value());
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack.value().type, net::FrameType::kHelloAck);

  Result<net::Frame> faulted =
      Exchange(rejected.value(), OpenCustomerSession());
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_TRUE(IsRetryableFault(faulted.value()));
}

TEST(AdmissionControlTest, RateLimitRejectsBeyondTheBurst) {
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  // 2-connection burst and a refill so slow (1 token per ~17 minutes)
  // that no token comes back within the test.
  options.admission.rate_limit_per_sec = 0.001;
  options.admission.rate_limit_burst = 2.0;
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());

  std::vector<net::Socket> conns;
  for (int i = 0; i < 3; ++i) {
    Result<net::Socket> conn =
        net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
    ASSERT_TRUE(conn.ok());
    conn.value().set_io_timeout_ms(3000.0);
    conns.push_back(std::move(conn).value());
  }
  ASSERT_TRUE(
      WaitFor([&] { return harness.server().rate_limited() == 1; }));

  // Exactly one of the three (whichever the loop admitted third) was
  // rejected; the others exchange normally.
  int faulted = 0;
  int served = 0;
  for (net::Socket& conn : conns) {
    ASSERT_TRUE(RawHello(conn).ok());
    Result<net::Frame> response = Exchange(conn, OpenCustomerSession());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (IsRetryableFault(response.value())) {
      ++faulted;
    } else {
      ++served;
    }
  }
  EXPECT_EQ(faulted, 1);
  EXPECT_EQ(served, 2);
  EXPECT_EQ(harness.server().rate_limited(), 1);
  EXPECT_EQ(harness.server().connections_rejected(), 0);
}

TEST(AdmissionControlTest, ShedUnderWatermarkIsRetryableBackpressure) {
  // A scripted 400ms server stall occupies one dispatch slot; with a
  // shed watermark of 1, every request arriving during the stall is
  // answered with the retryable backpressure fault instead of queueing.
  // A chaos-policy client must ride the sheds out with retries and
  // still deliver the full result — shedding is backpressure, not an
  // error.
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

  std::atomic<bool> stall_requested{false};
  std::thread staller([&] {
    Result<net::Socket> conn =
        net::TcpConnect("127.0.0.1", harness.port(), 2000.0);
    ASSERT_TRUE(conn.ok());
    conn.value().set_io_timeout_ms(5000.0);
    ASSERT_TRUE(RawHello(conn.value()).ok());
    Result<net::Frame> opened =
        Exchange(conn.value(), OpenCustomerSession());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Result<XmlNode> envelope = ParseEnvelope(opened.value().payload);
    ASSERT_TRUE(envelope.ok());
    Result<OpenSessionResponse> session =
        DecodeOpenSessionResponse(envelope.value());
    ASSERT_TRUE(session.ok());

    RequestBlockRequest block;
    block.session_id = session.value().session_id;
    block.block_size = 100;
    block.sequence = 0;
    stall_requested.store(true);
    // This dispatch sits in the injected stall for 400ms; the response
    // still arrives afterwards (the stall is a slowdown, not a fault).
    Result<net::Frame> response =
        Exchange(conn.value(), EncodeRequestBlock(block));
    EXPECT_TRUE(response.ok()) << response.status().ToString();
  });

  ASSERT_TRUE(WaitFor([&] { return stall_requested.load(); }));
  // Give the loop a beat to hand the stalled request to a worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  LiveBackend live(harness.MakeSetup());
  FixedController controller(500);
  ResilienceConfig chaos = ResilienceConfig::Chaos();
  RunSpec spec;
  spec.resilience = &chaos;
  std::vector<Tuple> rows;
  Result<RunTrace> trace =
      live.RunQueryKeepingTuples(&controller, spec, &rows);
  staller.join();

  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(rows.size(), harness.WireRows().size());
  EXPECT_GT(harness.server().sheds(), 0);
}

}  // namespace
}  // namespace wsq
