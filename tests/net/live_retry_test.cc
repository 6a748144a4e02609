#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "live_test_util.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/fault/fault_plan.h"
#include "wsq/fault/resilience_policy.h"

namespace wsq {
namespace {

/// A harness whose wsqd-style server replays `plan` per session.
net::WsqServerOptions FaultyOptions(const char* plan_name) {
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.fault_plan = FaultPlan::FromName(plan_name).value();
  return options;
}

TEST(LiveRetryTest, LegacyRetryBudgetExhaustsOnServerSideBurst) {
  // "burst" fails three consecutive attempts on each block of two
  // windows by closing the TCP connection before dispatch. The legacy
  // policy (2 retries = 3 attempts) burns its whole budget on the first
  // burst block and the run fails as transient.
  LiveServerHarness harness(FaultyOptions("burst"));
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(harness.MakeSetup());
  FixedController controller(100);
  ResilienceConfig legacy = ResilienceConfig::Legacy();
  RunSpec spec;
  spec.resilience = &legacy;

  Result<RunTrace> trace = live.RunQuery(&controller, spec);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(harness.server().faults_injected(), 0);
}

TEST(LiveRetryTest, ChaosPolicyDrainsTheBurstAndDeliversEveryTuple) {
  // Same server-side burst; the chaos config's deeper budget (6 retries
  // per call) outlasts every 3-fault window. The client reconnects
  // after each injected close and — because fault state is keyed by
  // *session*, not connection — resumes the schedule at the same block,
  // so the full table still arrives exactly once, in order.
  LiveServerHarness harness(FaultyOptions("burst"));
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(harness.MakeSetup());
  FixedController controller(100);
  ResilienceConfig chaos = ResilienceConfig::Chaos();
  RunSpec spec;
  spec.resilience = &chaos;

  std::vector<Tuple> rows;
  Result<RunTrace> trace =
      live.RunQueryKeepingTuples(&controller, spec, &rows);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace.value().CheckConsistent().ok())
      << trace.value().CheckConsistent().ToString();

  const std::vector<Tuple> expected = harness.WireRows();
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(rows[i] == expected[i]) << "row " << i;
  }
  // Two 3-fault windows over blocks 2-5 and 12-15: at least a dozen
  // injected failures were retried through, every one of them real
  // reconnect work with its dead time on the clock.
  EXPECT_GE(trace.value().total_retries, 12);
  EXPECT_GT(trace.value().total_retry_time_ms, 0.0);
  EXPECT_GE(harness.server().faults_injected(), 12);
}

TEST(LiveRetryTest, ChaosPolicySurvivesAServerRestartMidQuery) {
  // Kill the server in the middle of a pull loop, bring it back, and the
  // chaos policy's backoff schedule rides out the outage: Stop tears
  // down the frontend but leaves DataService sessions intact, so the
  // reconnected client resumes its own half-finished query. Default
  // client options (SOAP): every block request is sequenced, so even a
  // kill between a dispatch and its response write costs no block.
  net::WsqServerOptions options;  // service-time sim ON: paces the run
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

  // Wait until the query is demonstrably mid-flight, then restart.
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
  // Exact delivery: every row once, in order.
  EXPECT_EQ(trace.value().total_tuples,
            static_cast<int64_t>(harness.customer().num_rows()));
  const std::vector<Tuple> expected = harness.WireRows();
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(rows[i] == expected[i]) << "row " << i;
  }
}

TEST(LiveRetryTest, DeadlineCapsAServerStallOnTheWire) {
  // "stall" makes the server sit on each of blocks 4-7 for 200 ms before
  // dispatching. A 120 ms per-call deadline becomes a real socket
  // timeout: the client abandons each stalled exchange at ~120 ms and
  // retries on a fresh connection. The stalled handler notices the
  // abandoned socket *before* dispatching, so the cursor never advances
  // and the retry delivers the block intact — each stall costs the
  // deadline, not the stall.
  LiveServerHarness harness(FaultyOptions("stall"));
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(harness.MakeSetup());
  FixedController controller(200);  // blocks 0-7; stalls hit 4,5,6,7
  ResilienceConfig config;
  config.max_retries_per_call = 3;
  config.deadline_base_ms = 120.0;
  RunSpec spec;
  spec.resilience = &config;

  std::vector<Tuple> rows;
  Result<RunTrace> trace =
      live.RunQueryKeepingTuples(&controller, spec, &rows);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace.value().CheckConsistent().ok());

  // Nothing lost: the stall is a perturbation that fires once per block,
  // and the abandoned attempts never advanced the cursor.
  ASSERT_EQ(rows.size(), harness.customer().num_rows());
  EXPECT_EQ(trace.value().total_retries, 4);

  // The dead time shows the deadline at work: four abandoned waits of
  // ~120 ms each — well under what four full 200 ms stalls would cost,
  // and at least the deadline apiece (the client really waited).
  EXPECT_GE(trace.value().total_retry_time_ms, 4 * 100.0);
  EXPECT_LT(trace.value().total_retry_time_ms, 4 * 200.0);
}

}  // namespace
}  // namespace wsq
