#include "wsq/backend/live_backend.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "live_test_util.h"
#include "wsq/backend/empirical_backend.h"
#include "wsq/control/factories.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/net/socket.h"
#include "wsq/netsim/presets.h"
#include "wsq/obs/metrics.h"
#include "wsq/obs/run_observer.h"
#include "wsq/obs/trace.h"
#include "wsq/relation/tpch_gen.h"

namespace wsq {
namespace {

/// The empirical (simulated-SOAP) backend over the *same* generated
/// table the live harness serves — the reference the live path must
/// agree with on everything deterministic.
EmpiricalBackend ReferenceBackend(double scale = 0.01, uint64_t seed = 7) {
  TpchGenOptions gen;
  gen.scale = scale;
  gen.seed = seed;
  EmpiricalSetup setup;
  setup.table = GenerateCustomer(gen).value();
  setup.query.table_name = "customer";
  setup.link = Lan1Gbps();
  setup.link.jitter_sigma = 0.0;
  setup.load.noise_sigma = 0.0;
  setup.seed = seed;
  return EmpiricalBackend(std::move(setup));
}

TEST(LiveBackendTest, ConformsToEmpiricalBackendOnAFixedController) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(harness.MakeSetup());
  EmpiricalBackend empirical = ReferenceBackend();

  FixedController live_controller(300);
  FixedController empirical_controller(300);
  std::vector<Tuple> live_rows;
  std::vector<Tuple> empirical_rows;
  Result<RunTrace> live_trace =
      live.RunQueryKeepingTuples(&live_controller, RunSpec{}, &live_rows);
  Result<RunTrace> empirical_trace = empirical.RunQueryKeepingTuples(
      &empirical_controller, RunSpec{}, &empirical_rows);
  ASSERT_TRUE(live_trace.ok()) << live_trace.status().ToString();
  ASSERT_TRUE(empirical_trace.ok()) << empirical_trace.status().ToString();

  // Both traces satisfy the cross-backend conformance contract.
  EXPECT_TRUE(live_trace.value().CheckConsistent().ok())
      << live_trace.value().CheckConsistent().ToString();
  EXPECT_TRUE(empirical_trace.value().CheckConsistent().ok());
  EXPECT_EQ(live_trace.value().backend_name, "live");

  // Deterministic structure agrees exactly: same tuples delivered in the
  // same block shapes. (Times differ by construction — one clock is
  // simulated, the other is the wall.)
  EXPECT_EQ(live_trace.value().total_tuples,
            empirical_trace.value().total_tuples);
  EXPECT_EQ(live_trace.value().total_blocks,
            empirical_trace.value().total_blocks);
  ASSERT_EQ(live_trace.value().steps.size(),
            empirical_trace.value().steps.size());
  for (size_t i = 0; i < live_trace.value().steps.size(); ++i) {
    EXPECT_EQ(live_trace.value().steps[i].requested_size,
              empirical_trace.value().steps[i].requested_size);
    EXPECT_EQ(live_trace.value().steps[i].received_tuples,
              empirical_trace.value().steps[i].received_tuples);
  }
  ASSERT_EQ(live_rows.size(), empirical_rows.size());
  for (size_t i = 0; i < live_rows.size(); ++i) {
    ASSERT_TRUE(live_rows[i] == empirical_rows[i]) << "row " << i;
  }
}

TEST(LiveBackendTest, AdaptiveControllerRunsOverLiveTcp) {
  // With the service-time simulation on, live response times carry the
  // paper's block-size dependence and an adaptive controller actually
  // adapts over the real socket.
  LiveServerHarness harness(net::WsqServerOptions{});
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(harness.MakeSetup());
  Result<std::unique_ptr<Controller>> controller =
      ControllerFactory::FromName("constant");
  ASSERT_TRUE(controller.ok());

  Result<RunTrace> trace = live.RunQuery(controller.value().get(), RunSpec{});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace.value().CheckConsistent().ok())
      << trace.value().CheckConsistent().ToString();
  EXPECT_EQ(trace.value().total_tuples,
            static_cast<int64_t>(harness.customer().num_rows()));
  EXPECT_GT(trace.value().total_time_ms, 0.0);
  // Wall-clock per-block times are real: every completed block took
  // measurable time.
  for (const RunStep& step : trace.value().steps) {
    EXPECT_GT(step.block_time_ms, 0.0) << "step " << step.step;
  }
}

TEST(LiveBackendTest, CloneRunsIndependently) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(harness.MakeSetup());
  std::unique_ptr<QueryBackend> clone = live.Clone();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->name(), "live");

  FixedController controller(250);
  Result<RunTrace> trace = clone->RunQuery(&controller, RunSpec{});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace.value().total_tuples,
            static_cast<int64_t>(harness.customer().num_rows()));
}

TEST(LiveBackendTest, FeedsTheObservabilityLayerWithRealTransferTimes) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  MetricsRegistry metrics;
  Tracer tracer;
  RunObserver observer(&metrics, &tracer);

  LiveBackend live(harness.MakeSetup());
  FixedController controller(500);
  RunSpec spec;
  spec.observer = &observer;
  Result<RunTrace> trace = live.RunQuery(&controller, spec);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  // The network lane of the obs layer carried one sample per block.
  Histogram* transfer = metrics.GetHistogram("wsq.net.transfer_ms");
  ASSERT_NE(transfer, nullptr);
  EXPECT_EQ(transfer->count(), trace.value().total_blocks);
  EXPECT_GE(transfer->mean(), 0.0);
}

TEST(LiveBackendTest, RejectsNullController) {
  LiveBackend live(LiveSetup{});
  EXPECT_EQ(live.RunQuery(nullptr, RunSpec{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LiveBackendTest, RejectsProfileSchedules) {
  LiveBackend live(LiveSetup{});
  EXPECT_FALSE(live.SupportsSchedules());

  FixedController controller(100);
  RunSpec spec;
  spec.total_steps = 10;
  spec.steps_per_profile = 5;
  EXPECT_EQ(live.RunQuery(&controller, spec).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LiveBackendTest, RejectsClientSideFaultPlans) {
  // On the live path chaos belongs server-side (wsqd --fault-plan) where
  // a fault can actually tear down a TCP connection; a client-side plan
  // is a configuration error, caught before any connection is opened.
  LiveBackend live(LiveSetup{});
  FixedController controller(100);
  Result<FaultPlan> plan = FaultPlan::FromName("burst");
  ASSERT_TRUE(plan.ok());
  RunSpec spec;
  spec.fault_plan = &plan.value();
  EXPECT_EQ(live.RunQuery(&controller, spec).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LiveBackendTest, KeepingTuplesRequiresAnOutputSchema) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  LiveSetup setup = harness.MakeSetup();
  setup.output_schema = nullptr;
  LiveBackend live(std::move(setup));
  FixedController controller(100);
  std::vector<Tuple> rows;
  EXPECT_EQ(live.RunQueryKeepingTuples(&controller, RunSpec{}, &rows)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(LiveBackendTest, UnreachableServerSurfacesUnavailable) {
  // A closed port: connect is refused, retries exhaust, the run fails
  // with a transient (not internal) status.
  LiveSetup setup;
  setup.query.table_name = "customer";
  setup.client_options.connect_timeout_ms = 300.0;
  {
    Result<net::Socket> listener = net::TcpListen(0);
    ASSERT_TRUE(listener.ok());
    Result<int> port = net::LocalPort(listener.value());
    ASSERT_TRUE(port.ok());
    setup.port = port.value();
    // listener closes here: the port is now known-dead.
  }
  LiveBackend live(std::move(setup));
  FixedController controller(100);
  Result<RunTrace> trace = live.RunQuery(&controller, RunSpec{});
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace wsq
