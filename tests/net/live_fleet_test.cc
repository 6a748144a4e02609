// A fleet of live tenants against one loopback wsqd stack: every tenant
// drains the whole table on its own connection, late arrivals wait for
// their offset, and a bad spec or an unreachable server fails the
// fleet with a status instead of a partial trace.

#include "wsq/fleet/live_fleet.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "live_test_util.h"
#include "wsq/net/socket.h"

namespace wsq::fleet {
namespace {

LiveFleetOptions OptionsFor(const LiveServerHarness& harness) {
  LiveFleetOptions options;
  options.port = harness.port();
  options.spec.mix = {{"fixed:400", 2}, {"hybrid", 1}};
  options.client_options.connect_timeout_ms = 2000.0;
  options.seed = 5;
  return options;
}

TEST(LiveFleetTest, RejectsAnUnsetPort) {
  LiveFleetOptions options;
  options.spec.mix = {{"hybrid", 1}};
  EXPECT_EQ(RunLiveFleet(options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LiveFleetTest, EveryTenantDrainsTheWholeTable) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  Result<FleetTrace> fleet = RunLiveFleet(OptionsFor(harness));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_EQ(fleet.value().seed, 5u);
  ASSERT_EQ(fleet.value().tenants.size(), 3u);
  EXPECT_EQ(fleet.value().tenants[0].tenant, "fixed:400-0");
  EXPECT_EQ(fleet.value().tenants[1].tenant, "fixed:400-1");
  EXPECT_EQ(fleet.value().tenants[2].tenant, "hybrid-0");

  const int64_t rows = static_cast<int64_t>(harness.customer().num_rows());
  double latest = 0.0;
  for (const TenantTrace& lane : fleet.value().tenants) {
    EXPECT_EQ(lane.trace.backend_name, "live");
    EXPECT_EQ(lane.trace.total_tuples, rows) << lane.tenant;
    EXPECT_GE(lane.completion_time_ms, lane.start_time_ms);
    latest = std::max(latest, lane.completion_time_ms);
  }
  EXPECT_EQ(fleet.value().makespan_ms, latest);
  // Fixed tenants ask for 400 per block: a 1500-row table is 4 blocks.
  EXPECT_EQ(fleet.value().tenants[0].trace.total_blocks, (rows + 399) / 400);
  Status consistent = fleet.value().CheckConsistent();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
}

TEST(LiveFleetTest, LateArrivalsStartAfterTheirOffset) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  LiveFleetOptions options = OptionsFor(harness);
  options.spec.mix = {{"fixed:500", 3}};
  options.spec.arrival = ArrivalProcess::kStaggered;
  options.spec.stagger_interval_ms = 40.0;
  Result<FleetTrace> fleet = RunLiveFleet(options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ASSERT_EQ(fleet.value().tenants.size(), 3u);
  for (size_t i = 0; i < fleet.value().tenants.size(); ++i) {
    // Wall offsets: a tenant never starts before its arrival time.
    EXPECT_GE(fleet.value().tenants[i].start_time_ms, 40.0 * i) << i;
  }
}

TEST(LiveFleetTest, UnknownControllerFailsBeforeAnyTenantRuns) {
  LiveServerHarness harness;
  ASSERT_TRUE(harness.start_status().ok());

  LiveFleetOptions options = OptionsFor(harness);
  options.spec.mix = {{"hybrid", 1}, {"no_such_controller", 1}};
  EXPECT_EQ(RunLiveFleet(options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(harness.server().connections_accepted(), 0);
}

TEST(LiveFleetTest, UnreachableServerFailsTheFleet) {
  LiveFleetOptions options;
  options.spec.mix = {{"fixed:400", 2}};
  options.client_options.connect_timeout_ms = 300.0;
  {
    Result<net::Socket> listener = net::TcpListen(0);
    ASSERT_TRUE(listener.ok());
    Result<int> port = net::LocalPort(listener.value());
    ASSERT_TRUE(port.ok());
    options.port = port.value();
    // listener closes here: the port is now known-dead.
  }
  EXPECT_EQ(RunLiveFleet(options).status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace wsq::fleet
