// Fairness / convergence / oscillation analytics over fleet traces,
// plus their obs export (metric names, per-tenant labels, escaping).

#include "wsq/fleet/analytics.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wsq/fleet/fleet_spec.h"
#include "wsq/fleet/fleet_world.h"
#include "wsq/obs/metrics.h"

namespace wsq::fleet {
namespace {

TEST(JainIndexTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JainIndex({}), 0.0);
  EXPECT_DOUBLE_EQ(JainIndex({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(JainIndex({1.0, 1.0, 1.0, 1.0}), 1.0);
  // One tenant got everything: index collapses to 1/n.
  EXPECT_DOUBLE_EQ(JainIndex({1.0, 0.0, 0.0, 0.0}), 0.25);
  // All-zero counts as perfectly fair (everyone equally starved).
  EXPECT_DOUBLE_EQ(JainIndex({0.0, 0.0}), 1.0);
}

TEST(ConvergenceStepTest, DetectsSettling) {
  // Ramp then settle: the last 4 of 16 elements define the settled mean
  // (1000); the ramp leaves the ±20% band well before the tail.
  std::vector<int64_t> sizes;
  for (int i = 0; i < 8; ++i) sizes.push_back(100 + i * 120);
  for (int i = 0; i < 8; ++i) sizes.push_back(1000);
  const int64_t step = ConvergenceStep(sizes);
  ASSERT_GE(step, 0);
  // Everything from the reported step onward is inside the band.
  const double settled = 1000.0;
  for (size_t i = static_cast<size_t>(step); i < sizes.size(); ++i) {
    EXPECT_GE(static_cast<double>(sizes[i]), settled * 0.8);
    EXPECT_LE(static_cast<double>(sizes[i]), settled * 1.2);
  }
}

TEST(ConvergenceStepTest, NeverSettlingSeriesReportsMinusOne) {
  // Alternating 100/2000 never stays inside any ±20% band.
  std::vector<int64_t> sizes;
  for (int i = 0; i < 20; ++i) sizes.push_back(i % 2 == 0 ? 100 : 2000);
  EXPECT_EQ(ConvergenceStep(sizes), -1);
  // Too-short series cannot settle either.
  EXPECT_EQ(ConvergenceStep({500, 500}), -1);
}

TEST(ConvergenceStepTest, ConstantSeriesConvergesImmediately) {
  EXPECT_EQ(ConvergenceStep({700, 700, 700, 700, 700}), 0);
}

TEST(PearsonCorrelationTest, KnownValues) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0);
  // Constant series and too-short series report 0, not NaN.
  EXPECT_DOUBLE_EQ(PearsonCorrelation({5, 5, 5, 5}, {1, 2, 3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 2, 3}, {1, 2, 3}), 0.0);
}

FleetTrace RunSmallFleet() {
  FleetWorldConfig config;
  config.seed = 11;
  FleetSpec spec;
  spec.mix = {{"hybrid", 2}, {"mimd", 1}};
  // Long enough that every block-size series clears the 4-step floor
  // the correlation pass requires.
  spec.tuples_per_tenant = 20000;
  auto tenants = spec.BuildTenants(11);
  EXPECT_TRUE(tenants.ok());
  auto fleet = RunFleetWorld(config, tenants.value());
  EXPECT_TRUE(fleet.ok());
  return fleet.value();
}

TEST(AnalyzeFleetTest, DistillsARealFleetRun) {
  const FleetTrace fleet = RunSmallFleet();
  const FleetAnalytics analytics = AnalyzeFleet(fleet);

  ASSERT_EQ(analytics.tenants.size(), 3u);
  EXPECT_DOUBLE_EQ(analytics.makespan_ms, fleet.makespan_ms);
  EXPECT_GT(analytics.jain_index, 0.0);
  EXPECT_LE(analytics.jain_index, 1.0 + 1e-12);
  EXPECT_GE(analytics.p99_spread_ms, 0.0);
  EXPECT_DOUBLE_EQ(analytics.p99_spread_ms,
                   analytics.p99_max_ms - analytics.p99_min_ms);
  for (const TenantAnalytics& tenant : analytics.tenants) {
    EXPECT_EQ(tenant.tuples, 20000);
    EXPECT_GT(tenant.blocks, 0);
    EXPECT_GT(tenant.throughput_tps, 0.0);
    EXPECT_GT(tenant.p99_block_ms, 0.0);
    EXPECT_GE(tenant.oscillation, 0.0);
  }
  EXPECT_GE(analytics.converged_fraction, 0.0);
  EXPECT_LE(analytics.converged_fraction, 1.0);
  // 3 tenants with full-length series: all 3 pairs must correlate.
  EXPECT_EQ(analytics.correlation_pairs, 3);
}

TEST(AnalyzeFleetTest, EmptyFleetIsHarmless) {
  FleetTrace empty;
  const FleetAnalytics analytics = AnalyzeFleet(empty);
  EXPECT_TRUE(analytics.tenants.empty());
  EXPECT_DOUBLE_EQ(analytics.jain_index, 0.0);
  EXPECT_EQ(analytics.correlation_pairs, 0);
}

TEST(PublishFleetMetricsTest, ExportsLabeledTenantAndFleetSeries) {
  const FleetTrace fleet = RunSmallFleet();
  const FleetAnalytics analytics = AnalyzeFleet(fleet);

  MetricsRegistry registry;
  PublishFleetMetrics(analytics, &registry);

  // Fleet-level gauges.
  EXPECT_GT(registry.GetGauge("wsq.fleet.jain_index")->value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("wsq.fleet.makespan_ms")->value(),
                   fleet.makespan_ms);
  EXPECT_EQ(registry.GetCounter("wsq.fleet.tenants_total")->value(), 3);

  // Per-tenant labeled series.
  for (const TenantAnalytics& tenant : analytics.tenants) {
    const std::string name =
        LabeledName("wsq.fleet.tenant.throughput_tps", "tenant",
                    tenant.tenant);
    EXPECT_DOUBLE_EQ(registry.GetGauge(name)->value(), tenant.throughput_tps);
  }
  int64_t total_blocks = 0;
  int64_t labeled_blocks = 0;
  for (const TenantAnalytics& tenant : analytics.tenants) {
    total_blocks += tenant.blocks;
    labeled_blocks +=
        registry
            .GetCounter(LabeledName("wsq.fleet.tenant.blocks", "tenant",
                                    tenant.tenant))
            ->value();
  }
  EXPECT_EQ(labeled_blocks, total_blocks);
}

TEST(PublishFleetMetricsTest, HostileTenantNamesCannotCollide) {
  // Two distinct hostile tenant names that would collide without label
  // escaping must land in distinct series.
  FleetAnalytics analytics;
  TenantAnalytics a;
  a.tenant = "t,x=1";
  a.blocks = 5;
  TenantAnalytics b;
  b.tenant = "t";
  b.blocks = 7;
  analytics.tenants = {a, b};

  MetricsRegistry registry;
  PublishFleetMetrics(analytics, &registry);
  int64_t labeled_blocks = 0;
  for (const char* tenant : {"t,x=1", "t"}) {
    labeled_blocks +=
        registry
            .GetCounter(LabeledName("wsq.fleet.tenant.blocks", "tenant",
                                    tenant))
            ->value();
  }
  EXPECT_EQ(labeled_blocks, 12);
  EXPECT_EQ(
      registry
          .GetCounter(LabeledName("wsq.fleet.tenant.blocks", "tenant", "t"))
          ->value(),
      7);
  EXPECT_EQ(
      registry
          .GetCounter(
              LabeledName("wsq.fleet.tenant.blocks", "tenant", "t,x=1"))
          ->value(),
      5);
}

}  // namespace
}  // namespace wsq::fleet
