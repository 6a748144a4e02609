// Determinism and consistency suite for the fleet co-scheduling world:
// the fleet analogue of tests/exec's parallel-equality contract. The
// pinned properties:
//
//  * RunFleetRepeated output is byte-identical at --jobs=1 and --jobs=8
//    (whole worlds are the unit of parallelism; folding is run-ordered);
//  * same (config, spec, seed) reproduces the same fleet trace;
//  * per-tenant streams derive from (seed, tenant index), so appending
//    tenants never perturbs the tenants already in the spec before the
//    newcomer's arrival (churn stability);
//  * every stitched FleetTrace passes its own consistency contract.

#include "wsq/fleet/fleet_world.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wsq/exec/bench_report.h"
#include "wsq/fleet/fleet_spec.h"

namespace wsq::fleet {
namespace {

// Renders every field that defines a fleet trace with hex floats
// ("%a"), so two fingerprints match iff every float matches to the
// last bit — the same discipline as the exec parallel suites.
std::string Fingerprint(const FleetTrace& fleet) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf), "seed=%" PRIu64 "|makespan=%a\n", fleet.seed,
                fleet.makespan_ms);
  out += buf;
  for (const TenantTrace& lane : fleet.tenants) {
    std::snprintf(buf, sizeof(buf), "%s|%a|%a|%a|%" PRId64 "|%" PRId64 "\n",
                  lane.tenant.c_str(), lane.start_time_ms,
                  lane.completion_time_ms, lane.trace.total_time_ms,
                  lane.trace.total_blocks, lane.trace.total_tuples);
    out += buf;
    for (const RunStep& step : lane.trace.steps) {
      std::snprintf(buf, sizeof(buf),
                    "  %" PRId64 "|%" PRId64 "|%" PRId64 "|%a|%a|%" PRId64 "\n",
                    step.step, step.requested_size, step.received_tuples,
                    step.per_tuple_ms, step.block_time_ms,
                    step.adaptivity_step);
      out += buf;
    }
  }
  return out;
}

std::string Fingerprint(const std::vector<FleetTrace>& runs) {
  std::string out;
  for (const FleetTrace& fleet : runs) out += Fingerprint(fleet);
  return out;
}

FleetWorldConfig SmallWorld() {
  FleetWorldConfig config;
  config.one_way_latency_ms = 10.0;
  config.bandwidth_mbps = 9.0;
  config.seed = 17;
  return config;
}

FleetSpec SmallFleet() {
  FleetSpec spec;
  spec.mix = {{"hybrid", 2}, {"mimd", 2}};
  spec.tuples_per_tenant = 1500;
  return spec;
}

TEST(FleetSpecTest, ValidateRejectsBadSpecs) {
  FleetSpec empty;
  EXPECT_FALSE(empty.Validate().ok());

  FleetSpec bad_count;
  bad_count.mix = {{"hybrid", 0}};
  EXPECT_FALSE(bad_count.Validate().ok());

  FleetSpec bad_tuples;
  bad_tuples.mix = {{"hybrid", 1}};
  bad_tuples.tuples_per_tenant = 0;
  EXPECT_FALSE(bad_tuples.Validate().ok());

  EXPECT_TRUE(SmallFleet().Validate().ok());
}

TEST(FleetSpecTest, BuildTenantsRejectsUnknownController) {
  FleetSpec spec;
  spec.mix = {{"no_such_controller", 2}};
  auto tenants = spec.BuildTenants(1);
  EXPECT_FALSE(tenants.ok());
}

TEST(FleetSpecTest, UnknownControllerMessageNamesTheEntry) {
  for (const char* bad : {"no_such_controller", "fixed:abc", "fixed:0"}) {
    FleetSpec spec;
    spec.mix = {{"hybrid", 1}, {bad, 2}};
    auto tenants = spec.BuildTenants(1);
    ASSERT_FALSE(tenants.ok()) << bad;
    EXPECT_EQ(tenants.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(tenants.status().message(),
              std::string("fleet spec: unknown controller: ") + bad);
  }
}

TEST(FleetSpecTest, TenantNamesCountPerControllerSpelling) {
  FleetSpec spec;
  spec.mix = {{"hybrid", 2}, {"mimd", 1}, {"hybrid", 1}};
  spec.tuples_per_tenant = 100;
  auto tenants = spec.BuildTenants(1);
  ASSERT_TRUE(tenants.ok()) << tenants.status().ToString();
  ASSERT_EQ(tenants.value().size(), 4u);
  EXPECT_EQ(tenants.value()[0].name, "hybrid-0");
  EXPECT_EQ(tenants.value()[1].name, "hybrid-1");
  EXPECT_EQ(tenants.value()[2].name, "mimd-0");
  EXPECT_EQ(tenants.value()[3].name, "hybrid-2");
}

TEST(FleetSpecTest, StaggeredArrivalSpacesStarts) {
  FleetSpec spec = SmallFleet();
  spec.arrival = ArrivalProcess::kStaggered;
  spec.stagger_interval_ms = 250.0;
  auto tenants = spec.BuildTenants(1);
  ASSERT_TRUE(tenants.ok());
  for (size_t i = 0; i < tenants.value().size(); ++i) {
    EXPECT_DOUBLE_EQ(tenants.value()[i].start_time_ms,
                     250.0 * static_cast<double>(i));
  }
}

TEST(FleetSpecTest, JitteredArrivalIsSeededAndBounded) {
  FleetSpec spec = SmallFleet();
  spec.arrival = ArrivalProcess::kJittered;
  spec.stagger_interval_ms = 100.0;
  spec.arrival_jitter_ms = 50.0;
  auto first = spec.BuildTenants(7);
  auto second = spec.BuildTenants(7);
  auto other = spec.BuildTenants(8);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(other.ok());
  bool any_differs = false;
  for (size_t i = 0; i < first.value().size(); ++i) {
    const double base = 100.0 * static_cast<double>(i);
    EXPECT_GE(first.value()[i].start_time_ms, base);
    EXPECT_LT(first.value()[i].start_time_ms, base + 50.0);
    // Same seed reproduces; a different seed moves at least one start.
    EXPECT_DOUBLE_EQ(first.value()[i].start_time_ms,
                     second.value()[i].start_time_ms);
    if (first.value()[i].start_time_ms != other.value()[i].start_time_ms) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(FleetWorldTest, RunsEveryTenantToCompletion) {
  FleetSpec spec = SmallFleet();
  auto tenants = spec.BuildTenants(3);
  ASSERT_TRUE(tenants.ok());
  auto fleet = RunFleetWorld(SmallWorld(), tenants.value());
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ASSERT_EQ(fleet.value().tenants.size(), 4u);
  for (const TenantTrace& lane : fleet.value().tenants) {
    EXPECT_EQ(lane.trace.total_tuples, spec.tuples_per_tenant);
    EXPECT_GT(lane.trace.total_blocks, 0);
    EXPECT_EQ(lane.trace.backend_name, "fleet");
  }
  EXPECT_TRUE(fleet.value().CheckConsistent().ok())
      << fleet.value().CheckConsistent().ToString();
}

TEST(FleetWorldTest, SameSeedReproducesByteIdentically) {
  FleetSpec spec = SmallFleet();
  auto tenants = spec.BuildTenants(3);
  ASSERT_TRUE(tenants.ok());
  auto first = RunFleetWorld(SmallWorld(), tenants.value());
  auto second = RunFleetWorld(SmallWorld(), tenants.value());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Fingerprint(first.value()), Fingerprint(second.value()));

  FleetWorldConfig other = SmallWorld();
  other.seed = 18;
  auto different = RunFleetWorld(other, tenants.value());
  ASSERT_TRUE(different.ok());
  EXPECT_NE(Fingerprint(first.value()), Fingerprint(different.value()));
}

TEST(FleetWorldTest, SharedWorldTenantsInterfere) {
  // The same tenant alone vs inside an 8-tenant herd: co-tenants must
  // inflate its response time (the whole point of a shared LoadModel).
  // A LAN-ish world where service time dominates the round trip, so
  // blocks genuinely overlap in service and the in-flight pricing bites.
  FleetWorldConfig config;
  config.one_way_latency_ms = 1.0;
  config.bandwidth_mbps = 100.0;
  config.load.per_tuple_cpu_ms = 0.05;
  config.seed = 17;

  FleetSpec solo;
  solo.mix = {{"hybrid", 1}};
  solo.tuples_per_tenant = 1500;
  auto solo_tenants = solo.BuildTenants(3);
  ASSERT_TRUE(solo_tenants.ok());
  auto solo_fleet = RunFleetWorld(config, solo_tenants.value());
  ASSERT_TRUE(solo_fleet.ok());

  FleetSpec herd;
  herd.mix = {{"hybrid", 8}};
  herd.tuples_per_tenant = 1500;
  auto herd_tenants = herd.BuildTenants(3);
  ASSERT_TRUE(herd_tenants.ok());
  auto herd_fleet = RunFleetWorld(config, herd_tenants.value());
  ASSERT_TRUE(herd_fleet.ok());

  EXPECT_GT(herd_fleet.value().tenants[0].trace.total_time_ms,
            solo_fleet.value().tenants[0].trace.total_time_ms);
}

TEST(FleetWorldTest, RepeatedRunsIdenticalAcrossJobCounts) {
  const FleetWorldConfig config = SmallWorld();
  const FleetSpec spec = SmallFleet();
  auto serial = RunFleetRepeated(config, spec, 6, 42, /*jobs=*/1);
  auto parallel = RunFleetRepeated(config, spec, 6, 42, /*jobs=*/8);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial.value().size(), 6u);
  ASSERT_EQ(parallel.value().size(), 6u);
  EXPECT_EQ(Fingerprint(serial.value()), Fingerprint(parallel.value()));
}

TEST(FleetWorldTest, RepeatedRunsRecordOneWallTimeEach) {
  exec::RunTimings timings;
  exec::SetGlobalRunTimings(&timings);
  auto runs = RunFleetRepeated(SmallWorld(), SmallFleet(), 3, 42, /*jobs=*/2);
  exec::SetGlobalRunTimings(nullptr);
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  EXPECT_EQ(timings.runs(), 3u);
  for (double ms : timings.SnapshotMs()) EXPECT_GE(ms, 0.0);
}

TEST(FleetWorldTest, RepeatedRunsUseStridedSeeds) {
  auto runs = RunFleetRepeated(SmallWorld(), SmallFleet(), 3, 42, 1);
  ASSERT_TRUE(runs.ok());
  EXPECT_EQ(runs.value()[0].seed, 42u);
  EXPECT_EQ(runs.value()[1].seed, 42u + 104729u);
  EXPECT_EQ(runs.value()[2].seed, 42u + 2u * 104729u);
  EXPECT_NE(Fingerprint(runs.value()[0]), Fingerprint(runs.value()[1]));
}

TEST(FleetWorldTest, ChurnPreservesIncumbentPrefixes) {
  // Append a late-arriving tenant to the spec: every incumbent's steps
  // that completed strictly before the newcomer's start time must be
  // byte-identical to the run without it. Derived-by-index streams plus
  // live in-flight pricing make exactly this prefix invariant.
  FleetWorldConfig config = SmallWorld();
  config.jitter_sigma = 0.1;  // exercise the per-tenant jitter streams

  FleetSpec before = SmallFleet();
  auto incumbents = before.BuildTenants(3);
  ASSERT_TRUE(incumbents.ok());
  auto base = RunFleetWorld(config, incumbents.value());
  ASSERT_TRUE(base.ok());

  // The newcomer arrives mid-run (makespan is comfortably beyond this).
  const double arrival_ms = base.value().makespan_ms / 3.0;
  std::vector<TenantSpec> churned = incumbents.value();
  TenantSpec late;
  late.name = "latecomer";
  late.factory = NamedFactory("adaptive");
  late.dataset_tuples = 800;
  late.start_time_ms = arrival_ms;
  churned.push_back(late);
  auto with_late = RunFleetWorld(config, churned);
  ASSERT_TRUE(with_late.ok());
  EXPECT_TRUE(with_late.value().CheckConsistent().ok());

  for (size_t t = 0; t < incumbents.value().size(); ++t) {
    const TenantTrace& a = base.value().tenants[t];
    const TenantTrace& b = with_late.value().tenants[t];
    ASSERT_EQ(a.tenant, b.tenant);
    // Compare the steps that completed before the newcomer arrived.
    double elapsed = 0.0;
    size_t prefix = 0;
    while (prefix < a.trace.steps.size() && prefix < b.trace.steps.size()) {
      elapsed += a.trace.steps[prefix].block_time_ms;
      if (a.start_time_ms + elapsed >= arrival_ms) break;
      ++prefix;
    }
    for (size_t s = 0; s < prefix; ++s) {
      const RunStep& x = a.trace.steps[s];
      const RunStep& y = b.trace.steps[s];
      EXPECT_EQ(x.requested_size, y.requested_size)
          << a.tenant << " step " << s;
      EXPECT_EQ(x.received_tuples, y.received_tuples);
      EXPECT_DOUBLE_EQ(x.block_time_ms, y.block_time_ms)
          << a.tenant << " step " << s;
    }
  }
}

TEST(FleetWorldTest, ConfigValidation) {
  FleetWorldConfig config = SmallWorld();
  config.bandwidth_mbps = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallWorld();
  config.one_way_latency_ms = -1.0;
  EXPECT_FALSE(config.Validate().ok());
  auto fleet = RunFleetWorld(config, {});
  EXPECT_FALSE(fleet.ok());
}

TEST(FleetWorldTest, ResilienceBreakerGovernsCommandedSizes) {
  // A breaker-capped tenant must never command more than the governor
  // allows while the breaker is warm; here we just pin that wiring a
  // ResilienceConfig through the spec is honored (sizes stay positive
  // and the run completes).
  FleetSpec spec = SmallFleet();
  ResilienceConfig resilience;
  spec.resilience = resilience;
  auto tenants = spec.BuildTenants(3);
  ASSERT_TRUE(tenants.ok());
  ASSERT_TRUE(tenants.value()[0].resilience.has_value());
  auto fleet = RunFleetWorld(SmallWorld(), tenants.value());
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_TRUE(fleet.value().CheckConsistent().ok());
}

TEST(FleetWorldTest, BuildsEachTenantControllerOncePerRun) {
  // One controller per tenant per run: validation must not build (and
  // throw away) a second one.
  int built = 0;
  const ControllerFactoryFn counting = [&built] {
    ++built;
    return NamedFactory("hybrid")();
  };
  auto tenants = SmallFleet().BuildTenants(3);
  ASSERT_TRUE(tenants.ok());
  for (TenantSpec& tenant : tenants.value()) tenant.factory = counting;
  constexpr int kRuns = 3;
  for (int run = 0; run < kRuns; ++run) {
    ASSERT_TRUE(RunFleetWorld(SmallWorld(), tenants.value()).ok());
  }
  EXPECT_EQ(built, static_cast<int>(tenants.value().size()) * kRuns);
}

TEST(FleetWorldTest, RejectsANullControllerWhenBuildingIt) {
  auto tenants = SmallFleet().BuildTenants(3);
  ASSERT_TRUE(tenants.ok());
  tenants.value()[2].factory = [] { return std::unique_ptr<Controller>(); };
  auto fleet = RunFleetWorld(SmallWorld(), tenants.value());
  ASSERT_FALSE(fleet.ok());
  EXPECT_EQ(fleet.status().code(), StatusCode::kInvalidArgument);
  tenants.value()[2].factory = nullptr;
  EXPECT_FALSE(RunFleetWorld(SmallWorld(), tenants.value()).ok());
}

}  // namespace
}  // namespace wsq::fleet
