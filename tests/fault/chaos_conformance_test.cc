// Chaos conformance suite — the cross-backend contract of the
// fault-injection layer:
//
//  1. For a shared deterministic FaultPlan, all three backends log the
//     IDENTICAL fault event sequence (the plan, not the stack, owns the
//     faults).
//  2. With the legacy fixed-retry policy, the "burst" plan kills the
//     fetch outright; with the Chaos resilience policy (deep budget +
//     backoff + breaker) the same run completes with bounded
//     degradation — normalized time <= 3x the no-fault baseline.
//  3. The full controller matrix survives chaos on every backend, with
//     consistent traces and attributed retry accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "wsq/backend/empirical_backend.h"
#include "wsq/backend/eventsim_backend.h"
#include "wsq/backend/profile_backend.h"
#include "wsq/control/factories.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/fault/fault_plan.h"
#include "wsq/netsim/presets.h"
#include "wsq/relation/tpch_gen.h"

namespace wsq {
namespace {

ParametricProfile::Params SmallProfile() {
  ParametricProfile::Params p;
  p.name = "small";
  p.dataset_tuples = 20000;
  p.overhead_ms = 50.0;
  p.per_tuple_ms = 0.5;
  return p;
}

std::shared_ptr<const ResponseProfile> SharedSmallProfile() {
  return std::make_shared<ParametricProfile>(SmallProfile());
}

EventSimConfig SmallEventConfig() {
  EventSimConfig config;
  config.seed = 3;
  return config;
}

EmpiricalSetup SmallEmpiricalSetup() {
  TpchGenOptions gen;
  gen.scale = 0.02;  // 3000 customers
  EmpiricalSetup setup;
  setup.table = GenerateCustomer(gen).value();
  setup.query.table_name = "customer";
  setup.link = Lan1Gbps();
  setup.seed = 5;
  return setup;
}

std::vector<std::unique_ptr<QueryBackend>> AllBackends() {
  std::vector<std::unique_ptr<QueryBackend>> backends;
  backends.push_back(
      std::make_unique<ProfileBackend>(SharedSmallProfile(), SimOptions{}));
  backends.push_back(std::make_unique<EventSimBackend>(
      SmallEventConfig(), /*dataset_tuples=*/10000));
  backends.push_back(
      std::make_unique<EmpiricalBackend>(SmallEmpiricalSetup()));
  return backends;
}

/// A deterministic plan every backend's run reaches: two burst blocks
/// early, a latency spike, a reset. FixedController(700) produces >= 5
/// blocks on all three datasets.
FaultPlan SharedPlan() {
  FaultPlan plan;
  plan.name = "conformance";
  FaultSpec burst;
  burst.kind = FaultKind::kUnavailability;
  burst.first_block = 1;
  burst.last_block = 2;
  burst.faults_per_block = 2;
  plan.specs.push_back(burst);
  FaultSpec reset;
  reset.kind = FaultKind::kConnectionReset;
  reset.first_block = 3;
  reset.last_block = 3;
  plan.specs.push_back(reset);
  FaultSpec spike;
  spike.kind = FaultKind::kLatencySpike;
  spike.first_block = 2;
  spike.last_block = 4;
  spike.latency_multiplier = 2.0;
  plan.specs.push_back(spike);
  return plan;
}

TEST(ChaosConformanceTest, IdenticalFaultLogAcrossBackends) {
  const FaultPlan plan = SharedPlan();
  const ResilienceConfig resilience = ResilienceConfig::Chaos();

  std::vector<RunTrace> traces;
  for (const auto& backend : AllBackends()) {
    FixedController controller(700);
    RunSpec spec;
    spec.seed = 11;
    spec.fault_plan = &plan;
    spec.resilience = &resilience;
    Result<RunTrace> trace = backend->RunQuery(&controller, spec);
    ASSERT_TRUE(trace.ok()) << backend->name() << ": "
                            << trace.status().ToString();
    EXPECT_TRUE(trace.value().CheckConsistent().ok()) << backend->name();
    EXPECT_FALSE(trace.value().fault_log.empty()) << backend->name();
    traces.push_back(std::move(trace).value());
  }

  // The acceptance artifact: one plan, one seed -> one fault sequence,
  // whichever stack replays it.
  for (size_t i = 1; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].fault_log, traces[0].fault_log)
        << traces[i].backend_name << " diverged from "
        << traces[0].backend_name;
  }
  // 2 + 2 unavailability, 1 reset, 3 spikes (blocks 2-4).
  EXPECT_EQ(traces[0].fault_log.size(), 8u);
  // Retries are attributed: 5 failed exchanges were all retried.
  for (const RunTrace& trace : traces) {
    EXPECT_EQ(trace.total_retries, 5) << trace.backend_name;
    EXPECT_EQ(trace.session_retries, 0) << trace.backend_name;
    EXPECT_GT(trace.total_retry_time_ms, 0.0) << trace.backend_name;
  }
}

TEST(ChaosConformanceTest, FaultLogIsSeedStableAcrossRepeats) {
  const FaultPlan plan = SharedPlan();
  const ResilienceConfig resilience = ResilienceConfig::Chaos();
  ProfileBackend backend(SharedSmallProfile(), SimOptions{});
  std::vector<InjectedFault> first;
  for (int repeat = 0; repeat < 2; ++repeat) {
    FixedController controller(700);
    RunSpec spec;
    spec.seed = 23;
    spec.fault_plan = &plan;
    spec.resilience = &resilience;
    Result<RunTrace> trace = backend.RunQuery(&controller, spec);
    ASSERT_TRUE(trace.ok());
    if (repeat == 0) {
      first = trace.value().fault_log;
    } else {
      EXPECT_EQ(trace.value().fault_log, first);
    }
  }
}

TEST(ChaosConformanceTest, LegacyPolicyDiesOnBurstChaosPolicySurvives) {
  const FaultPlan burst = FaultPlan::FromName("burst").value();

  for (const auto& backend : AllBackends()) {
    // Pre-PR behavior: 2 retries cannot drain a 3-fault burst block.
    {
      FixedController controller(700);
      RunSpec spec;
      spec.seed = 7;
      spec.fault_plan = &burst;
      // No resilience config: the legacy default policy applies.
      Result<RunTrace> trace = backend->RunQuery(&controller, spec);
      ASSERT_FALSE(trace.ok()) << backend->name();
      EXPECT_EQ(trace.status().code(), StatusCode::kUnavailable)
          << backend->name();
    }
    // With the chaos policy the same plan completes.
    {
      FixedController controller(700);
      const ResilienceConfig resilience = ResilienceConfig::Chaos();
      RunSpec spec;
      spec.seed = 7;
      spec.fault_plan = &burst;
      spec.resilience = &resilience;
      Result<RunTrace> trace = backend->RunQuery(&controller, spec);
      ASSERT_TRUE(trace.ok()) << backend->name() << ": "
                              << trace.status().ToString();
      EXPECT_TRUE(trace.value().CheckConsistent().ok()) << backend->name();
    }
  }
}

TEST(ChaosConformanceTest, DegradationIsBoundedUnderBurst) {
  // The acceptance criterion end to end: a deterministic burst deep
  // enough to kill the pre-PR fixed-retry policy outright, on every
  // backend, with the fault costs scaled to the backend's own no-fault
  // baseline (chaos is relative — a 500 ms timeout is an outage for a
  // fast LAN run and a hiccup for a WAN one). With the Chaos policy and
  // the watchdog engaged, the run must complete within 3x the baseline.
  for (const auto& backend : AllBackends()) {
    ControllerFactoryFn factory = WithWatchdog(NamedFactory("hybrid"));

    std::unique_ptr<Controller> baseline_controller = factory();
    RunSpec baseline_spec;
    baseline_spec.seed = 13;
    Result<RunTrace> baseline =
        backend->RunQuery(baseline_controller.get(), baseline_spec);
    ASSERT_TRUE(baseline.ok()) << backend->name();
    const double baseline_ms = baseline.value().total_time_ms;

    FaultPlan burst;
    burst.name = "scaled_burst";
    FaultSpec storm;
    storm.kind = FaultKind::kUnavailability;
    storm.first_block = 1;
    storm.last_block = 3;
    storm.faults_per_block = 3;  // one more than the legacy budget
    burst.specs.push_back(storm);
    burst.timeout_ms = std::max(1.0, 0.04 * baseline_ms);

    // Pre-PR behavior dies on the first burst block.
    {
      std::unique_ptr<Controller> legacy_controller = factory();
      RunSpec legacy_spec;
      legacy_spec.seed = 13;
      legacy_spec.fault_plan = &burst;
      Result<RunTrace> legacy =
          backend->RunQuery(legacy_controller.get(), legacy_spec);
      ASSERT_FALSE(legacy.ok()) << backend->name();
      EXPECT_EQ(legacy.status().code(), StatusCode::kUnavailable)
          << backend->name();
    }

    const ResilienceConfig resilience = ResilienceConfig::Chaos();
    std::unique_ptr<Controller> chaos_controller = factory();
    RunSpec chaos_spec;
    chaos_spec.seed = 13;
    chaos_spec.fault_plan = &burst;
    chaos_spec.resilience = &resilience;
    Result<RunTrace> chaos =
        backend->RunQuery(chaos_controller.get(), chaos_spec);
    ASSERT_TRUE(chaos.ok()) << backend->name() << ": "
                            << chaos.status().ToString();

    EXPECT_FALSE(chaos.value().fault_log.empty()) << backend->name();
    EXPECT_LE(chaos.value().total_time_ms, 3.0 * baseline_ms)
        << backend->name();
    EXPECT_EQ(chaos.value().total_tuples, baseline.value().total_tuples)
        << backend->name();
  }
}

TEST(ChaosConformanceTest, ControllerMatrixSurvivesChaosEverywhere) {
  // The 7-controller matrix of bench_table3_degradation, under the
  // burst and latency plans, on all three backends.
  const std::vector<std::string> controllers = {
      "constant",        "adaptive",   "hybrid",     "hybrid_s",
      "mimd",            "model_quadratic",          "self_tuning"};
  const ResilienceConfig resilience = ResilienceConfig::Chaos();

  for (const std::string plan_name : {"burst", "latency"}) {
    const FaultPlan plan = FaultPlan::FromName(plan_name).value();
    for (const auto& backend : AllBackends()) {
      for (const std::string& name : controllers) {
        std::unique_ptr<Controller> controller =
            ControllerFactory::FromName(name).value();
        RunSpec spec;
        spec.seed = 29;
        spec.fault_plan = &plan;
        spec.resilience = &resilience;
        Result<RunTrace> trace = backend->RunQuery(controller.get(), spec);
        ASSERT_TRUE(trace.ok())
            << plan_name << "/" << backend->name() << "/" << name << ": "
            << trace.status().ToString();
        Status consistent = trace.value().CheckConsistent();
        EXPECT_TRUE(consistent.ok())
            << plan_name << "/" << backend->name() << "/" << name << ": "
            << consistent.ToString();
        // Only the profile backend's dataset is long enough that every
        // controller is guaranteed to reach the plans' block windows
        // (fast-growing controllers drain the small empirical dataset
        // in two blocks).
        if (backend->name() == "profile") {
          EXPECT_FALSE(trace.value().fault_log.empty())
              << plan_name << "/" << name;
        }
      }
    }
  }
}

TEST(ChaosConformanceTest, BreakerTripsAreReportedInTrace) {
  // A plan violent enough to trip the breaker (3 consecutive failures)
  // must surface breaker_trips in the trace.
  FaultPlan plan;
  FaultSpec storm;
  storm.kind = FaultKind::kUnavailability;
  storm.first_block = 1;
  storm.last_block = 2;
  storm.faults_per_block = 4;
  plan.specs.push_back(storm);

  ResilienceConfig resilience = ResilienceConfig::Chaos();
  resilience.breaker_threshold = 3;

  ProfileBackend backend(SharedSmallProfile(), SimOptions{});
  FixedController controller(700);
  RunSpec spec;
  spec.seed = 31;
  spec.fault_plan = &plan;
  spec.resilience = &resilience;
  Result<RunTrace> trace = backend.RunQuery(&controller, spec);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_GE(trace.value().breaker_trips, 1);
}

TEST(ChaosConformanceTest, NullPlanMatchesHistoricBehaviorByteForByte) {
  // RunSpec without a fault plan must reproduce the pre-chaos trace
  // exactly — no extra RNG draws, no accounting drift.
  ProfileBackend backend(SharedSmallProfile(), SimOptions{});

  std::unique_ptr<Controller> with_chaos_fields =
      ControllerFactory::FromName("hybrid").value();
  RunSpec plain;
  plain.seed = 17;
  Result<RunTrace> a = backend.RunQuery(with_chaos_fields.get(), plain);
  ASSERT_TRUE(a.ok());

  // An empty plan plus the legacy policy is the same thing.
  std::unique_ptr<Controller> with_legacy_policy =
      ControllerFactory::FromName("hybrid").value();
  const ResilienceConfig legacy = ResilienceConfig::Legacy();
  RunSpec with_policy;
  with_policy.seed = 17;
  with_policy.resilience = &legacy;
  Result<RunTrace> b = backend.RunQuery(with_legacy_policy.get(), with_policy);
  ASSERT_TRUE(b.ok());

  ASSERT_EQ(a.value().steps.size(), b.value().steps.size());
  EXPECT_DOUBLE_EQ(a.value().total_time_ms, b.value().total_time_ms);
  for (size_t i = 0; i < a.value().steps.size(); ++i) {
    EXPECT_EQ(a.value().steps[i].requested_size,
              b.value().steps[i].requested_size);
    EXPECT_DOUBLE_EQ(a.value().steps[i].per_tuple_ms,
                     b.value().steps[i].per_tuple_ms);
  }
}

}  // namespace
}  // namespace wsq
