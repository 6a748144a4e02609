// End-to-end observability: the same RunObserver plugged into all three
// QueryBackend adapters yields a schema-valid Chrome trace and a
// populated metrics registry, while a null observer leaves the run
// results bit-for-bit unchanged.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "support/json_check.h"
#include "wsq/backend/empirical_backend.h"
#include "wsq/backend/eventsim_backend.h"
#include "wsq/backend/profile_backend.h"
#include "wsq/backend/query_backend.h"
#include "wsq/backend/run_stats.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/control/switching_controller.h"
#include "wsq/netsim/presets.h"
#include "wsq/relation/tpch_gen.h"
#include "wsq/sim/profile.h"

namespace wsq {
namespace {

std::shared_ptr<const ResponseProfile> SmallProfile() {
  ParametricProfile::Params p;
  p.name = "obs_small";
  p.dataset_tuples = 8000;
  p.overhead_ms = 50.0;
  p.per_tuple_ms = 0.5;
  return std::make_shared<ParametricProfile>(p);
}

EventSimConfig SmallEventConfig() {
  EventSimConfig config;
  config.jitter_sigma = 0.05;
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

/// Runs a switching controller through `backend` with `observer` wired
/// via RunSpec and returns the trace.
RunTrace RunObserved(QueryBackend& backend, RunObserver* observer) {
  SwitchingConfig config;
  config.seed = 7;
  SwitchingExtremumController controller(config);
  RunSpec spec;
  spec.observer = observer;
  Result<RunTrace> trace = backend.RunQuery(&controller, spec);
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  return std::move(trace).value();
}

TEST(BackendObservabilityTest, AllBackendsEmitValidChromeTraces) {
  std::vector<std::unique_ptr<QueryBackend>> backends;
  backends.push_back(
      std::make_unique<ProfileBackend>(SmallProfile(), SimOptions{}));
  backends.push_back(std::make_unique<EventSimBackend>(SmallEventConfig(),
                                                       /*dataset_tuples=*/8000));
  backends.push_back(std::make_unique<EmpiricalBackend>(SmallEmpiricalSetup()));

  for (auto& backend : backends) {
    MetricsRegistry registry;
    Tracer tracer;
    RunObserver observer(&registry, &tracer);
    RunTrace trace = RunObserved(*backend, &observer);
    ASSERT_GT(trace.total_blocks, 0) << backend->name();

    // The trace must be a schema-valid Chrome trace-event document.
    const std::string chrome = tracer.ToChromeJson();
    Status valid = CheckChromeTrace(chrome);
    EXPECT_TRUE(valid.ok()) << backend->name() << ": " << valid.ToString();
    // Every backend's pull loop lands block spans and decisions.
    EXPECT_NE(chrome.find("block_request"), std::string::npos)
        << backend->name();
    EXPECT_NE(chrome.find("controller_decision"), std::string::npos)
        << backend->name();

    // The metrics agree with the trace totals.
    EXPECT_EQ(registry.GetCounter("wsq.pull.blocks_total")->value(),
              trace.total_blocks)
        << backend->name();
    EXPECT_EQ(registry.GetCounter("wsq.pull.tuples_total")->value(),
              trace.total_tuples)
        << backend->name();
    EXPECT_EQ(registry.GetCounter("wsq.run.runs_total")->value(), 1)
        << backend->name();
    // The metrics JSON snapshot parses.
    EXPECT_TRUE(CheckJson(registry.ToJson()).ok()) << backend->name();
  }
}

TEST(BackendObservabilityTest, NullObserverLeavesResultsIdentical) {
  // Same backend + controller seed, observed vs unobserved: the traces
  // must match field for field — observability is read-only.
  ProfileBackend backend(SmallProfile(), SimOptions{});
  MetricsRegistry registry;
  Tracer tracer;
  RunObserver observer(&registry, &tracer);

  RunTrace observed = RunObserved(backend, &observer);
  RunTrace unobserved = RunObserved(backend, nullptr);

  EXPECT_EQ(observed.total_time_ms, unobserved.total_time_ms);
  EXPECT_EQ(observed.total_blocks, unobserved.total_blocks);
  EXPECT_EQ(observed.total_tuples, unobserved.total_tuples);
  ASSERT_EQ(observed.steps.size(), unobserved.steps.size());
  for (size_t i = 0; i < observed.steps.size(); ++i) {
    EXPECT_EQ(observed.steps[i].requested_size,
              unobserved.steps[i].requested_size)
        << "step " << i;
    EXPECT_EQ(observed.steps[i].block_time_ms, unobserved.steps[i].block_time_ms)
        << "step " << i;
  }
}

TEST(BackendObservabilityTest, EventSimEmitsServerSamples) {
  MetricsRegistry registry;
  Tracer tracer;
  RunObserver observer(&registry, &tracer);
  EventSimBackend backend(SmallEventConfig(), 5000);
  RunObserved(backend, &observer);
  const std::string chrome = tracer.ToChromeJson();
  EXPECT_NE(chrome.find("server_queue_len"), std::string::npos);
  EXPECT_NE(chrome.find("network_transfer"), std::string::npos);
}

TEST(BackendObservabilityTest, EmpiricalEmitsSessionAndDecomposition) {
  MetricsRegistry registry;
  Tracer tracer;
  RunObserver observer(&registry, &tracer);
  EmpiricalBackend backend(SmallEmpiricalSetup());
  RunObserved(backend, &observer);
  EXPECT_EQ(registry.GetCounter("wsq.pull.sessions_total")->value(), 1);
  EXPECT_GT(registry.GetCounter("wsq.pull.parses_total")->value(), 0);
  const std::string chrome = tracer.ToChromeJson();
  EXPECT_NE(chrome.find("session_open"), std::string::npos);
  EXPECT_NE(chrome.find("session_close"), std::string::npos);
  EXPECT_NE(chrome.find("server_residence"), std::string::npos);
}

TEST(BackendObservabilityTest, GlobalObserverActsAsFallback) {
  MetricsRegistry registry;
  RunObserver observer(&registry, nullptr);
  SetGlobalRunObserver(&observer);
  ProfileBackend backend(SmallProfile(), SimOptions{});
  FixedController controller(700);
  Result<RunTrace> trace = backend.RunQuery(&controller, RunSpec{});
  SetGlobalRunObserver(nullptr);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(registry.GetCounter("wsq.pull.blocks_total")->value(),
            trace.value().total_blocks);
  // An explicit RunSpec observer wins over the global one.
  MetricsRegistry other;
  RunObserver preferred(&other, nullptr);
  RunSpec spec;
  spec.observer = &preferred;
  EXPECT_EQ(ResolveObserver(spec), &preferred);
}

TEST(RunStatsTest, FromTraceDistillsTotalsAndDeadTime) {
  RunTrace trace;
  trace.backend_name = "test";
  trace.controller_name = "fixed_1000";
  trace.total_time_ms = 150.0;
  trace.total_blocks = 2;
  trace.total_tuples = 1500;
  trace.total_retries = 1;
  RunStep a;
  a.step = 0;
  a.requested_size = 1000;
  a.received_tuples = 1000;
  a.block_time_ms = 60.0;
  a.per_tuple_ms = 0.06;
  RunStep b;
  b.step = 1;
  b.requested_size = 1000;
  b.received_tuples = 500;
  b.block_time_ms = 40.0;
  b.per_tuple_ms = 0.08;
  b.retries = 1;
  b.adaptivity_step = 1;
  trace.steps = {a, b};

  MetricsRegistry registry;
  RunObserver observer(&registry, nullptr);
  ObserveRunSummary(&observer, trace);
  EXPECT_EQ(registry.GetCounter("wsq.run.runs_total")->value(), 1);
  EXPECT_EQ(registry.GetCounter("wsq.run.tuples_total")->value(), 1500);
  EXPECT_EQ(registry.GetCounter("wsq.run.retries_total")->value(), 1);
  EXPECT_EQ(registry.GetGauge("wsq.run.last_total_blocks")->value(), 2.0);
  EXPECT_EQ(registry.GetGauge("wsq.run.last_adaptivity_steps")->value(), 1.0);
  Histogram* total = registry.GetHistogram("wsq.run.total_time_ms");
  EXPECT_EQ(total->count(), 1);
  EXPECT_DOUBLE_EQ(total->mean(), 150.0);
  Histogram* dead = registry.GetHistogram("wsq.run.dead_time_ms");
  EXPECT_EQ(dead->count(), 1);
  EXPECT_DOUBLE_EQ(dead->mean(), 50.0);  // 150 - (60 + 40)
  Histogram* throughput =
      registry.GetHistogram("wsq.run.throughput_tuples_per_s");
  EXPECT_EQ(throughput->count(), 1);
  EXPECT_DOUBLE_EQ(throughput->mean(), 1500.0 / 0.150);
}

}  // namespace
}  // namespace wsq
