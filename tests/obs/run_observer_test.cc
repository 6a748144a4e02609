#include "wsq/obs/run_observer.h"

#include <gtest/gtest.h>

#include "support/json_check.h"

namespace wsq {
namespace {

StateSnapshot SampleState() {
  StateSnapshot state;
  state.Add("gain", 2000.0);
  state.Add("phase", std::string_view("transient"));
  return state;
}

void EmitOneOfEverything(RunObserver& observer) {
  observer.OnSessionOpen(0, 100);
  observer.OnBlock(100, 5000, 700, 700, 0.4, 1);
  observer.OnNetworkTransfer(100, 2000);
  observer.OnServerResidence(2100, 2900);
  observer.OnParse(5100, 4096);
  observer.OnRetry(5200, 250.0);
  observer.OnControllerDecision(5300, "switching", SampleState(), 1, 900);
  observer.OnServerQueueLength(5400, 3);
  observer.OnServerLoadLevel(5400, 2);
  observer.OnSessionClose(6000, 50);
}

TEST(RunObserverTest, HooksAccumulateMetrics) {
  MetricsRegistry registry;
  RunObserver observer(&registry, nullptr);
  EmitOneOfEverything(observer);

  EXPECT_EQ(registry.GetCounter("wsq.pull.sessions_total")->value(), 1);
  EXPECT_EQ(registry.GetCounter("wsq.pull.blocks_total")->value(), 1);
  EXPECT_EQ(registry.GetCounter("wsq.pull.tuples_total")->value(), 700);
  EXPECT_EQ(registry.GetCounter("wsq.pull.retries_total")->value(), 1);
  EXPECT_EQ(registry.GetCounter("wsq.pull.parses_total")->value(), 1);
  EXPECT_EQ(registry.GetCounter("wsq.controller.decisions_total")->value(), 1);
  EXPECT_EQ(registry.GetHistogram("wsq.pull.block_time_ms")->count(), 1);
  EXPECT_EQ(registry.GetHistogram("wsq.net.transfer_ms")->count(), 1);
  EXPECT_EQ(registry.GetHistogram("wsq.server.residence_ms")->count(), 1);
  EXPECT_EQ(registry.GetGauge("wsq.server.queue_len")->value(), 3.0);
  EXPECT_EQ(registry.GetGauge("wsq.server.load_level")->value(), 2.0);
  // Numeric DebugState entries mirror to wsq.controller.<key> gauges.
  EXPECT_EQ(registry.GetGauge("wsq.controller.gain")->value(), 2000.0);
}

TEST(RunObserverTest, HooksEmitValidTraceEvents) {
  Tracer tracer;
  RunObserver observer(nullptr, &tracer);
  EmitOneOfEverything(observer);
  EXPECT_GT(tracer.size(), 5u);
  Status valid = CheckChromeTrace(tracer.ToChromeJson());
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  // The decision event carries the DebugState snapshot in its args.
  EXPECT_NE(tracer.ToChromeJson().find("\"phase\":\"transient\""),
            std::string::npos);
}

TEST(RunObserverTest, FaultHookCountsAndRecordsCost) {
  MetricsRegistry registry;
  RunObserver observer(&registry, nullptr);
  observer.OnFaultInjected(100, "drop", 3, 250.0);
  observer.OnFaultInjected(200, "timeout", 4, 750.0);

  EXPECT_EQ(registry.GetCounter("wsq.fault.injected_total")->value(), 2);
  const Histogram* cost = registry.GetHistogram("wsq.fault.cost_ms");
  EXPECT_EQ(cost->count(), 2);
  EXPECT_DOUBLE_EQ(cost->mean(), 500.0);
  EXPECT_DOUBLE_EQ(cost->max(), 750.0);
}

TEST(RunObserverTest, BreakerTransitionsTrackTheStateLevel) {
  // closed=0, open=1, half_open=2: the gauge follows the last target.
  MetricsRegistry registry;
  Tracer tracer;
  RunObserver observer(&registry, &tracer);
  Gauge* state = registry.GetGauge("wsq.resilience.breaker_state");

  observer.OnBreakerTransition(100, "closed", "open");
  EXPECT_EQ(state->value(), 1.0);
  observer.OnBreakerTransition(200, "open", "half_open");
  EXPECT_EQ(state->value(), 2.0);
  observer.OnBreakerTransition(300, "half_open", "closed");
  EXPECT_EQ(state->value(), 0.0);

  EXPECT_EQ(
      registry.GetCounter("wsq.resilience.breaker_transitions_total")->value(),
      3);
  int instants = 0;
  for (const TraceEvent& event : tracer.events()) {
    if (event.name == "breaker_transition") ++instants;
  }
  EXPECT_EQ(instants, 3);
  EXPECT_TRUE(CheckChromeTrace(tracer.ToChromeJson()).ok());
}

TEST(RunObserverTest, NullComponentsAreSafe) {
  RunObserver observer(nullptr, nullptr);
  EmitOneOfEverything(observer);  // must not crash
}

TEST(RunObserverTest, GlobalObserverInstallAndClear) {
  EXPECT_EQ(GlobalRunObserver(), nullptr);
  MetricsRegistry registry;
  RunObserver observer(&registry, nullptr);
  SetGlobalRunObserver(&observer);
  EXPECT_EQ(GlobalRunObserver(), &observer);
  SetGlobalRunObserver(nullptr);
  EXPECT_EQ(GlobalRunObserver(), nullptr);
}

}  // namespace
}  // namespace wsq
