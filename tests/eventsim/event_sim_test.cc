#include "wsq/eventsim/event_sim.h"

#include <memory>

#include <gtest/gtest.h>

#include "wsq/control/factories.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/fault/fault_injector.h"

namespace wsq {
namespace {

EventSimConfig CleanConfig() {
  EventSimConfig config;
  config.jitter_sigma = 0.0;
  return config;
}

/// Runs `clients` against one processor-sharing server, every client
/// drawing its jitter from one stream seeded by `config.seed`.
Result<std::vector<TenantTrace>> RunPs(
    const EventSimConfig& config, std::vector<ClientSpec> clients) {
  Random stream(config.seed);
  for (ClientSpec& client : clients) client.stream = &stream;
  ProcessorSharingServer server(config);
  return RunSharedServer(config, server, clients);
}

TEST(EventSimTest, SingleClientMatchesAnalyticTime) {
  EventSimConfig config = CleanConfig();
  FixedController controller(1000);
  ClientSpec client{/*dataset_tuples=*/5000, &controller, 0.0};

  auto outcomes = RunPs(config, {client});
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes.value().size(), 1u);
  const RunTrace& outcome = outcomes.value()[0].trace;
  EXPECT_EQ(outcome.total_tuples, 5000);
  EXPECT_EQ(outcome.total_blocks, 5);

  // Analytic: per block = request leg + service + response leg.
  const double request_leg =
      config.one_way_latency_ms + 600.0 * 8.0 / (9.0 * 1e6) * 1e3;
  const double response_leg =
      config.one_way_latency_ms + 1000.0 * 120.0 * 8.0 / (9.0 * 1e6) * 1e3;
  const double service = 3.0 + 0.010 * 1000.0;  // below the buffer
  EXPECT_NEAR(outcome.total_time_ms,
              5.0 * (request_leg + service + response_leg), 1e-6);
}

TEST(EventSimTest, TwoClientsSlowEachOtherDown) {
  EventSimConfig config = CleanConfig();
  FixedController c_solo(1000);
  auto solo = RunPs(config, {{50000, &c_solo, 0.0}});
  ASSERT_TRUE(solo.ok());

  FixedController c1(1000);
  FixedController c2(1000);
  auto pair = RunPs(
      config, {{50000, &c1, 0.0}, {50000, &c2, 0.0}});
  ASSERT_TRUE(pair.ok());

  // Shared CPU + shared buffer: each of the pair must be slower than
  // the solo run, but (pipelining across network legs) not 2x-CPU slow.
  for (const TenantTrace& outcome : pair.value()) {
    EXPECT_GT(outcome.trace.total_time_ms,
              solo.value()[0].trace.total_time_ms * 1.05);
  }
}

TEST(EventSimTest, StaggeredArrivalSlowsTheIncumbent) {
  EventSimConfig config = CleanConfig();
  FixedController c_solo(2000);
  auto solo = RunPs(config, {{100000, &c_solo, 0.0}});
  ASSERT_TRUE(solo.ok());

  FixedController c1(2000);
  FixedController c2(2000);
  // The second query arrives mid-run of the first (Fig. 2(b)'s story).
  auto staggered = RunPs(
      config,
      {{100000, &c1, 0.0},
       {100000, &c2, solo.value()[0].trace.total_time_ms / 2.0}});
  ASSERT_TRUE(staggered.ok());
  EXPECT_GT(staggered.value()[0].trace.total_time_ms,
            solo.value()[0].trace.total_time_ms);
  // The first client still finishes before the latecomer.
  EXPECT_LT(staggered.value()[0].completion_time_ms,
            staggered.value()[1].completion_time_ms);
}

TEST(EventSimTest, ConcurrencyShiftsTheOptimumLeft) {
  // The headline claim of the paper's Fig. 2, reproduced with *true*
  // concurrency: sweep fixed block sizes and find the best, solo vs 3
  // concurrent queries.
  auto best_size = [](int num_clients) {
    int64_t best = 0;
    double best_time = 1e300;
    for (int64_t size = 1000; size <= 14000; size += 1000) {
      EventSimConfig config = CleanConfig();
      std::vector<std::unique_ptr<FixedController>> controllers;
      std::vector<ClientSpec> clients;
      for (int i = 0; i < num_clients; ++i) {
        controllers.push_back(std::make_unique<FixedController>(size));
        clients.push_back({60000, controllers.back().get(), 0.0});
      }
      auto outcomes = RunPs(config, clients);
      EXPECT_TRUE(outcomes.ok());
      const double t = outcomes.value()[0].trace.total_time_ms;
      if (t < best_time) {
        best_time = t;
        best = size;
      }
    }
    return best;
  };
  const int64_t solo_best = best_size(1);
  const int64_t crowded_best = best_size(3);
  EXPECT_LT(crowded_best, solo_best);
}

TEST(EventSimTest, AdaptiveControllerTracksInsideTheEventSim) {
  EventSimConfig config = CleanConfig();
  config.jitter_sigma = 0.05;
  auto hybrid = NamedFactory("hybrid")();
  ASSERT_NE(hybrid, nullptr);
  FixedController fixed(1000);

  auto adaptive_run = RunPs(
      config, {{150000, hybrid.get(), 0.0}});
  ASSERT_TRUE(adaptive_run.ok());
  auto fixed_run = RunPs(config, {{150000, &fixed, 0.0}});
  ASSERT_TRUE(fixed_run.ok());

  // The hybrid grows blocks toward the buffer knee and beats fixed-1000.
  EXPECT_LT(adaptive_run.value()[0].trace.total_time_ms,
            fixed_run.value()[0].trace.total_time_ms);
  EXPECT_GT(adaptive_run.value()[0].trace.final_block_size(), 4000);
}

TEST(EventSimTest, DeterministicUnderFixedSeed) {
  auto run = []() {
    EventSimConfig config;
    config.jitter_sigma = 0.15;
    config.seed = 77;
    FixedController c1(1500);
    FixedController c2(2500);
    auto outcomes = RunPs(
        config, {{30000, &c1, 0.0}, {30000, &c2, 100.0}});
    EXPECT_TRUE(outcomes.ok());
    return outcomes.value()[0].trace.total_time_ms +
           outcomes.value()[1].trace.total_time_ms;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(EventSimTest, Validation) {
  FixedController controller(100);
  EXPECT_FALSE(RunPs(CleanConfig(), {}).ok());
  EXPECT_FALSE(
      RunPs(CleanConfig(), {{100, nullptr, 0.0}}).ok());
  EXPECT_FALSE(
      RunPs(CleanConfig(), {{0, &controller, 0.0}}).ok());
  EXPECT_FALSE(
      RunPs(CleanConfig(), {{100, &controller, -1.0}}).ok());
  EventSimConfig bad = CleanConfig();
  bad.bandwidth_mbps = 0.0;
  EXPECT_FALSE(RunPs(bad, {{100, &controller, 0.0}}).ok());
  // Every client needs a jitter stream.
  ProcessorSharingServer server(CleanConfig());
  EXPECT_FALSE(
      RunSharedServer(CleanConfig(), server, {{100, &controller, 0.0}}).ok());
}

TEST(EventSimTest, ManyClientsAllComplete) {
  EventSimConfig config = CleanConfig();
  config.jitter_sigma = 0.1;
  std::vector<std::unique_ptr<FixedController>> controllers;
  std::vector<ClientSpec> clients;
  for (int i = 0; i < 12; ++i) {
    controllers.push_back(std::make_unique<FixedController>(500 + i * 200));
    clients.push_back({5000 + i * 1000, controllers.back().get(),
                       static_cast<double>(i) * 50.0});
  }
  auto outcomes = RunPs(config, clients);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  for (size_t i = 0; i < clients.size(); ++i) {
    EXPECT_EQ(outcomes.value()[i].trace.total_tuples,
              clients[i].dataset_tuples);
    EXPECT_GE(outcomes.value()[i].completion_time_ms,
              clients[i].start_time_ms);
  }
}

// Three equal blocks admitted together finish together, a few 1e-10 ms
// after a fourth client's request lands: inside the server's 1e-9 ms
// completion slack, so at that instant all three count as done. The
// core must hand every one of them back before it admits the request.
TEST(EventSimTest, RequestArrivingAmidTiedCompletionsIsAdmitted) {
  EventSimConfig config = CleanConfig();
  const double demand =
      config.per_request_cpu_ms + config.per_tuple_cpu_ms * 100.0;
  // Every request leg is equally long, so the tied blocks land together
  // and finish 3 * demand later; the late request lands 4e-10 ms before.
  const double late_start = 3.0 * demand - 4e-10;

  FixedController a(100), b(100), c(100), late(100);
  auto outcomes = RunPs(config, {{100, &a, 0.0},
                                 {100, &b, 0.0},
                                 {100, &c, 0.0},
                                 {100, &late, late_start}});
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  const double tied_done = outcomes.value()[0].completion_time_ms;
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(outcomes.value()[i].trace.total_tuples, 100);
    EXPECT_EQ(outcomes.value()[i].completion_time_ms, tied_done);
  }
  // The tied blocks leave as the late request lands, so the late block
  // is served alone and its response trails theirs by its solo demand.
  const TenantTrace& last = outcomes.value()[3];
  EXPECT_EQ(last.trace.total_tuples, 100);
  EXPECT_NEAR(last.completion_time_ms - tied_done, demand, 1e-6);
}

// A lane given an injector but no policy runs the default config: block
// 0's two injected timeouts are retried within its budget of 2, as on
// every backend, instead of failing the run.
TEST(EventSimTest, LaneWithoutPolicyRetriesOnTheDefaultBudget) {
  FaultPlan plan;
  FaultSpec burst;
  burst.kind = FaultKind::kUnavailability;
  burst.first_block = 0;
  burst.last_block = 0;
  burst.faults_per_block = 2;
  plan.specs.push_back(burst);
  FaultInjector injector(plan, /*run_seed=*/1);

  FixedController controller(1000);
  ClientSpec client{3000, &controller, 0.0};
  client.injector = &injector;
  auto outcomes = RunPs(CleanConfig(), {client});
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  const RunTrace& trace = outcomes.value()[0].trace;
  EXPECT_EQ(trace.total_tuples, 3000);
  EXPECT_EQ(trace.total_retries, 2);
  EXPECT_DOUBLE_EQ(trace.total_retry_time_ms, 2.0 * plan.timeout_ms);
  EXPECT_EQ(trace.steps[0].retries, 2);
}

}  // namespace
}  // namespace wsq
