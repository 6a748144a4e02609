#include <memory>

#include <gtest/gtest.h>

#include "wsq/client/query_session.h"
#include "wsq/control/factories.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/control/hybrid_controller.h"
#include "wsq/netsim/presets.h"
#include "wsq/relation/tpch_gen.h"

namespace wsq {
namespace {

/// Full-stack integration: TPC-H data -> DBMS -> data service -> SOAP ->
/// simulated network -> client fetch loop -> controller, i.e. the paper's
/// whole testbed in miniature.
class EndToEndTest : public ::testing::Test {
 protected:
  EmpiricalSetup WanSetup(double scale, int concurrent_jobs,
                          double memory_pressure) {
    EmpiricalSetup setup;
    TpchGenOptions gen;
    gen.scale = scale;
    gen.seed = 11;
    auto customer = GenerateCustomer(gen);
    EXPECT_TRUE(customer.ok());
    setup.table = customer.value();
    setup.query.table_name = "customer";
    setup.query.projected_columns = {"c_custkey", "c_name", "c_acctbal"};
    setup.link = WanUkToSwitzerland();
    setup.load.concurrent_jobs = concurrent_jobs;
    setup.load.memory_pressure = memory_pressure;
    setup.seed = 23;
    return setup;
  }
};

TEST_F(EndToEndTest, AllTuplesArriveIntactUnderAdaptiveControl) {
  auto session = QuerySession::Create(WanSetup(0.01, 0, 0.0));  // 1500 rows
  ASSERT_TRUE(session.ok());
  auto controller = ControllerFactory::FromName("hybrid");
  ASSERT_TRUE(controller.ok());
  std::vector<Tuple> tuples;
  Result<FetchOutcome> outcome =
      session.value()->Execute(controller.value().get(), &tuples);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().total_tuples, 1500);
  ASSERT_EQ(tuples.size(), 1500u);
  // Keys arrive in order and intact.
  for (int i = 0; i < 1500; ++i) {
    EXPECT_EQ(std::get<int64_t>(tuples[i].value(0)), i + 1);
  }
}

TEST_F(EndToEndTest, EveryControllerFamilyDrainsTheQuery) {
  for (const char* name :
       {"fixed:300", "constant", "adaptive", "hybrid", "hybrid_s", "mimd",
        "model_quadratic", "model_parabolic", "self_tuning"}) {
    auto session = QuerySession::Create(WanSetup(0.005, 1, 0.0));
    ASSERT_TRUE(session.ok()) << name;
    auto controller = ControllerFactory::FromName(name);
    ASSERT_TRUE(controller.ok()) << name;
    Result<FetchOutcome> outcome =
        session.value()->Execute(controller.value().get());
    ASSERT_TRUE(outcome.ok()) << name;
    EXPECT_EQ(outcome.value().total_tuples, 750) << name;
    EXPECT_GT(outcome.value().total_time_ms, 0.0) << name;
  }
}

TEST_F(EndToEndTest, FilterExpressionsTravelOverTheWire) {
  EmpiricalSetup setup = WanSetup(0.01, 0, 0.0);  // 1500 rows
  setup.query.filter =
      "c_acctbal >= 0 AND c_mktsegment = 'BUILDING'";
  auto session = QuerySession::Create(std::move(setup));
  ASSERT_TRUE(session.ok());
  FixedController controller(100);
  std::vector<Tuple> tuples;
  Result<FetchOutcome> outcome =
      session.value()->Execute(&controller, &tuples);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // The filter executed server-side: some rows, strictly fewer than all.
  ASSERT_GT(tuples.size(), 0u);
  ASSERT_LT(tuples.size(), 1500u);
  for (const Tuple& tuple : tuples) {
    EXPECT_GE(std::get<double>(tuple.value(2)), 0.0);
  }
}

TEST_F(EndToEndTest, BadFilterFaultsAtOpen) {
  EmpiricalSetup setup = WanSetup(0.005, 0, 0.0);
  // Create succeeds only if the probe cursor compiles the filter; use a
  // filter valid only against a column the projection keeps — invalid
  // against the schema.
  setup.query.filter = "no_such_column = 1";
  EXPECT_FALSE(QuerySession::Create(std::move(setup)).ok());
}

TEST_F(EndToEndTest, ServerLoadSlowsTheSameQuery) {
  auto quiet = QuerySession::Create(WanSetup(0.005, 0, 0.0));
  auto busy = QuerySession::Create(WanSetup(0.005, 10, 0.3));
  ASSERT_TRUE(quiet.ok());
  ASSERT_TRUE(busy.ok());
  FixedController c1(250);
  FixedController c2(250);
  const auto t_quiet = quiet.value()->Execute(&c1);
  const auto t_busy = busy.value()->Execute(&c2);
  ASSERT_TRUE(t_quiet.ok());
  ASSERT_TRUE(t_busy.ok());
  EXPECT_GT(t_busy.value().total_time_ms, t_quiet.value().total_time_ms);
}

TEST_F(EndToEndTest, SimulatedClockAdvancesWithQueryTime) {
  auto session = QuerySession::Create(WanSetup(0.005, 0, 0.0));
  ASSERT_TRUE(session.ok());
  FixedController controller(200);
  const auto outcome = session.value()->Execute(&controller);
  ASSERT_TRUE(outcome.ok());
  // The session clock must have advanced by at least the fetch-loop time
  // (plus open/close overhead).
  EXPECT_GE(session.value()->clock().NowMicros(),
            static_cast<int64_t>(outcome.value().total_time_ms * 1000.0));
}

TEST_F(EndToEndTest, TraceIsInternallyConsistent) {
  auto session = QuerySession::Create(WanSetup(0.005, 0, 0.0));
  ASSERT_TRUE(session.ok());
  auto controller = ControllerFactory::FromName("constant");
  ASSERT_TRUE(controller.ok());
  const auto outcome = session.value()->Execute(controller.value().get());
  ASSERT_TRUE(outcome.ok());

  int64_t tuple_sum = 0;
  double time_sum = 0.0;
  for (const BlockTrace& trace : outcome.value().trace) {
    EXPECT_GT(trace.requested_size, 0);
    EXPECT_GE(trace.received_tuples, 0);
    EXPECT_LE(trace.received_tuples, trace.requested_size);
    EXPECT_GT(trace.response_time_ms, 0.0);
    tuple_sum += trace.received_tuples;
    time_sum += trace.response_time_ms;
  }
  EXPECT_EQ(tuple_sum, outcome.value().total_tuples);
  EXPECT_NEAR(time_sum, outcome.value().total_time_ms, 1e-6);
}

TEST_F(EndToEndTest, HybridBeatsPessimalFixedOnLoadedServer) {
  // On a memory-pressured server, a huge fixed block is pathological;
  // the hybrid controller must do better end to end.
  EmpiricalSetup setup = WanSetup(0.05, 2, 0.45);  // 7500 rows
  setup.load.buffer_capacity_tuples = 3000.0;

  auto session_fixed = QuerySession::Create(setup);
  auto session_hybrid = QuerySession::Create(setup);
  ASSERT_TRUE(session_fixed.ok());
  ASSERT_TRUE(session_hybrid.ok());

  FixedController big_fixed(20000);
  HybridConfig hybrid_config = PaperHybridConfig();
  hybrid_config.base.b1 = 500.0;
  hybrid_config.base.initial_block_size = 500;
  HybridController hybrid(hybrid_config);

  const auto t_fixed = session_fixed.value()->Execute(&big_fixed);
  const auto t_hybrid = session_hybrid.value()->Execute(&hybrid);
  ASSERT_TRUE(t_fixed.ok());
  ASSERT_TRUE(t_hybrid.ok());
  EXPECT_LT(t_hybrid.value().total_time_ms,
            t_fixed.value().total_time_ms);
}

}  // namespace
}  // namespace wsq
