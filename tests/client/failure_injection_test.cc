// Failure-injection tests: the simulated link drops requests, the
// fetch loop retries, and the accounting stays consistent.

#include <memory>

#include <gtest/gtest.h>

#include "wsq/backend/empirical_backend.h"
#include "wsq/client/query_session.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/netsim/presets.h"
#include "wsq/obs/metrics.h"
#include "wsq/obs/run_observer.h"

namespace wsq {
namespace {

std::shared_ptr<Table> MakeNums(int rows) {
  auto table = std::make_shared<Table>(
      "nums", Schema({{"id", ColumnType::kInt64}}));
  for (int i = 0; i < rows; ++i) {
    table->AppendUnchecked(Tuple({Value(static_cast<int64_t>(i))}));
  }
  return table;
}

EmpiricalSetup LossySetup(int rows, double drop_probability,
                          uint64_t seed = 77) {
  EmpiricalSetup setup;
  setup.table = MakeNums(rows);
  setup.query.table_name = "nums";
  setup.link = Lan1Gbps();
  setup.link.jitter_sigma = 0.0;
  setup.link.drop_probability = drop_probability;
  setup.link.timeout_ms = 500.0;
  setup.load.noise_sigma = 0.0;
  setup.seed = seed;
  return setup;
}

TEST(LinkConfigFailureTest, DropValidation) {
  LinkConfig config = Lan1Gbps();
  config.drop_probability = -0.1;
  EXPECT_FALSE(config.Validate().ok());
  config.drop_probability = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config.drop_probability = 0.3;
  config.timeout_ms = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config.timeout_ms = 100.0;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(FailureInjectionTest, LossyLinkStillDeliversEverything) {
  auto session = QuerySession::Create(LossySetup(500, 0.15));
  ASSERT_TRUE(session.ok());
  FixedController controller(25);  // many exchanges -> many drop chances
  std::vector<Tuple> tuples;
  Result<FetchOutcome> outcome =
      session.value()->Execute(&controller, &tuples);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().total_tuples, 500);
  ASSERT_EQ(tuples.size(), 500u);
  // No duplicates or losses: ids arrive exactly once, in order.
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(std::get<int64_t>(tuples[i].value(0)), i);
  }
  EXPECT_GT(outcome.value().retries, 0);
}

TEST(FailureInjectionTest, RetriesChargeTheTimeout) {
  auto lossless = QuerySession::Create(LossySetup(500, 0.0));
  auto lossy = QuerySession::Create(LossySetup(500, 0.15));
  ASSERT_TRUE(lossless.ok());
  ASSERT_TRUE(lossy.ok());
  FixedController c1(25);
  FixedController c2(25);
  auto clean = lossless.value()->Execute(&c1);
  auto dirty = lossy.value()->Execute(&c2);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(dirty.ok());
  // The lossy run costs at least its retries' timeouts more.
  EXPECT_GE(dirty.value().total_time_ms,
            clean.value().total_time_ms +
                static_cast<double>(dirty.value().retries) * 500.0 * 0.99);
}

TEST(FailureInjectionTest, RetriesReachTheRunObserver) {
  // Each retried exchange is reported once, with the attempt's cost.
  EmpiricalBackend backend(LossySetup(500, 0.15));
  MetricsRegistry metrics;
  RunObserver observer(&metrics, nullptr);
  RunSpec spec;
  spec.observer = &observer;
  FixedController controller(25);
  Result<RunTrace> trace = backend.RunQuery(&controller, spec);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_GT(trace.value().total_retries, 0);
  EXPECT_EQ(metrics.GetCounter("wsq.pull.retries_total")->value(),
            trace.value().total_retries);
}

TEST(FailureInjectionTest, PersistentOutageEventuallyFails) {
  // With a drop probability this high, three attempts per call are not
  // enough: the fetch must surface kUnavailable instead of spinning.
  auto session = QuerySession::Create(LossySetup(100, 0.95, /*seed=*/5));
  ASSERT_TRUE(session.ok());
  FixedController controller(10);
  Result<FetchOutcome> outcome = session.value()->Execute(&controller);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
}

TEST(FailureInjectionTest, DropsAreCountedOnTheClient) {
  EmpiricalSetup setup = LossySetup(300, 0.2);
  Dbms dbms;
  ASSERT_TRUE(dbms.RegisterTable(setup.table).ok());
  DataService service(&dbms);
  ServiceContainer container(&service, setup.load, 1);
  SimClock clock;
  WsClient client(&container, setup.link, &clock, 3);

  int drops = 0;
  OpenSessionRequest request;
  request.table = "nums";
  const std::string doc = EncodeOpenSession(request);
  for (int i = 0; i < 200; ++i) {
    Result<CallResult> call = client.Call(doc);
    if (!call.ok()) {
      EXPECT_EQ(call.status().code(), StatusCode::kUnavailable);
      ++drops;
    }
  }
  EXPECT_EQ(client.calls_dropped(), drops);
  // ~20% of 200: loose band.
  EXPECT_GT(drops, 15);
  EXPECT_LT(drops, 85);
}

TEST(FailureInjectionTest, FaultsAreNotRetried) {
  // A SOAP fault (unknown table) is deterministic; the retry budget
  // must not be spent on it.
  EmpiricalSetup setup = LossySetup(10, 0.0);
  setup.query.table_name = "ghost";
  // Creation already fails (projection resolution): use a direct stack.
  Dbms dbms;
  ASSERT_TRUE(dbms.RegisterTable(setup.table).ok());
  DataService service(&dbms);
  ServiceContainer container(&service, setup.load, 1);
  SimClock clock;
  WsClient client(&container, setup.link, &clock, 3);
  FixedController controller(10);
  BlockFetcher fetcher(&client, &controller, /*max_retries_per_call=*/5);

  ScanProjectQuery query;
  query.table_name = "ghost";
  Result<FetchOutcome> outcome = fetcher.Run(query);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kRemoteFault);
  // One call, no retries.
  EXPECT_EQ(client.calls_made(), 1);
}

}  // namespace
}  // namespace wsq
