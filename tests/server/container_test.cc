#include "wsq/server/container.h"

#include <set>

#include <gtest/gtest.h>

#include "wsq/server/data_service.h"

#include "wsq/soap/envelope.h"

namespace wsq {
namespace {

class ContainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = std::make_shared<Table>(
        "t", Schema({{"id", ColumnType::kInt64}}));
    for (int i = 0; i < 1000; ++i) {
      table->AppendUnchecked(Tuple({Value(static_cast<int64_t>(i))}));
    }
    ASSERT_TRUE(dbms_.RegisterTable(table).ok());
    service_ = std::make_unique<DataService>(&dbms_);
  }

  LoadModelConfig QuietLoad() {
    LoadModelConfig config;
    config.noise_sigma = 0.0;
    return config;
  }

  int64_t OpenSessionVia(ServiceContainer& container) {
    OpenSessionRequest request;
    request.table = "t";
    DispatchResult result = container.Dispatch(EncodeOpenSession(request));
    EXPECT_FALSE(result.is_fault);
    return DecodeOpenSessionResponse(ParseEnvelope(result.response).value())
        .value()
        .session_id;
  }

  Dbms dbms_;
  std::unique_ptr<DataService> service_;
};

TEST_F(ContainerTest, ChargesServiceTime) {
  ServiceContainer container(service_.get(), QuietLoad(), 1);
  const int64_t session = OpenSessionVia(container);

  RequestBlockRequest request;
  request.session_id = session;
  request.block_size = 500;
  DispatchResult result = container.Dispatch(EncodeRequestBlock(request));
  EXPECT_FALSE(result.is_fault);
  // 500 tuples at default per-tuple cost + request cost.
  LoadModel expected(QuietLoad());
  EXPECT_NEAR(result.service_time_ms, expected.NominalServiceTimeMs(500),
              1e-9);
}

TEST_F(ContainerTest, SessionOpsPayOnlyRequestCost) {
  ServiceContainer container(service_.get(), QuietLoad(), 1);
  OpenSessionRequest request;
  request.table = "t";
  DispatchResult result = container.Dispatch(EncodeOpenSession(request));
  LoadModel expected(QuietLoad());
  EXPECT_NEAR(result.service_time_ms, expected.NominalServiceTimeMs(0), 1e-9);
}

TEST_F(ContainerTest, FaultsStillCostTime) {
  ServiceContainer container(service_.get(), QuietLoad(), 1);
  DispatchResult result = container.Dispatch("garbage");
  EXPECT_TRUE(result.is_fault);
  EXPECT_GT(result.service_time_ms, 0.0);
}

TEST_F(ContainerTest, LoadReconfigurationTakesEffect) {
  ServiceContainer container(service_.get(), QuietLoad(), 1);
  const int64_t session = OpenSessionVia(container);

  RequestBlockRequest request;
  request.session_id = session;
  request.block_size = 100;
  const double quiet_time =
      container.Dispatch(EncodeRequestBlock(request)).service_time_ms;

  LoadModelConfig loaded = QuietLoad();
  loaded.concurrent_queries = 3;
  container.load_model().set_config(loaded);
  const double loaded_time =
      container.Dispatch(EncodeRequestBlock(request)).service_time_ms;
  EXPECT_GT(loaded_time, quiet_time);
}

TEST_F(ContainerTest, NoiseMakesTimesVary) {
  LoadModelConfig noisy = QuietLoad();
  noisy.noise_sigma = 0.2;
  ServiceContainer container(service_.get(), noisy, 7);
  const int64_t session = OpenSessionVia(container);

  RequestBlockRequest request;
  request.session_id = session;
  request.block_size = 10;
  std::set<double> seen;
  for (int i = 0; i < 10; ++i) {
    seen.insert(container.Dispatch(EncodeRequestBlock(request))
                    .service_time_ms);
  }
  EXPECT_GT(seen.size(), 5u);
}

}  // namespace
}  // namespace wsq
