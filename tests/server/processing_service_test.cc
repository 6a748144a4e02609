#include "wsq/server/processing_service.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "wsq/server/container.h"
#include "wsq/soap/envelope.h"

namespace wsq {
namespace {

Schema InSchema() {
  return Schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kDouble}});
}

Schema OutSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"v", ColumnType::kDouble},
                 {"score", ColumnType::kDouble}});
}

ProcessingFunction ScoreFunction() {
  ProcessingFunction function;
  function.input_schema = InSchema();
  function.output_schema = OutSchema();
  function.transform = [](const Tuple& input) -> Result<Tuple> {
    const double v = std::get<double>(input.value(1));
    return Tuple({input.value(0), input.value(1), Value(v * 2.0)});
  };
  return function;
}

std::string MakeRequest(const std::string& function, int64_t sequence,
                        const std::vector<Tuple>& block) {
  TupleSerializer serializer(InSchema());
  ProcessBlockRequest request;
  request.function = function;
  request.sequence = sequence;
  request.num_tuples = static_cast<int64_t>(block.size());
  request.payload = serializer.SerializeBlock(block).value();
  return EncodeProcessBlock(request);
}

std::vector<Tuple> MakeBlock(int n) {
  std::vector<Tuple> block;
  for (int i = 0; i < n; ++i) {
    block.push_back(
        Tuple({Value(static_cast<int64_t>(i)), Value(i * 1.25)}));
  }
  return block;
}

TEST(ProcessingServiceTest, RegistrationRules) {
  ProcessingService service;
  EXPECT_TRUE(service.RegisterFunction("score", ScoreFunction()).ok());
  EXPECT_EQ(service.RegisterFunction("score", ScoreFunction()).code(),
            StatusCode::kInvalidArgument);
  ProcessingFunction null_fn;
  EXPECT_EQ(service.RegisterFunction("null", null_fn).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProcessingServiceTest, ProcessesABlock) {
  ProcessingService service;
  ASSERT_TRUE(service.RegisterFunction("score", ScoreFunction()).ok());

  ServiceResult result = service.Handle(MakeRequest("score", 7, MakeBlock(4)));
  ASSERT_FALSE(result.is_fault);
  EXPECT_EQ(result.tuples_produced, 4);
  EXPECT_EQ(service.tuples_processed(), 4);

  auto payload = ParseEnvelope(result.response);
  ASSERT_TRUE(payload.ok());
  auto response = DecodeProcessBlockResponse(payload.value());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().sequence, 7);
  EXPECT_EQ(response.value().num_tuples, 4);

  TupleSerializer out(OutSchema());
  auto tuples = out.DeserializeBlock(response.value().payload);
  ASSERT_TRUE(tuples.ok());
  ASSERT_EQ(tuples.value().size(), 4u);
  EXPECT_DOUBLE_EQ(std::get<double>(tuples.value()[2].value(2)), 5.0);
}

TEST(ProcessingServiceTest, EmptyBlockIsFine) {
  ProcessingService service;
  ASSERT_TRUE(service.RegisterFunction("score", ScoreFunction()).ok());
  ServiceResult result = service.Handle(MakeRequest("score", 0, {}));
  EXPECT_FALSE(result.is_fault);
  EXPECT_EQ(result.tuples_produced, 0);
}

TEST(ProcessingServiceTest, UnknownFunctionFaults) {
  ProcessingService service;
  ServiceResult result = service.Handle(MakeRequest("ghost", 0, MakeBlock(1)));
  EXPECT_TRUE(result.is_fault);
}

TEST(ProcessingServiceTest, CountMismatchFaults) {
  ProcessingService service;
  ASSERT_TRUE(service.RegisterFunction("score", ScoreFunction()).ok());
  TupleSerializer serializer(InSchema());
  ProcessBlockRequest request;
  request.function = "score";
  request.num_tuples = 5;  // lies: payload has 2
  request.payload = serializer.SerializeBlock(MakeBlock(2)).value();
  EXPECT_TRUE(service.Handle(EncodeProcessBlock(request)).is_fault);
}

TEST(ProcessingServiceTest, TransformErrorFaults) {
  ProcessingService service;
  ProcessingFunction failing = ScoreFunction();
  failing.transform = [](const Tuple&) -> Result<Tuple> {
    return Status::Internal("cannot compute");
  };
  ASSERT_TRUE(service.RegisterFunction("fail", failing).ok());
  ServiceResult result = service.Handle(MakeRequest("fail", 0, MakeBlock(2)));
  EXPECT_TRUE(result.is_fault);
  EXPECT_EQ(service.tuples_processed(), 0);
}

TEST(ProcessingServiceTest, NonconformingOutputFaults) {
  ProcessingService service;
  ProcessingFunction bad = ScoreFunction();
  bad.transform = [](const Tuple& input) -> Result<Tuple> {
    return Tuple({input.value(0)});  // wrong arity for OutSchema
  };
  ASSERT_TRUE(service.RegisterFunction("bad", bad).ok());
  EXPECT_TRUE(service.Handle(MakeRequest("bad", 0, MakeBlock(1))).is_fault);
}

TEST(ProcessingServiceTest, RejectsDataServiceOperations) {
  ProcessingService service;
  OpenSessionRequest open;
  open.table = "t";
  EXPECT_TRUE(service.Handle(EncodeOpenSession(open)).is_fault);
  EXPECT_TRUE(service.Handle("garbage").is_fault);
}

TEST(ProcessingServiceTest, ConcurrentDispatchCountsEveryBlock) {
  // The container hosting the service is dispatched from several
  // threads with no outer lock: the tuple counter and the LoadModel
  // draws must all add up.
  ProcessingService service;
  ASSERT_TRUE(service.RegisterFunction("score", ScoreFunction()).ok());
  LoadModelConfig load;
  load.noise_sigma = 0.0;
  ServiceContainer container(&service, load, 3);
  constexpr int kThreads = 4;
  constexpr int kBlocksPerThread = 25;
  constexpr int kTuples = 6;
  const std::string request = MakeRequest("score", 0, MakeBlock(kTuples));

  std::vector<std::thread> threads;
  std::atomic<int> faults{0};
  std::vector<double> busy_ms(kThreads, 0.0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int b = 0; b < kBlocksPerThread; ++b) {
        const DispatchResult result = container.Dispatch(request);
        if (result.is_fault) faults.fetch_add(1);
        busy_ms[t] += result.service_time_ms;
      }
    });
  }
  std::thread poller([&] {
    for (int i = 0; i < 100; ++i) {
      EXPECT_LE(service.tuples_processed(),
                int64_t{kThreads} * kBlocksPerThread * kTuples);
    }
  });
  for (std::thread& t : threads) t.join();
  poller.join();

  constexpr int kBlocks = kThreads * kBlocksPerThread;
  EXPECT_EQ(faults.load(), 0);
  EXPECT_EQ(service.tuples_processed(), int64_t{kBlocks} * kTuples);
  double total_busy_ms = 0.0;
  for (double ms : busy_ms) total_busy_ms += ms;
  EXPECT_NEAR(total_busy_ms,
              kBlocks * container.load_model().NominalServiceTimeMs(kTuples),
              1e-6);
}

TEST(ProcessBlockMessageTest, RoundTrip) {
  ProcessBlockRequest request;
  request.function = "score";
  request.sequence = 12;
  request.num_tuples = 2;
  request.payload = "1|2.50\n2|3.75\n";
  auto payload = ParseEnvelope(EncodeProcessBlock(request));
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(ClassifyRequest(payload.value()).value(),
            RequestKind::kProcessBlock);
  auto back = DecodeProcessBlock(payload.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().function, "score");
  EXPECT_EQ(back.value().sequence, 12);
  EXPECT_EQ(back.value().payload, request.payload);

  ProcessBlockResponse response;
  response.sequence = 12;
  response.num_tuples = 2;
  response.payload = "x\ny\n";
  auto response_payload = ParseEnvelope(EncodeProcessBlockResponse(response));
  ASSERT_TRUE(response_payload.ok());
  auto response_back = DecodeProcessBlockResponse(response_payload.value());
  ASSERT_TRUE(response_back.ok());
  EXPECT_EQ(response_back.value().payload, "x\ny\n");
}

}  // namespace
}  // namespace wsq
