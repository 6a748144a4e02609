#include "wsq/server/data_service.h"

#include <gtest/gtest.h>

#include "wsq/codec/binary_codec.h"
#include "wsq/soap/envelope.h"

namespace wsq {
namespace {

class DataServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = std::make_shared<Table>(
        "nums", Schema({{"id", ColumnType::kInt64},
                        {"label", ColumnType::kString}}));
    for (int i = 0; i < 10; ++i) {
      table->AppendUnchecked(Tuple(
          {Value(static_cast<int64_t>(i)), Value(std::string("r").append(std::to_string(i)))}));
    }
    ASSERT_TRUE(dbms_.RegisterTable(table).ok());
    service_ = std::make_unique<DataService>(&dbms_);
  }

  int64_t OpenSession() {
    OpenSessionRequest request;
    request.table = "nums";
    ServiceResult result = service_->Handle(EncodeOpenSession(request));
    EXPECT_FALSE(result.is_fault);
    auto payload = ParseEnvelope(result.response);
    EXPECT_TRUE(payload.ok());
    return DecodeOpenSessionResponse(payload.value()).value().session_id;
  }

  Dbms dbms_;
  std::unique_ptr<DataService> service_;
};

TEST_F(DataServiceTest, FullSessionLifecycle) {
  const int64_t session = OpenSession();
  EXPECT_EQ(service_->open_sessions(), 1u);

  RequestBlockRequest request;
  request.session_id = session;
  request.block_size = 4;

  ServiceResult r1 = service_->Handle(EncodeRequestBlock(request));
  ASSERT_FALSE(r1.is_fault);
  EXPECT_EQ(r1.tuples_produced, 4);
  auto b1 = DecodeBlockResponse(ParseEnvelope(r1.response).value());
  ASSERT_TRUE(b1.ok());
  EXPECT_EQ(b1.value().num_tuples, 4);
  EXPECT_FALSE(b1.value().end_of_results);

  ServiceResult r2 = service_->Handle(EncodeRequestBlock(request));
  ServiceResult r3 = service_->Handle(EncodeRequestBlock(request));
  auto b3 = DecodeBlockResponse(ParseEnvelope(r3.response).value());
  ASSERT_TRUE(b3.ok());
  EXPECT_EQ(b3.value().num_tuples, 2);
  EXPECT_TRUE(b3.value().end_of_results);

  CloseSessionRequest close;
  close.session_id = session;
  ServiceResult r4 = service_->Handle(EncodeCloseSession(close));
  EXPECT_FALSE(r4.is_fault);
  EXPECT_EQ(service_->open_sessions(), 0u);
  (void)r2;
}

TEST_F(DataServiceTest, OpenSessionReportsTotalRows) {
  OpenSessionRequest request;
  request.table = "nums";
  ServiceResult result = service_->Handle(EncodeOpenSession(request));
  auto response =
      DecodeOpenSessionResponse(ParseEnvelope(result.response).value());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().total_rows, 10);
}

TEST_F(DataServiceTest, UnknownTableYieldsFault) {
  OpenSessionRequest request;
  request.table = "ghost";
  ServiceResult result = service_->Handle(EncodeOpenSession(request));
  EXPECT_TRUE(result.is_fault);
  EXPECT_EQ(ParseEnvelope(result.response).status().code(),
            StatusCode::kRemoteFault);
}

TEST_F(DataServiceTest, UnknownSessionYieldsFault) {
  RequestBlockRequest request;
  request.session_id = 999;
  request.block_size = 5;
  ServiceResult result = service_->Handle(EncodeRequestBlock(request));
  EXPECT_TRUE(result.is_fault);

  CloseSessionRequest close;
  close.session_id = 999;
  EXPECT_TRUE(service_->Handle(EncodeCloseSession(close)).is_fault);
}

TEST_F(DataServiceTest, BadBlockSizeYieldsFault) {
  const int64_t session = OpenSession();
  RequestBlockRequest request;
  request.session_id = session;
  request.block_size = 0;
  EXPECT_TRUE(service_->Handle(EncodeRequestBlock(request)).is_fault);
}

TEST_F(DataServiceTest, ProcessBlockIsAClientFaultNamingTheOperation) {
  ProcessBlockRequest request;
  request.function = "upper";
  ServiceResult result = service_->Handle(EncodeProcessBlock(request));
  EXPECT_TRUE(result.is_fault);
  EXPECT_NE(result.response.find("<faultcode>soapenv:Client</faultcode>"),
            std::string::npos)
      << result.response;
  Status status = ParseEnvelope(result.response).status();
  EXPECT_EQ(status.code(), StatusCode::kRemoteFault);
  EXPECT_NE(status.message().find("ProcessBlock"), std::string::npos)
      << status.ToString();
}

TEST_F(DataServiceTest, MalformedDocumentYieldsFault) {
  EXPECT_TRUE(service_->Handle("this is not xml").is_fault);
  EXPECT_TRUE(service_->Handle("<a/>").is_fault);
}

TEST_F(DataServiceTest, UnknownOperationYieldsFault) {
  XmlNode op("Frobnicate");
  EXPECT_TRUE(service_->Handle(BuildEnvelope(op)).is_fault);
}

TEST_F(DataServiceTest, ProjectionRespectedInPayload) {
  OpenSessionRequest request;
  request.table = "nums";
  request.columns = {"label"};
  ServiceResult opened = service_->Handle(EncodeOpenSession(request));
  ASSERT_FALSE(opened.is_fault);
  const int64_t session =
      DecodeOpenSessionResponse(ParseEnvelope(opened.response).value())
          .value()
          .session_id;

  RequestBlockRequest block_request;
  block_request.session_id = session;
  block_request.block_size = 2;
  ServiceResult result = service_->Handle(EncodeRequestBlock(block_request));
  auto block = DecodeBlockResponse(ParseEnvelope(result.response).value());
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block.value().payload, "r0\nr1\n");
}

TEST_F(DataServiceTest, SequencedRetryReplaysTheCachedBlock) {
  const int64_t session = OpenSession();
  RequestBlockRequest request;
  request.session_id = session;
  request.block_size = 4;
  request.sequence = 0;

  ServiceResult first = service_->Handle(EncodeRequestBlock(request));
  ASSERT_FALSE(first.is_fault);
  EXPECT_EQ(first.tuples_produced, 4);

  // The retry of an already-served sequence replays the exact same
  // bytes without touching the cursor — and does no tuple work.
  ServiceResult retry = service_->Handle(EncodeRequestBlock(request));
  ASSERT_FALSE(retry.is_fault);
  EXPECT_EQ(retry.response, first.response);
  EXPECT_EQ(retry.tuples_produced, 0);

  // The next sequence continues where the first delivery left off: the
  // replay really did not advance the cursor.
  request.sequence = 1;
  ServiceResult second = service_->Handle(EncodeRequestBlock(request));
  ASSERT_FALSE(second.is_fault);
  auto block = DecodeBlockResponse(ParseEnvelope(second.response).value());
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block.value().num_tuples, 4);
  EXPECT_EQ(block.value().payload, "4|r4\n5|r5\n6|r6\n7|r7\n");
}

TEST_F(DataServiceTest, ReplayCacheHoldsOnlyTheLastSequence) {
  const int64_t session = OpenSession();
  RequestBlockRequest request;
  request.session_id = session;
  request.block_size = 2;

  request.sequence = 0;
  ServiceResult r0 = service_->Handle(EncodeRequestBlock(request));
  request.sequence = 1;
  ServiceResult r1 = service_->Handle(EncodeRequestBlock(request));
  ASSERT_FALSE(r0.is_fault);
  ASSERT_FALSE(r1.is_fault);

  // Re-asking for sequence 0 after sequence 1 shipped is not a retry of
  // the in-flight block; the single-entry cache misses and the cursor
  // serves the *next* rows. The client protocol never does this —
  // BlockFetcher retries only the outstanding sequence.
  request.sequence = 0;
  ServiceResult stale = service_->Handle(EncodeRequestBlock(request));
  ASSERT_FALSE(stale.is_fault);
  EXPECT_NE(stale.response, r0.response);
}

TEST_F(DataServiceTest, UnsequencedRequestsBypassTheReplayCache) {
  const int64_t session = OpenSession();
  RequestBlockRequest request;
  request.session_id = session;
  request.block_size = 4;
  ASSERT_EQ(request.sequence, -1);

  // Two identical legacy (unsequenced) requests advance the cursor
  // twice — exactly the seed-era at-most-once behaviour.
  ServiceResult a = service_->Handle(EncodeRequestBlock(request));
  ServiceResult b = service_->Handle(EncodeRequestBlock(request));
  ASSERT_FALSE(a.is_fault);
  ASSERT_FALSE(b.is_fault);
  EXPECT_NE(a.response, b.response);
  auto block_b = DecodeBlockResponse(ParseEnvelope(b.response).value());
  ASSERT_TRUE(block_b.ok());
  EXPECT_EQ(block_b.value().payload, "4|r4\n5|r5\n6|r6\n7|r7\n");
}

TEST_F(DataServiceTest, BinaryRequestsHitTheSameReplayCache) {
  const int64_t session = OpenSession();
  codec::BinaryCodec binary;

  RequestBlockRequest request;
  request.session_id = session;
  request.block_size = 6;
  request.sequence = 0;
  const std::string wire = binary.EncodeRequestBlock(request).value();

  ServiceResult first = service_->Handle(wire, &binary);
  ASSERT_FALSE(first.is_fault);
  EXPECT_EQ(first.tuples_produced, 6);
  ServiceResult retry = service_->Handle(wire, &binary);
  ASSERT_FALSE(retry.is_fault);
  EXPECT_EQ(retry.response, first.response);
  EXPECT_EQ(retry.tuples_produced, 0);

  // The replayed bytes decode to the same block the first delivery
  // carried, and the cursor still sits at row 6.
  auto replayed = binary.DecodeBlockResponse(retry.response);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().num_tuples, 6);
  EXPECT_EQ(replayed.value().rows.Int64At(0, 0), 0);

  request.sequence = 1;
  ServiceResult second =
      service_->Handle(binary.EncodeRequestBlock(request).value(), &binary);
  ASSERT_FALSE(second.is_fault);
  auto block = binary.DecodeBlockResponse(second.response);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block.value().num_tuples, 4);
  EXPECT_TRUE(block.value().end_of_results);
  EXPECT_EQ(block.value().rows.Int64At(0, 0), 6);
  EXPECT_EQ(block.value().rows.StringAt(3, 1), "r9");
}

TEST_F(DataServiceTest, EncodeFaultReplaysAndTheNextSequenceMovesOn) {
  // Row 2's "id" is a string in an int64 column, so the projected block
  // holding it fails RowConformsTo — after the fetch has advanced the
  // cursor past it.
  auto table = std::make_shared<Table>(
      "ragged", Schema({{"id", ColumnType::kInt64},
                        {"label", ColumnType::kString}}));
  for (int i = 0; i < 6; ++i) {
    const Value id = i == 2 ? Value("two") : Value(static_cast<int64_t>(i));
    table->AppendUnchecked(Tuple({id, Value("label")}));
  }
  ASSERT_TRUE(dbms_.RegisterTable(table).ok());
  OpenSessionRequest open;
  open.table = "ragged";
  open.columns = {"id"};
  ServiceResult opened = service_->Handle(EncodeOpenSession(open));
  ASSERT_FALSE(opened.is_fault);
  const int64_t session =
      DecodeOpenSessionResponse(ParseEnvelope(opened.response).value())
          .value()
          .session_id;

  RequestBlockRequest request;
  request.session_id = session;
  request.block_size = 3;
  request.sequence = 5;
  ServiceResult faulted = service_->Handle(EncodeRequestBlock(request));
  ASSERT_TRUE(faulted.is_fault);
  EXPECT_FALSE(faulted.replayed);

  // The retry of the faulted sequence gets the same fault, byte for
  // byte, from the cache: the lost rows are not silently skipped.
  ServiceResult retry = service_->Handle(EncodeRequestBlock(request));
  EXPECT_TRUE(retry.is_fault);
  EXPECT_TRUE(retry.replayed);
  EXPECT_EQ(retry.response, faulted.response);
  EXPECT_EQ(retry.tuples_produced, 0);

  // The next sequence gets the next block, not the lost one.
  request.sequence = 6;
  ServiceResult next = service_->Handle(EncodeRequestBlock(request));
  ASSERT_FALSE(next.is_fault);
  EXPECT_FALSE(next.replayed);
  auto block = DecodeBlockResponse(ParseEnvelope(next.response).value());
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block.value().payload, "3\n4\n5\n");
  EXPECT_TRUE(block.value().end_of_results);
}

TEST_F(DataServiceTest, ReplaySurvivesTheEndOfResultsBlock) {
  const int64_t session = OpenSession();
  RequestBlockRequest request;
  request.session_id = session;
  request.block_size = 10;
  request.sequence = 0;

  ServiceResult last = service_->Handle(EncodeRequestBlock(request));
  ASSERT_FALSE(last.is_fault);
  auto block = DecodeBlockResponse(ParseEnvelope(last.response).value());
  ASSERT_TRUE(block.ok());
  ASSERT_TRUE(block.value().end_of_results);

  // A retry of the final block replays it, end-of-results flag and all
  // — the client can lose the last response too.
  ServiceResult retry = service_->Handle(EncodeRequestBlock(request));
  ASSERT_FALSE(retry.is_fault);
  EXPECT_EQ(retry.response, last.response);
}

TEST_F(DataServiceTest, MultipleConcurrentSessions) {
  const int64_t s1 = OpenSession();
  const int64_t s2 = OpenSession();
  EXPECT_NE(s1, s2);
  EXPECT_EQ(service_->open_sessions(), 2u);

  RequestBlockRequest r;
  r.session_id = s1;
  r.block_size = 10;
  auto b1 = DecodeBlockResponse(
      ParseEnvelope(service_->Handle(EncodeRequestBlock(r)).response)
          .value());
  ASSERT_TRUE(b1.ok());
  EXPECT_TRUE(b1.value().end_of_results);

  // Session 2 still at the start.
  r.session_id = s2;
  r.block_size = 3;
  auto b2 = DecodeBlockResponse(
      ParseEnvelope(service_->Handle(EncodeRequestBlock(r)).response)
          .value());
  ASSERT_TRUE(b2.ok());
  EXPECT_EQ(b2.value().num_tuples, 3);
  EXPECT_FALSE(b2.value().end_of_results);
}

}  // namespace
}  // namespace wsq
