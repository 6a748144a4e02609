#include "wsq/soap/message.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wsq/codec/soap_codec.h"
#include "wsq/relation/schema.h"
#include "wsq/relation/tuple.h"

namespace wsq {
namespace {

TEST(MessageTest, OpenSessionRoundTrip) {
  OpenSessionRequest request;
  request.table = "customer";
  request.columns = {"c_custkey", "c_name"};
  const std::string doc = EncodeOpenSession(request);

  Result<XmlNode> payload = ParseEnvelope(doc);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(ClassifyRequest(payload.value()).value(),
            RequestKind::kOpenSession);

  Result<OpenSessionRequest> back = DecodeOpenSession(payload.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().table, "customer");
  ASSERT_EQ(back.value().columns.size(), 2u);
  EXPECT_EQ(back.value().columns[1], "c_name");
}

TEST(MessageTest, OpenSessionFilterRoundTrip) {
  OpenSessionRequest request;
  request.table = "customer";
  request.filter = "c_acctbal >= 100 AND c_mktsegment = 'BUILDING'";
  Result<XmlNode> payload = ParseEnvelope(EncodeOpenSession(request));
  ASSERT_TRUE(payload.ok());
  Result<OpenSessionRequest> back = DecodeOpenSession(payload.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().filter, request.filter);

  // No filter -> empty string after the round trip.
  OpenSessionRequest plain;
  plain.table = "t";
  Result<XmlNode> plain_payload = ParseEnvelope(EncodeOpenSession(plain));
  ASSERT_TRUE(plain_payload.ok());
  EXPECT_TRUE(DecodeOpenSession(plain_payload.value()).value().filter
                  .empty());
}

TEST(MessageTest, PrefixedOperationAndColumnsDecode) {
  // Peers may qualify element names with any namespace prefix; the
  // operation and its column list are matched by local name.
  Result<XmlNode> payload = ParseXml(
      "<q:OpenSession><table>customer</table><columns>"
      "<q:column>c_name</q:column><column>c_acctbal</column>"
      "</columns></q:OpenSession>");
  ASSERT_TRUE(payload.ok());
  Result<RequestKind> kind = ClassifyRequest(payload.value());
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(kind.value(), RequestKind::kOpenSession);
  Result<OpenSessionRequest> request = DecodeOpenSession(payload.value());
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.value().table, "customer");
  EXPECT_EQ(request.value().columns,
            (std::vector<std::string>{"c_name", "c_acctbal"}));
}

TEST(MessageTest, OpenSessionEmptyColumnsMeansAll) {
  OpenSessionRequest request;
  request.table = "t";
  Result<XmlNode> payload = ParseEnvelope(EncodeOpenSession(request));
  ASSERT_TRUE(payload.ok());
  Result<OpenSessionRequest> back = DecodeOpenSession(payload.value());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().columns.empty());
}

TEST(MessageTest, OpenSessionResponseRoundTrip) {
  OpenSessionResponse response;
  response.session_id = 7;
  response.total_rows = 150000;
  Result<XmlNode> payload =
      ParseEnvelope(EncodeOpenSessionResponse(response));
  ASSERT_TRUE(payload.ok());
  Result<OpenSessionResponse> back =
      DecodeOpenSessionResponse(payload.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().session_id, 7);
  EXPECT_EQ(back.value().total_rows, 150000);
}

TEST(MessageTest, RequestBlockRoundTrip) {
  RequestBlockRequest request;
  request.session_id = 3;
  request.block_size = 2500;
  Result<XmlNode> payload = ParseEnvelope(EncodeRequestBlock(request));
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(ClassifyRequest(payload.value()).value(),
            RequestKind::kRequestBlock);
  Result<RequestBlockRequest> back = DecodeRequestBlock(payload.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().session_id, 3);
  EXPECT_EQ(back.value().block_size, 2500);
}

Schema PersonSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"score", ColumnType::kDouble}});
}

TEST(MessageTest, BlockResponseRoundTripWithPayload) {
  const std::vector<Tuple> rows = {
      Tuple({Value(int64_t{1}), Value(std::string("alice")), Value(2.5)}),
      Tuple({Value(int64_t{2}), Value(std::string("bob<&>")), Value(3.75)})};
  const std::string doc =
      codec::SoapCodec()
          .EncodeBlockResponse(3, /*end_of_results=*/true, PersonSchema(),
                               rows)
          .value();
  Result<XmlNode> payload = ParseEnvelope(doc);
  ASSERT_TRUE(payload.ok());
  Result<BlockResponse> back = DecodeBlockResponse(payload.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().session_id, 3);
  EXPECT_TRUE(back.value().end_of_results);
  EXPECT_EQ(back.value().num_tuples, 2);
  EXPECT_EQ(back.value().payload, "1|alice|2.50\n2|bob<&>|3.75\n");
}

TEST(MessageTest, CloseSessionRoundTrip) {
  CloseSessionRequest request;
  request.session_id = 9;
  Result<XmlNode> payload = ParseEnvelope(EncodeCloseSession(request));
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(ClassifyRequest(payload.value()).value(),
            RequestKind::kCloseSession);
  Result<CloseSessionRequest> back = DecodeCloseSession(payload.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().session_id, 9);

  CloseSessionResponse response;
  response.session_id = 9;
  Result<XmlNode> resp_payload =
      ParseEnvelope(EncodeCloseSessionResponse(response));
  ASSERT_TRUE(resp_payload.ok());
  EXPECT_EQ(DecodeCloseSessionResponse(resp_payload.value()).value()
                .session_id,
            9);
}

TEST(MessageTest, ClassifyRejectsUnknownOperation) {
  XmlNode unknown("Frobnicate");
  EXPECT_EQ(ClassifyRequest(unknown).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MessageTest, DecodersValidateElementName) {
  XmlNode wrong("RequestBlock");
  EXPECT_EQ(DecodeOpenSession(wrong).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MessageTest, DecodersValidateFieldTypes) {
  XmlNode bad("RequestBlock");
  XmlNode id("sessionId");
  id.set_text("not_a_number");
  bad.AddChild(std::move(id));
  XmlNode size("blockSize");
  size.set_text("100");
  bad.AddChild(std::move(size));
  EXPECT_EQ(DecodeRequestBlock(bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MessageTest, DecodersRequireFields) {
  XmlNode missing("RequestBlock");
  EXPECT_EQ(DecodeRequestBlock(missing).status().code(),
            StatusCode::kNotFound);
}

TEST(MessageTest, BoolFieldValidation) {
  std::string doc = codec::SoapCodec()
                        .EncodeBlockResponse(0, /*end_of_results=*/false,
                                             PersonSchema(), RowBlock())
                        .value();
  // Corrupt the boolean.
  const size_t pos = doc.find("false");
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, 5, "maybe");
  Result<XmlNode> payload = ParseEnvelope(doc);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(DecodeBlockResponse(payload.value()).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace wsq
