#include "wsq/obs/json_lite.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "support/json_check.h"

namespace wsq {
namespace {

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonNumberTest, NonFiniteBecomesNull) {
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_TRUE(CheckJson(JsonNumber(1.0 / 3.0)).ok());
}

TEST(CheckJsonTest, AcceptsWellFormedValues) {
  EXPECT_TRUE(CheckJson("{}").ok());
  EXPECT_TRUE(CheckJson("[]").ok());
  EXPECT_TRUE(CheckJson("null").ok());
  EXPECT_TRUE(CheckJson("-1.5e-3").ok());
  EXPECT_TRUE(CheckJson("\"a \\u00e9 b\"").ok());
  EXPECT_TRUE(
      CheckJson("{\"a\":[1,2,{\"b\":false}],\"c\":\"x\"}").ok());
}

TEST(CheckJsonTest, RejectsMalformedValues) {
  EXPECT_FALSE(CheckJson("").ok());
  EXPECT_FALSE(CheckJson("{").ok());
  EXPECT_FALSE(CheckJson("[1,]").ok());
  EXPECT_FALSE(CheckJson("{\"a\":}").ok());
  EXPECT_FALSE(CheckJson("{'a':1}").ok());
  EXPECT_FALSE(CheckJson("NaN").ok());
  EXPECT_FALSE(CheckJson("01").ok());
  EXPECT_FALSE(CheckJson("{} trailing").ok());
  EXPECT_FALSE(CheckJson("\"unterminated").ok());
}

TEST(CheckChromeTraceTest, AcceptsMinimalDocument) {
  const char* doc =
      "{\"traceEvents\":["
      "{\"name\":\"b\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\"pid\":1,\"tid\":1},"
      "{\"name\":\"i\",\"ph\":\"i\",\"ts\":2,\"pid\":1,\"tid\":1}"
      "],\"displayTimeUnit\":\"ms\"}";
  Status status = CheckChromeTrace(doc);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(CheckChromeTraceTest, RejectsMissingRequiredMembers) {
  // No traceEvents member at all.
  EXPECT_FALSE(CheckChromeTrace("{}").ok());
  // Top level is not an object.
  EXPECT_FALSE(CheckChromeTrace("[]").ok());
  // Event missing "ts".
  EXPECT_FALSE(
      CheckChromeTrace("{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"i\","
                       "\"pid\":1,\"tid\":1}]}")
          .ok());
  // Complete event missing "dur".
  EXPECT_FALSE(
      CheckChromeTrace("{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\","
                       "\"ts\":0,\"pid\":1,\"tid\":1}]}")
          .ok());
  // Event is not an object.
  EXPECT_FALSE(CheckChromeTrace("{\"traceEvents\":[42]}").ok());
}

}  // namespace
}  // namespace wsq
