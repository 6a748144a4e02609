#include "wsq/relation/tuple_serializer.h"

#include <cfloat>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace wsq {
namespace {

Schema TestSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"balance", ColumnType::kDouble}});
}

// Field escaping through the one-column wire row: '|', '\\' and '\n'
// are written as two-byte escapes, and nothing else is touched.
TEST(EscapeTest, RoundTripsSpecials) {
  TupleSerializer ser(Schema({{"s", ColumnType::kString}}));
  const std::string raw = "a|b\\c\nd";
  Result<std::string> escaped = ser.Serialize(Tuple({Value(raw)}));
  ASSERT_TRUE(escaped.ok());
  EXPECT_EQ(escaped.value(), "a\\|b\\\\c\\nd");
  EXPECT_EQ(escaped.value().find('\n'), std::string::npos);
  Result<Tuple> back = ser.Deserialize(escaped.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::get<std::string>(back.value().value(0)), raw);
}

TEST(EscapeTest, DanglingEscapeRejected) {
  TupleSerializer ser(Schema({{"s", ColumnType::kString}}));
  EXPECT_EQ(ser.Deserialize("abc\\").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ser.DeserializeBlock("abc\\").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TupleSerializerTest, RoundTripSimple) {
  TupleSerializer ser(TestSchema());
  Tuple t({Value(int64_t{42}), Value(std::string("alice")), Value(10.25)});
  Result<std::string> line = ser.Serialize(t);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line.value(), "42|alice|10.25");

  Result<Tuple> back = ser.Deserialize(line.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::get<int64_t>(back.value().value(0)), 42);
  EXPECT_EQ(std::get<std::string>(back.value().value(1)), "alice");
  EXPECT_DOUBLE_EQ(std::get<double>(back.value().value(2)), 10.25);
}

TEST(TupleSerializerTest, RoundTripSpecialCharacters) {
  TupleSerializer ser(TestSchema());
  Tuple t({Value(int64_t{1}), Value(std::string("pipe|back\\slash\nnl")),
           Value(0.5)});
  Result<std::string> line = ser.Serialize(t);
  ASSERT_TRUE(line.ok());
  Result<Tuple> back = ser.Deserialize(line.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::get<std::string>(back.value().value(1)),
            "pipe|back\\slash\nnl");
}

TEST(TupleSerializerTest, BlockRoundTrip) {
  TupleSerializer ser(TestSchema());
  std::vector<Tuple> block;
  for (int i = 0; i < 5; ++i) {
    block.push_back(Tuple({Value(static_cast<int64_t>(i)),
                           Value("name" + std::to_string(i)),
                           Value(i * 1.5)}));
  }
  Result<std::string> data = ser.SerializeBlock(block);
  ASSERT_TRUE(data.ok());
  Result<std::vector<Tuple>> back = ser.DeserializeBlock(data.value());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(std::get<int64_t>(back.value()[i].value(0)), i);
    EXPECT_EQ(std::get<std::string>(back.value()[i].value(1)),
              "name" + std::to_string(i));
  }
}

TEST(TupleSerializerTest, EmptyBlock) {
  TupleSerializer ser(TestSchema());
  Result<std::string> data = ser.SerializeBlock({});
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(data.value().empty());
  Result<std::vector<Tuple>> back = ser.DeserializeBlock("");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(TupleSerializerTest, NonConformingTupleRejected) {
  TupleSerializer ser(TestSchema());
  Tuple bad({Value(int64_t{1})});
  EXPECT_EQ(ser.Serialize(bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TupleSerializerTest, MalformedLinesRejected) {
  TupleSerializer ser(TestSchema());
  EXPECT_EQ(ser.Deserialize("1|only_two").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ser.Deserialize("abc|x|1.0").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ser.Deserialize("1|x|notnum").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ser.Deserialize("1|x|1.0\\").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TupleSerializerTest, DoublePrecisionIsTwoDigits) {
  // Doubles travel in money format (2 fraction digits); values round.
  TupleSerializer ser(TestSchema());
  Tuple t({Value(int64_t{1}), Value(std::string("x")), Value(1.239)});
  Result<Tuple> back = ser.Deserialize(ser.Serialize(t).value());
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(std::get<double>(back.value().value(2)), 1.24);
}

TEST(TupleSerializerTest, EveryDoubleFormTheEncoderWritesDecodes) {
  // The decoder reads doubles with from_chars, which ignores the C
  // locale; every form Serialize() emits must still parse back.
  TupleSerializer ser(Schema({{"x", ColumnType::kDouble}}));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double d : {inf, -inf, nan, -nan, -0.0, DBL_MAX, -DBL_MAX, 12.5}) {
    const std::string text = ser.Serialize(Tuple({Value(d)})).value();
    Result<Tuple> back = ser.Deserialize(text);
    ASSERT_TRUE(back.ok()) << text << ": " << back.status().ToString();
    const double got = std::get<double>(back.value().value(0));
    if (std::isnan(d)) {
      EXPECT_TRUE(std::isnan(got)) << text;
      EXPECT_EQ(std::signbit(got), std::signbit(d)) << text;
    } else {
      EXPECT_EQ(got, d) << text;
      EXPECT_EQ(std::signbit(got), std::signbit(d)) << text;
    }
  }
  EXPECT_EQ(ser.Serialize(Tuple({Value(-nan)})).value(), "-nan");
  EXPECT_EQ(ser.Serialize(Tuple({Value(-0.0)})).value(), "-0.00");
}

TEST(TupleSerializerTest, DoubleFieldsTheEncoderNeverWritesAreRejected) {
  // strtod accepted these; the encoder never writes them.
  TupleSerializer ser(Schema({{"x", ColumnType::kDouble}}));
  for (const char* text : {" 1.50", "+1.50", "0x1p3", "1.50 ", ""}) {
    EXPECT_EQ(ser.Deserialize(text).status().code(),
              StatusCode::kInvalidArgument)
        << "'" << text << "'";
  }
}

}  // namespace
}  // namespace wsq
