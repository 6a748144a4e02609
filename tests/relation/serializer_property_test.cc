// Property tests: random tuples over random schemas must round-trip
// through the wire format, and random TPC-H blocks must survive the
// whole payload path (serialize -> SOAP envelope -> parse -> deserialize).
// The run-based field escaping and the double writer are also checked
// against byte-at-a-time and snprintf references.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include <gtest/gtest.h>

#include "wsq/common/random.h"
#include "wsq/relation/tpch_gen.h"
#include "wsq/relation/tuple_serializer.h"
#include "wsq/soap/message.h"

namespace wsq {
namespace {

Schema RandomSchema(Random& rng) {
  std::vector<Column> columns;
  const int64_t n = rng.UniformInt(1, 6);
  for (int64_t i = 0; i < n; ++i) {
    const ColumnType type = static_cast<ColumnType>(rng.UniformInt(0, 2));
    columns.push_back({"c" + std::to_string(i), type});
  }
  return Schema(std::move(columns));
}

std::string RandomString(Random& rng) {
  // Deliberately hostile: field separators, escapes, newlines, XML
  // specials, spaces.
  static constexpr std::string_view kChars =
      "abcXYZ019|\\\n<>&\"' .,;:!";
  std::string s;
  const int64_t len = rng.UniformInt(0, 24);
  for (int64_t i = 0; i < len; ++i) {
    s += kChars[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kChars.size()) - 1))];
  }
  return s;
}

Tuple RandomTuple(Random& rng, const Schema& schema) {
  std::vector<Value> values;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    switch (schema.column(i).type) {
      case ColumnType::kInt64:
        values.emplace_back(rng.UniformInt(-1000000, 1000000));
        break;
      case ColumnType::kDouble:
        // Two-decimals values round-trip exactly through the money
        // format.
        values.emplace_back(
            static_cast<double>(rng.UniformInt(-99999, 99999)) / 100.0);
        break;
      case ColumnType::kString:
        values.emplace_back(RandomString(rng));
        break;
    }
  }
  return Tuple(std::move(values));
}

class SerializerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializerPropertyTest, RandomTuplesRoundTrip) {
  Random rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const Schema schema = RandomSchema(rng);
    TupleSerializer serializer(schema);
    std::vector<Tuple> block;
    const int64_t rows = rng.UniformInt(0, 8);
    for (int64_t i = 0; i < rows; ++i) {
      block.push_back(RandomTuple(rng, schema));
    }

    Result<std::string> payload = serializer.SerializeBlock(block);
    ASSERT_TRUE(payload.ok());
    Result<std::vector<Tuple>> back =
        serializer.DeserializeBlock(payload.value());
    ASSERT_TRUE(back.ok()) << back.status().ToString() << "\npayload:\n"
                           << payload.value();
    ASSERT_EQ(back.value().size(), block.size());
    for (size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(back.value()[i], block[i]) << "row " << i;
    }
  }
}

TEST_P(SerializerPropertyTest, FullSoapPayloadPathRoundTrips) {
  Random rng(GetParam() * 31 + 7);
  const Schema schema = RandomSchema(rng);
  TupleSerializer serializer(schema);
  std::vector<Tuple> block;
  for (int i = 0; i < 5; ++i) block.push_back(RandomTuple(rng, schema));

  BlockResponse response;
  response.session_id = 3;
  response.num_tuples = 5;
  response.payload = serializer.SerializeBlock(block).value();

  // Through the envelope: encode, parse, decode, deserialize.
  const std::string doc = EncodeBlockResponse(response);
  Result<XmlNode> payload_node = ParseEnvelope(doc);
  ASSERT_TRUE(payload_node.ok());
  Result<BlockResponse> decoded = DecodeBlockResponse(payload_node.value());
  ASSERT_TRUE(decoded.ok());
  Result<std::vector<Tuple>> back =
      serializer.DeserializeBlock(decoded.value().payload);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), block.size());
  for (size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(back.value()[i], block[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerPropertyTest,
                         ::testing::Values(3, 9, 27, 81, 243, 729));

std::string ReferenceEscapeField(const std::string& raw) {
  std::string out;
  for (char c : raw) {
    if (c == '|') {
      out += "\\|";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// nullopt on a dangling escape.
std::optional<std::string> ReferenceUnescapeField(const std::string& escaped) {
  std::string out;
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\') {
      out += escaped[i];
      continue;
    }
    if (i + 1 >= escaped.size()) return std::nullopt;
    const char next = escaped[++i];
    out += next == 'n' ? '\n' : next;
  }
  return out;
}

// Random bytes over all 256 values, with runs of one repeated byte and
// extra backslashes so escapes are dense as well as sparse.
std::string RandomBytes(Random& rng) {
  std::string s;
  const int64_t len = rng.UniformInt(0, 64);
  while (static_cast<int64_t>(s.size()) < len) {
    const char c = rng.Bernoulli(0.15)
                       ? '\\'
                       : static_cast<char>(rng.UniformInt(0, 255));
    s.append(static_cast<size_t>(rng.Bernoulli(0.1) ? rng.UniformInt(1, 20)
                                                    : 1),
             c);
  }
  return s;
}

double RandomDouble(Random& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0: {  // any bit pattern: every exponent, NaNs, infinities
      const uint64_t bits = rng.Next64();
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return d;
    }
    case 1:  // near a rounding boundary of the second decimal
      return static_cast<double>(rng.UniformInt(-2000000, 2000000)) / 1000.0 +
             0.0005;
    case 2:
      return rng.Uniform(-1e6, 1e6);
    default:
      return std::ldexp(rng.Uniform(-1.0, 1.0),
                        static_cast<int>(rng.UniformInt(-1074, 1023)));
  }
}

class SerializerDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SerializerDifferentialTest, EscapeAndUnescapeMatchTheReference) {
  Random rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    const std::string raw = RandomBytes(rng);
    EXPECT_EQ(EscapeField(raw), ReferenceEscapeField(raw));

    const std::optional<std::string> want = ReferenceUnescapeField(raw);
    Result<std::string> got = UnescapeField(raw);
    ASSERT_EQ(got.ok(), want.has_value()) << "input: " << raw;
    if (want) {
      EXPECT_EQ(got.value(), *want);
    }
  }
}

TEST_P(SerializerDifferentialTest, DoublesPrintLikeSnprintf) {
  Random rng(GetParam() * 17 + 3);
  TupleSerializer serializer(Schema({{"x", ColumnType::kDouble}}));
  char want[400];
  for (int trial = 0; trial < 2000; ++trial) {
    const double d = RandomDouble(rng);
    std::snprintf(want, sizeof(want), "%.2f", d);
    Result<std::string> got = serializer.Serialize(Tuple({Value(d)}));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), want) << "value " << d;
  }
}

TEST_P(SerializerDifferentialTest, RowsMatchAPerValueReference) {
  Random rng(GetParam() * 29 + 11);
  const Schema schema({{"i", ColumnType::kInt64},
                       {"s", ColumnType::kString},
                       {"d", ColumnType::kDouble}});
  TupleSerializer serializer(schema);
  std::vector<Tuple> block;
  std::string want;
  char buf[400];
  for (int row = 0; row < 50; ++row) {
    const int64_t i = static_cast<int64_t>(rng.Next64());
    const std::string s = RandomBytes(rng);
    const double d = RandomDouble(rng);
    std::snprintf(buf, sizeof(buf), "%.2f", d);
    want += std::to_string(i) + "|" + ReferenceEscapeField(s) + "|" + buf +
            "\n";
    block.push_back(Tuple({Value(i), Value(s), Value(d)}));
  }
  Result<std::string> got = serializer.SerializeBlock(block);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerDifferentialTest,
                         ::testing::Values(5, 25, 125, 625));

TEST(SerializerTpchTest, FullCustomerBlockSurvivesWirePath) {
  TpchGenOptions gen;
  gen.scale = 0.004;  // 600 rows
  auto table = GenerateCustomer(gen).value();
  TupleSerializer serializer(CustomerSchema());

  std::vector<Tuple> block(table->rows().begin(), table->rows().end());
  const std::string payload = serializer.SerializeBlock(block).value();
  const std::vector<Tuple> back =
      serializer.DeserializeBlock(payload).value();
  ASSERT_EQ(back.size(), block.size());
  for (size_t i = 0; i < block.size(); i += 37) {
    // Doubles are rounded to 2 decimals on the wire; compare fields.
    EXPECT_EQ(std::get<int64_t>(back[i].value(0)),
              std::get<int64_t>(block[i].value(0)));
    EXPECT_EQ(std::get<std::string>(back[i].value(1)),
              std::get<std::string>(block[i].value(1)));
    EXPECT_NEAR(std::get<double>(back[i].value(5)),
                std::get<double>(block[i].value(5)), 0.005);
  }
}

}  // namespace
}  // namespace wsq
