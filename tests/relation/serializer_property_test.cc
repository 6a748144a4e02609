// Property tests: random tuples over random schemas must round-trip
// through the wire format, and random TPC-H blocks must survive the
// whole payload path (serialize -> SOAP envelope -> parse -> deserialize).
// The run-based field escaping and the double writer are also checked
// against byte-at-a-time and snprintf references.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "wsq/codec/soap_codec.h"
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
    columns.push_back({std::string("c").append(std::to_string(i)), type});
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

  // Through the envelope: encode, parse, decode, deserialize.
  const std::string doc =
      codec::SoapCodec().EncodeBlockResponse(3, false, schema, block).value();
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

// Splits on unescaped '|' and decodes escapes ("\\n" is a newline, any
// other escaped byte stands for itself). nullopt on a dangling escape.
std::optional<std::vector<std::string>> ReferenceSplitFields(
    const std::string& line) {
  std::vector<std::string> fields(1);
  for (size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '|') {
      fields.emplace_back();
    } else if (line[i] != '\\') {
      fields.back() += line[i];
    } else {
      if (i + 1 >= line.size()) return std::nullopt;
      const char next = line[++i];
      fields.back() += next == 'n' ? '\n' : next;
    }
  }
  return fields;
}

// Uniform over every 64-bit pattern.
uint64_t RandomBits(Random& rng) {
  return static_cast<uint64_t>(rng.UniformInt(
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max()));
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
      const uint64_t bits = RandomBits(rng);
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
  TupleSerializer serializer(Schema({{"s", ColumnType::kString}}));
  for (int trial = 0; trial < 500; ++trial) {
    const std::string raw = RandomBytes(rng);
    Result<std::string> escaped = serializer.Serialize(Tuple({Value(raw)}));
    ASSERT_TRUE(escaped.ok());
    EXPECT_EQ(escaped.value(), ReferenceEscapeField(raw));

    // The raw bytes read as a wire row: one field, several, or a
    // dangling escape.
    const std::optional<std::vector<std::string>> want =
        ReferenceSplitFields(raw);
    const bool one_field = want.has_value() && want->size() == 1;
    Result<Tuple> got = serializer.Deserialize(raw);
    ASSERT_EQ(got.ok(), one_field) << "input: " << raw;
    if (one_field) {
      EXPECT_EQ(std::get<std::string>(got.value().value(0)), want->front());
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

// Byte-at-a-time XML text escaping.
std::string ReferenceXmlEscape(const std::string& raw) {
  std::string out;
  for (char c : raw) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// The field form of `block` built per value: std::to_string for
// integers, snprintf for doubles, ReferenceEscapeField for strings.
std::string ReferenceRows(const RowBlock& block, size_t num_columns) {
  std::string rows;
  char buf[400];
  for (size_t r = 0; r < block.size(); ++r) {
    for (size_t c = 0; c < num_columns; ++c) {
      if (c > 0) rows += '|';
      const Value& v = block.value(r, c);
      if (const auto* i = std::get_if<int64_t>(&v)) {
        rows += std::to_string(*i);
      } else if (const auto* d = std::get_if<double>(&v)) {
        std::snprintf(buf, sizeof(buf), "%.2f", *d);
        rows += buf;
      } else {
        rows += ReferenceEscapeField(std::get<std::string>(v));
      }
    }
    rows += '\n';
  }
  return rows;
}

// A BlockResponse document built from literals around ReferenceRows,
// with ReferenceXmlEscape over the whole payload.
std::string ReferenceBlockResponse(int64_t session_id, const RowBlock& block,
                                   size_t num_columns) {
  const std::string payload = ReferenceRows(block, num_columns);
  return "<?xml version=\"1.0\" encoding=\"UTF-8\"?>"
         "<soapenv:Envelope xmlns:soapenv="
         "\"http://schemas.xmlsoap.org/soap/envelope/\"><soapenv:Body>"
         "<BlockResponse xmlns=\"urn:wsq:data-service\"><sessionId>" +
         std::to_string(session_id) +
         "</sessionId><endOfResults>false</endOfResults><numTuples>" +
         std::to_string(block.size()) + "</numTuples>" +
         (payload.empty() ? "<payload/>"
                          : "<payload>" + ReferenceXmlEscape(payload) +
                                "</payload>") +
         "</BlockResponse></soapenv:Body></soapenv:Envelope>";
}

int64_t RandomInt64(Random& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return std::numeric_limits<int64_t>::min();
    case 1:
      return std::numeric_limits<int64_t>::max();
    default:
      return static_cast<int64_t>(RandomBits(rng));
  }
}

// Rows of (int64, string, double, string).
std::vector<Tuple> RandomWideRows(Random& rng, int64_t n) {
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Tuple({Value(RandomInt64(rng)), Value(RandomBytes(rng)),
                          Value(RandomDouble(rng)), Value(RandomBytes(rng))}));
  }
  return rows;
}

std::vector<const Tuple*> Pointers(const std::vector<Tuple>& rows) {
  std::vector<const Tuple*> out;
  for (const Tuple& row : rows) out.push_back(&row);
  return out;
}

// Bytes some wire form escapes: the field escapes and XML's specials.
constexpr std::string_view kEscapedBytes = "|\\\n&<>\"'";

// `length` bytes none of which is escaped, with `special` at `at` when
// `at` < `length`.
std::string SampleString(Random& rng, size_t length, char special,
                         size_t at) {
  static constexpr std::string_view kClean = "abcXYZ019 .,;:!#%";
  std::string s;
  for (size_t i = 0; i < length; ++i) {
    s += kClean[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kClean.size()) - 1))];
  }
  if (at < length) s[at] = special;
  return s;
}

// Checks the facts a tuple took in its constructor against a byte loop
// over its values.
::testing::AssertionResult HasReferenceFacts(const Tuple& tuple) {
  size_t string_bytes = 0;
  bool escape_free = true;
  for (const Value& v : tuple.values()) {
    if (const auto* s = std::get_if<std::string>(&v)) {
      string_bytes += s->size();
      escape_free &= s->find_first_of(kEscapedBytes) == std::string::npos;
    }
  }
  if (tuple.string_bytes() != string_bytes ||
      tuple.escape_free() != escape_free) {
    return ::testing::AssertionFailure()
           << tuple.ToString() << ": string_bytes " << tuple.string_bytes()
           << " (want " << string_bytes << "), escape_free "
           << tuple.escape_free() << " (want " << escape_free << ")";
  }
  return ::testing::AssertionSuccess();
}

TEST_P(SerializerDifferentialTest, RowsMatchAPerValueReference) {
  Random rng(GetParam() * 29 + 11);
  {
    const Schema schema({{"i", ColumnType::kInt64},
                         {"s", ColumnType::kString},
                         {"d", ColumnType::kDouble}});
    std::vector<Tuple> block;
    for (int row = 0; row < 50; ++row) {
      block.push_back(Tuple({Value(static_cast<int64_t>(RandomBits(rng))),
                             Value(RandomBytes(rng)),
                             Value(RandomDouble(rng))}));
    }
    Result<std::string> got = TupleSerializer(schema).SerializeBlock(block);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), ReferenceRows(block, 3));
  }

  // Rows of (int64, string, double, string) with strings 0-33 bytes
  // long: each escaped byte at the start, middle and end of one string,
  // and clean rows mixed in at random. Rows reach the block by copy,
  // move construction and move assignment.
  const Schema wide({{"i", ColumnType::kInt64},
                     {"s", ColumnType::kString},
                     {"d", ColumnType::kDouble},
                     {"t", ColumnType::kString}});
  std::vector<Tuple> rows;
  const auto add = [&](std::string s, std::string t) {
    if (rng.Bernoulli(0.5)) std::swap(s, t);
    Tuple tuple({Value(RandomInt64(rng)), Value(std::move(s)),
                 Value(RandomDouble(rng)), Value(std::move(t))});
    ASSERT_TRUE(HasReferenceFacts(tuple));
    switch (rows.size() % 3) {
      case 0:
        rows.push_back(tuple);
        ASSERT_TRUE(HasReferenceFacts(rows.back()));
        break;
      case 1:
        rows.push_back(std::move(tuple));
        break;
      default:
        rows.emplace_back();
        rows.back() = std::move(tuple);
    }
    if (rows.size() % 3 != 1) {
      // Moved from: empty, and no strings.
      EXPECT_EQ(tuple.num_values(), 0u);
      EXPECT_EQ(tuple.string_bytes(), 0u);
      EXPECT_TRUE(tuple.escape_free());
    }
  };
  for (size_t length = 0; length <= 33; ++length) {
    const size_t any = static_cast<size_t>(rng.UniformInt(0, 33));
    for (char special : kEscapedBytes) {
      for (size_t at : {size_t{0}, length / 2, length - 1}) {
        if (length == 0) continue;
        add(SampleString(rng, length, special, at),
            SampleString(rng, any, ' ', any));
        while (rng.Bernoulli(0.5)) {
          add(SampleString(rng, length, ' ', length),
              SampleString(rng, any, ' ', any));
        }
      }
    }
    add(SampleString(rng, length, ' ', length), "");
  }
  for (const Tuple& row : rows) ASSERT_TRUE(HasReferenceFacts(row));

  // Each projection in the field form and in the XML form.
  const std::vector<size_t> reordered = {3, 2, 0, 1};
  const std::vector<size_t> subset = {1, 3};
  const std::vector<size_t> duplicated = {1, 3, 1, 0, 1};
  const codec::SoapCodec soap;
  for (const std::vector<size_t>* columns :
       {static_cast<const std::vector<size_t>*>(nullptr), &reordered, &subset,
        &duplicated}) {
    const Schema schema =
        columns == nullptr ? wide : wide.Project(*columns).value();
    const RowBlock block(Pointers(rows), columns);
    const size_t width = schema.num_columns();
    Result<std::string> fields = TupleSerializer(schema).SerializeBlock(block);
    ASSERT_TRUE(fields.ok());
    EXPECT_EQ(fields.value(), ReferenceRows(block, width)) << width;
    Result<std::string> xml = soap.EncodeBlockResponse(9, false, schema, block);
    ASSERT_TRUE(xml.ok());
    EXPECT_EQ(xml.value(), ReferenceBlockResponse(9, block, width)) << width;
  }

  // Default-constructed tuples hold no values and no strings; under an
  // empty schema each is an empty row.
  const std::vector<Tuple> empty(3);
  for (const Tuple& row : empty) {
    EXPECT_EQ(row.num_values(), 0u);
    ASSERT_TRUE(HasReferenceFacts(row));
    EXPECT_TRUE(row.escape_free());
  }
  EXPECT_EQ(TupleSerializer(Schema()).SerializeBlock(empty).value(), "\n\n\n");
  EXPECT_EQ(soap.EncodeBlockResponse(9, false, Schema(), empty).value(),
            ReferenceBlockResponse(9, empty, 0));
}

TEST_P(SerializerDifferentialTest, SoapBlockResponsesMatchAReferenceEncoder) {
  Random rng(GetParam() * 41 + 13);
  const Schema wide({{"i", ColumnType::kInt64},
                     {"s", ColumnType::kString},
                     {"d", ColumnType::kDouble},
                     {"t", ColumnType::kString}});
  // Reordered, with a repeated column.
  const std::vector<size_t> reordered = {3, 2, 0, 1, 2};
  const Schema reordered_schema({{"t", ColumnType::kString},
                                 {"d", ColumnType::kDouble},
                                 {"i", ColumnType::kInt64},
                                 {"s", ColumnType::kString},
                                 {"d2", ColumnType::kDouble}});
  const codec::SoapCodec soap;
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<Tuple> rows =
        RandomWideRows(rng, rng.UniformInt(0, 30));
    const RowBlock identity(Pointers(rows), nullptr);
    const RowBlock projected(Pointers(rows), &reordered);
    EXPECT_EQ(soap.EncodeBlockResponse(trial, false, wide, identity).value(),
              ReferenceBlockResponse(trial, identity, 4));
    EXPECT_EQ(soap.EncodeBlockResponse(trial, false, reordered_schema,
                                       projected)
                  .value(),
              ReferenceBlockResponse(trial, projected, 5));
  }
}

// The status of the first row of `block` that does not conform.
Status FirstRowStatus(const RowBlock& block, const Schema& schema) {
  for (size_t i = 0; i < block.size(); ++i) {
    Status status = block.RowConformsTo(i, schema);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

TEST_P(SerializerDifferentialTest, NonConformingRowsFailWithRowConformsTo) {
  Random rng(GetParam() * 43 + 17);
  const Schema wide({{"i", ColumnType::kInt64},
                     {"s", ColumnType::kString},
                     {"d", ColumnType::kDouble},
                     {"t", ColumnType::kString}});
  const std::vector<size_t> in_range = {3, 2, 0, 1};
  const std::vector<size_t> past_the_row = {3, 2, 0, 4};
  const std::vector<size_t> too_narrow = {3, 2, 0};
  const codec::SoapCodec soap;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Tuple> rows = RandomWideRows(rng, rng.UniformInt(1, 20));
    const size_t bad = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(rows.size()) - 1));
    std::vector<Value> values = rows[bad].values();
    switch (rng.UniformInt(0, 2)) {
      case 0:  // a value of the wrong type
        values[static_cast<size_t>(rng.UniformInt(0, 3))] =
            Value(std::string("wrong"));
        values[1] = Value(int64_t{7});
        break;
      case 1:  // one value too few
        values.pop_back();
        break;
      default:  // one value too many
        values.push_back(Value(1.5));
    }
    rows[bad] = Tuple(std::move(values));
    const std::vector<const std::vector<size_t>*> projections = {
        nullptr, &in_range, &past_the_row, &too_narrow};
    for (const std::vector<size_t>* columns : projections) {
      const RowBlock block(Pointers(rows), columns);
      const Status want = FirstRowStatus(block, wide);
      Result<std::string> got = soap.EncodeBlockResponse(1, false, wide, block);
      if (want.ok()) {
        EXPECT_TRUE(got.ok()) << got.status().ToString();
        continue;
      }
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status(), want) << got.status().ToString();
      EXPECT_EQ(TupleSerializer(wide).SerializeBlock(block).status(), want);
    }
  }
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
