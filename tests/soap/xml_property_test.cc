// Property tests for the XML codec: randomly generated documents must
// survive serialize -> parse -> serialize unchanged, for any seed; and
// the run-based escaper and entity decoder must agree with the
// byte-at-a-time references below on strings over all 256 byte values.

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "support/xml.h"
#include "wsq/common/random.h"
#include "wsq/soap/xml.h"

namespace wsq {
namespace {

std::string RandomName(Random& rng) {
  static constexpr std::string_view kAlpha =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
  std::string name;
  const int64_t len = rng.UniformInt(1, 10);
  for (int64_t i = 0; i < len; ++i) {
    name += kAlpha[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kAlpha.size()) - 1))];
  }
  // Occasionally add a namespace prefix.
  if (rng.Bernoulli(0.2)) return "ns:" + name;
  return name;
}

std::string RandomText(Random& rng) {
  // Includes every XML special character and some whitespace — but not
  // raw control characters, which our documents never carry.
  static constexpr std::string_view kChars =
      "abc XYZ 0123456789 <>&\"' .,;:!?()[]{}|/\\=+-*#@~";
  std::string text;
  const int64_t len = rng.UniformInt(0, 40);
  for (int64_t i = 0; i < len; ++i) {
    text += kChars[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kChars.size()) - 1))];
  }
  return text;
}

XmlNode RandomTree(Random& rng, int depth) {
  XmlNode node(RandomName(rng));
  const int64_t attrs = rng.UniformInt(0, 3);
  for (int64_t i = 0; i < attrs; ++i) {
    node.AddAttribute(RandomName(rng) + std::to_string(i), RandomText(rng));
  }
  if (depth > 0 && rng.Bernoulli(0.7)) {
    const int64_t children = rng.UniformInt(1, 4);
    for (int64_t i = 0; i < children; ++i) {
      node.AddChild(RandomTree(rng, depth - 1));
    }
  } else if (rng.Bernoulli(0.7)) {
    node.set_text(RandomText(rng));
  }
  return node;
}

bool TreesEqual(const XmlNode& a, const XmlNode& b) {
  if (a.name() != b.name() || a.text() != b.text()) return false;
  if (a.attributes() != b.attributes()) return false;
  if (a.children().size() != b.children().size()) return false;
  for (size_t i = 0; i < a.children().size(); ++i) {
    if (!TreesEqual(a.children()[i], b.children()[i])) return false;
  }
  return true;
}

class XmlRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlRoundTripTest, SerializeParseRoundTrips) {
  Random rng(GetParam());
  for (int doc = 0; doc < 20; ++doc) {
    const XmlNode original = RandomTree(rng, 4);
    const std::string serialized = ToXml(original);

    Result<XmlNode> parsed = ParseXml(serialized);
    ASSERT_TRUE(parsed.ok())
        << parsed.status().ToString() << "\ndoc: " << serialized;

    // Exact tree equality (modulo our generator never emitting mixed
    // text+children, which serialization would reorder).
    EXPECT_TRUE(TreesEqual(original, parsed.value()))
        << "mismatch for: " << serialized;
    // And the idempotence of serialization.
    EXPECT_EQ(ToXml(parsed.value()), serialized);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

class XmlGarbageTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlGarbageTest, RandomBytesNeverCrashTheParser) {
  Random rng(GetParam());
  for (int doc = 0; doc < 50; ++doc) {
    std::string garbage;
    const int64_t len = rng.UniformInt(0, 120);
    for (int64_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.UniformInt(32, 126));
    }
    // Must return (ok or error), not crash or hang.
    Result<XmlNode> parsed = ParseXml(garbage);
    if (parsed.ok()) {
      // If it parsed, it must re-serialize without issues.
      (void)ToXml(parsed.value());
    }
  }
}

TEST_P(XmlGarbageTest, TruncatedValidDocumentsFailCleanly) {
  Random rng(GetParam());
  const XmlNode tree = RandomTree(rng, 3);
  const std::string serialized = ToXml(tree);
  for (size_t cut = 1; cut < serialized.size();
       cut += std::max<size_t>(serialized.size() / 23, 1)) {
    Result<XmlNode> parsed = ParseXml(serialized.substr(0, cut));
    EXPECT_FALSE(parsed.ok()) << "truncation at " << cut << " parsed";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlGarbageTest,
                         ::testing::Values(7, 11, 17, 23, 31));

// Byte-at-a-time reference escaper.
std::string ReferenceEscape(std::string_view raw) {
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

// Byte-at-a-time reference entity decoder; nullopt where the parser
// must reject the text.
std::optional<std::string> ReferenceDecode(std::string_view raw) {
  std::string out;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '&') {
      out += raw[i];
      continue;
    }
    const size_t semi = raw.find(';', i);
    if (semi == std::string_view::npos) return std::nullopt;
    const std::string_view entity = raw.substr(i + 1, semi - i - 1);
    if (entity == "lt") {
      out += '<';
    } else if (entity == "gt") {
      out += '>';
    } else if (entity == "amp") {
      out += '&';
    } else if (entity == "quot") {
      out += '"';
    } else if (entity == "apos") {
      out += '\'';
    } else {
      return std::nullopt;
    }
    i = semi;
  }
  return out;
}

// Random bytes over all 256 values, with runs of one repeated byte so
// both clean stretches and dense special bytes occur.
std::string RandomBytes(Random& rng, int64_t max_len) {
  std::string s;
  const int64_t len = rng.UniformInt(0, max_len);
  while (static_cast<int64_t>(s.size()) < len) {
    const char c = static_cast<char>(rng.UniformInt(0, 255));
    s.append(static_cast<size_t>(rng.Bernoulli(0.1) ? rng.UniformInt(1, 20)
                                                    : 1),
             c);
  }
  return s;
}

// Raw text (no '<') mixing random bytes, the five entities, unknown
// entities and stray '&' / ';'.
std::string RandomEntityText(Random& rng) {
  static constexpr std::string_view kPieces[] = {
      "&lt;", "&gt;", "&amp;", "&quot;", "&apos;", "&", ";", "&nbsp;", "&;"};
  std::string s;
  const int64_t pieces = rng.UniformInt(0, 12);
  for (int64_t i = 0; i < pieces; ++i) {
    if (rng.Bernoulli(0.5)) {
      s += RandomBytes(rng, 16);
    } else {
      s += kPieces[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(std::size(kPieces)) - 1))];
    }
  }
  s.erase(std::remove(s.begin(), s.end(), '<'), s.end());
  return s;
}

class XmlDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlDifferentialTest, EscapeMatchesTheReference) {
  Random rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    XmlNode node("t");
    node.set_text(RandomBytes(rng, 64));
    EXPECT_EQ(ToXml(node), node.text().empty()
                               ? "<t/>"
                               : "<t>" + ReferenceEscape(node.text()) + "</t>");
  }
}

TEST_P(XmlDifferentialTest, TextAndAttributeDecodeMatchTheReference) {
  Random rng(GetParam() * 7 + 1);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string text = RandomEntityText(rng);
    const std::optional<std::string> want = ReferenceDecode(text);
    Result<XmlNode> as_text = ParseXml("<a>" + text + "</a>");
    ASSERT_EQ(as_text.ok(), want.has_value()) << "text: " << text;
    if (want) {
      EXPECT_EQ(as_text.value().text(), *want);
    }

    std::string value = text;
    value.erase(std::remove(value.begin(), value.end(), '"'), value.end());
    const std::optional<std::string> want_value = ReferenceDecode(value);
    Result<XmlNode> as_attr = ParseXml("<a v=\"" + value + "\"/>");
    ASSERT_EQ(as_attr.ok(), want_value.has_value()) << "value: " << value;
    if (want_value) {
      EXPECT_EQ(AttributeOf(as_attr.value(), "v"), *want_value);
    }
  }
}

TEST_P(XmlDifferentialTest, EscapedBytesParseBackUnchanged) {
  Random rng(GetParam() * 13 + 5);
  for (int trial = 0; trial < 200; ++trial) {
    XmlNode node("a");
    node.AddAttribute("v", RandomBytes(rng, 64));
    node.set_text(RandomBytes(rng, 256));
    Result<XmlNode> back = ParseXml(ToXml(node));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value().text(), node.text());
    EXPECT_EQ(AttributeOf(back.value(), "v"), AttributeOf(node, "v"));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlDifferentialTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace wsq
