#include "wsq/common/byte_scan.h"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace wsq {
namespace {

constexpr ByteSet kSet = ByteSetOf("|\n&");

size_t ReferenceFind(std::string_view text, size_t from) {
  for (size_t i = from; i < text.size(); ++i) {
    if (kSet[static_cast<unsigned char>(text[i])]) return i;
  }
  return text.size();
}

TEST(ByteScanTest, FindInSetMatchesAByteLoopAtEveryLengthAndStart) {
  // Lengths on both sides of each eight-byte window, a special byte at
  // every position (or none), and every start offset. Each text sits in
  // a heap block of exactly its length, so a sanitized build catches a
  // read past its end.
  for (size_t length = 0; length <= 40; ++length) {
    for (size_t special = 0; special <= length; ++special) {
      const auto bytes = std::make_unique<char[]>(length);
      std::fill_n(bytes.get(), length, 'a');
      if (special < length) bytes[special] = "|\n&"[special % 3];
      const std::string_view text(bytes.get(), length);
      for (size_t from = 0; from <= length; ++from) {
        EXPECT_EQ(FindInSet(text, from, kSet), ReferenceFind(text, from))
            << "length " << length << ", special at " << special
            << ", from " << from;
      }
    }
  }
}

TEST(ByteScanTest, ByteSetHelpersAndEscaping) {
  const ByteSet both = ByteSetUnion(ByteSetOf("|"), kXmlSpecialBytes);
  EXPECT_TRUE(both['|']);
  EXPECT_TRUE(both['\'']);
  EXPECT_FALSE(both['a']);
  std::string out = "x";
  AppendEscaped("a<b>&c\"d'e|", kXmlSpecialBytes, XmlEntity, out);
  EXPECT_EQ(out, "xa&lt;b&gt;&amp;c&quot;d&apos;e|");
}

}  // namespace
}  // namespace wsq
