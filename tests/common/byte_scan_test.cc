#include "wsq/common/byte_scan.h"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace wsq {
namespace {

constexpr ByteSet kSet("|\n&");

// The two sets the SOAP row writer uses, and the XML escaper's.
constexpr char kFieldBytes[] = "|\\\n";
constexpr char kFieldAndXmlBytes[] = "|\\\n&<>\"'";
constexpr ByteSet kFieldSet(kFieldBytes);
constexpr ByteSet kFieldAndXmlSet(kFieldAndXmlBytes);

size_t ReferenceFind(std::string_view text, size_t from) {
  for (size_t i = from; i < text.size(); ++i) {
    if (kSet.contains(static_cast<unsigned char>(text[i]))) return i;
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

using CopyFn = bool (*)(std::string_view, const ByteSet&, char*);

struct CopyPath {
  const char* name;
  CopyFn copy;
};

// Every CopyIfClean implementation this target compiles.
std::vector<CopyPath> CopyPaths() {
  std::vector<CopyPath> paths = {
      {"CopyIfClean", CopyIfClean},
      {"scalar", byte_scan_internal::CopyIfCleanScalar},
  };
#if defined(__SSE2__)
  paths.push_back({"sse2", byte_scan_internal::CopyIfCleanSse2});
#endif
  return paths;
}

// Runs every path on `text` (the bytes of `set` listed in `bytes`) and
// compares each with a byte loop: the copy must equal the text, and the
// result must say whether no byte of the text is listed. Source and
// destination are heap blocks of exactly the text's length, so a
// sanitized build catches any access outside them.
::testing::AssertionResult CopiesLikeAByteLoop(std::string_view text,
                                               const ByteSet& set,
                                               std::string_view bytes) {
  const bool clean = text.find_first_of(bytes) == std::string_view::npos;
  const size_t n = text.size();
  for (const CopyPath& path : CopyPaths()) {
    const auto src = std::make_unique<char[]>(n);
    const auto dst = std::make_unique<char[]>(n);
    std::copy(text.begin(), text.end(), src.get());
    std::fill_n(dst.get(), n, '\x7f');
    const bool got = path.copy(std::string_view(src.get(), n), set, dst.get());
    if (got != clean || std::string_view(dst.get(), n) != text) {
      return ::testing::AssertionFailure()
             << path.name << " on length " << n << ": returned " << got
             << " (want " << clean << "), copied \""
             << std::string_view(dst.get(), n) << "\"";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ByteScanTest, CopyIfCleanFindsEachSpecialByteAtEveryLengthAndPosition) {
  // Every length across the 4-, 8- and 16-byte paths and five 16-byte
  // chunks, with each listed byte of each set at each position (and
  // with none), on a text whose other bytes vary.
  const std::string_view sets[] = {kFieldBytes, kFieldAndXmlBytes};
  const ByteSet* byte_sets[] = {&kFieldSet, &kFieldAndXmlSet};
  for (size_t s = 0; s < 2; ++s) {
    for (size_t length = 0; length <= 80; ++length) {
      std::string text(length, ' ');
      for (size_t i = 0; i < length; ++i) text[i] = "abcdefghXYZ0189 "[i % 16];
      ASSERT_TRUE(CopiesLikeAByteLoop(text, *byte_sets[s], sets[s]));
      for (char special : sets[s]) {
        for (size_t at = 0; at < length; ++at) {
          std::string dirty = text;
          dirty[at] = special;
          ASSERT_TRUE(CopiesLikeAByteLoop(dirty, *byte_sets[s], sets[s]))
              << "byte " << static_cast<int>(special) << " at " << at;
        }
      }
    }
  }
}

TEST(ByteScanTest, CopyIfCleanSeesEveryByteValueAtEveryPosition) {
  // All 256 byte values, including NUL, bytes above 0x7f and each
  // set's own bytes, at each position of lengths that end each path.
  for (size_t length : {1, 7, 15, 16, 17, 33}) {
    for (size_t at = 0; at < length; ++at) {
      for (int byte = 0; byte < 256; ++byte) {
        std::string text(length, 'q');
        text[at] = static_cast<char>(byte);
        ASSERT_TRUE(CopiesLikeAByteLoop(text, kFieldSet, kFieldBytes))
            << "byte " << byte << " at " << at;
        ASSERT_TRUE(
            CopiesLikeAByteLoop(text, kFieldAndXmlSet, kFieldAndXmlBytes))
            << "byte " << byte << " at " << at;
      }
    }
  }
}

TEST(ByteScanTest, ASetHoldsExactlyItsListedBytes) {
  for (int byte = 0; byte < 256; ++byte) {
    const auto c = static_cast<unsigned char>(byte);
    const bool listed = c != 0 && std::string_view(kFieldAndXmlBytes).find(
                                      static_cast<char>(c)) !=
                                      std::string_view::npos;
    EXPECT_EQ(kFieldAndXmlSet.contains(c), listed) << byte;
    EXPECT_EQ(kXmlSpecialBytes.contains(c),
              c != 0 && std::string_view("&<>\"'").find(static_cast<char>(
                            c)) != std::string_view::npos)
        << byte;
  }
  // A one-byte set finds only that byte on every path.
  constexpr ByteSet kPipe("|");
  EXPECT_TRUE(CopiesLikeAByteLoop("0123456789abcdef&<>", kPipe, "|"));
  EXPECT_TRUE(CopiesLikeAByteLoop("0123456789abcdef&<|", kPipe, "|"));
}

// ContainsAny on `text`, copied to a heap block of exactly its length,
// against FindInSet.
::testing::AssertionResult ContainsAnyLikeFindInSet(std::string_view text,
                                                    const ByteSet& set) {
  const size_t n = text.size();
  const auto bytes = std::make_unique<char[]>(n);
  std::copy(text.begin(), text.end(), bytes.get());
  const std::string_view copy(bytes.get(), n);
  const bool want = FindInSet(copy, 0, set) != n;
  if (ContainsAny(copy, set) != want) {
    return ::testing::AssertionFailure()
           << "ContainsAny on length " << n << " returned " << !want;
  }
  return ::testing::AssertionSuccess();
}

TEST(ByteScanTest, ContainsAnyAgreesWithFindInSet) {
  // Every length across the 4-, 8- and 16-byte paths and five 16-byte
  // chunks, with each listed byte of each set at each position (and
  // with none)...
  const std::string_view sets[] = {kFieldBytes, kFieldAndXmlBytes};
  const ByteSet* byte_sets[] = {&kFieldSet, &kFieldAndXmlSet};
  for (size_t s = 0; s < 2; ++s) {
    for (size_t length = 0; length <= 80; ++length) {
      std::string text(length, ' ');
      for (size_t i = 0; i < length; ++i) text[i] = "abcdefghXYZ0189 "[i % 16];
      ASSERT_TRUE(ContainsAnyLikeFindInSet(text, *byte_sets[s]));
      for (char special : sets[s]) {
        for (size_t at = 0; at < length; ++at) {
          std::string dirty = text;
          dirty[at] = special;
          ASSERT_TRUE(ContainsAnyLikeFindInSet(dirty, *byte_sets[s]))
              << "byte " << static_cast<int>(special) << " at " << at;
        }
      }
    }
  }
  // ...and all 256 byte values at each position of lengths that end
  // each path.
  for (size_t length : {1, 7, 15, 16, 17, 33}) {
    for (size_t at = 0; at < length; ++at) {
      for (int byte = 0; byte < 256; ++byte) {
        std::string text(length, 'q');
        text[at] = static_cast<char>(byte);
        ASSERT_TRUE(ContainsAnyLikeFindInSet(text, kFieldSet))
            << "byte " << byte << " at " << at;
        ASSERT_TRUE(ContainsAnyLikeFindInSet(text, kFieldAndXmlSet))
            << "byte " << byte << " at " << at;
      }
    }
  }
}

TEST(ByteScanTest, AppendEscapedRewritesOnlyTheSetsBytes) {
  std::string out = "x";
  AppendEscaped("a<b>&c\"d'e|", kXmlSpecialBytes, XmlEntity, out);
  EXPECT_EQ(out, "xa&lt;b&gt;&amp;c&quot;d&apos;e|");
  AppendEscaped("", kXmlSpecialBytes, XmlEntity, out);
  AppendEscaped(" clean text longer than sixteen bytes", kXmlSpecialBytes,
                XmlEntity, out);
  EXPECT_EQ(out,
            "xa&lt;b&gt;&amp;c&quot;d&apos;e| clean text longer than "
            "sixteen bytes");
}

}  // namespace
}  // namespace wsq
