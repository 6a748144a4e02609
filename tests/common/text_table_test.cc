#include "wsq/common/text_table.h"

#include <cfloat>

#include <gtest/gtest.h>

namespace wsq {
namespace {

TEST(FormatDoubleTest, RendersFixedPrecision) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
}

TEST(FormatDoubleTest, HugeValuesAreNotTruncated) {
  // 309 integer digits, the point and two decimals.
  const std::string max = FormatDouble(DBL_MAX, 2);
  EXPECT_EQ(max.size(), 312u);
  EXPECT_EQ(max.substr(0, 17), "17976931348623157");
  EXPECT_EQ(max.substr(max.size() - 3), ".00");
  EXPECT_EQ(FormatDouble(-DBL_MAX, 2), "-" + max);
}

TEST(TextTableTest, RendersHeaderAndRows) {
  TextTable t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"beta", "22"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  // Separator line present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTableTest, ColumnsAreAligned) {
  TextTable t({"a", "b"});
  t.AddRow({"xxxxxxxx", "1"});
  t.AddRow({"y", "2"});
  const std::string out = t.ToString();
  // Both "1" and "2" should appear at the same column offset.
  size_t line_start = 0;
  std::vector<size_t> offsets;
  while (line_start < out.size()) {
    size_t line_end = out.find('\n', line_start);
    if (line_end == std::string::npos) line_end = out.size();
    const std::string line = out.substr(line_start, line_end - line_start);
    const size_t pos1 = line.find(" 1");
    const size_t pos2 = line.find(" 2");
    if (pos1 != std::string::npos) offsets.push_back(pos1);
    if (pos2 != std::string::npos) offsets.push_back(pos2);
    line_start = line_end + 1;
  }
  ASSERT_EQ(offsets.size(), 2u);
  EXPECT_EQ(offsets[0], offsets[1]);
}

TEST(TextTableTest, ShortRowsArePadded) {
  TextTable t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_EQ(t.num_rows(), 1u);
  // Should not crash and should still render three columns worth of header.
  const std::string out = t.ToString();
  EXPECT_NE(out.find("only"), std::string::npos);
}

TEST(TextTableTest, NumericRowFormatsValues) {
  TextTable t({"conf", "v1", "v2"});
  t.AddNumericRow("conf1.1", {1.39456, 0.98321}, 2);
  const std::string out = t.ToString();
  EXPECT_NE(out.find("1.39"), std::string::npos);
  EXPECT_NE(out.find("0.98"), std::string::npos);
}

TEST(TextTableTest, LongRowExtendsColumns) {
  TextTable t({"a"});
  t.AddRow({"1", "2", "3"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("3"), std::string::npos);
}

}  // namespace
}  // namespace wsq
