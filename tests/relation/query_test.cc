#include "wsq/relation/query.h"

#include <gtest/gtest.h>

namespace wsq {
namespace {

std::unique_ptr<Table> MakeTable(int rows) {
  auto table = std::make_unique<Table>(
      "nums", Schema({{"id", ColumnType::kInt64},
                      {"label", ColumnType::kString}}));
  for (int i = 0; i < rows; ++i) {
    table->AppendUnchecked(Tuple(
        {Value(static_cast<int64_t>(i)), Value("row" + std::to_string(i))}));
  }
  return table;
}

TEST(QueryCursorTest, FullScanInBlocks) {
  auto table = MakeTable(10);
  ScanProjectQuery query;
  query.table_name = "nums";
  auto cursor = QueryCursor::Open(table.get(), query);
  ASSERT_TRUE(cursor.ok());

  auto block1 = cursor.value()->FetchBlock(4);
  ASSERT_TRUE(block1.ok());
  EXPECT_EQ(block1.value().size(), 4u);
  EXPECT_FALSE(cursor.value()->exhausted());

  auto block2 = cursor.value()->FetchBlock(4);
  ASSERT_TRUE(block2.ok());
  auto block3 = cursor.value()->FetchBlock(4);
  ASSERT_TRUE(block3.ok());
  EXPECT_EQ(block3.value().size(), 2u);
  EXPECT_TRUE(cursor.value()->exhausted());

  auto empty = cursor.value()->FetchBlock(4);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(QueryCursorTest, ProjectionByName) {
  auto table = MakeTable(3);
  ScanProjectQuery query;
  query.table_name = "nums";
  query.projected_columns = {"label"};
  auto cursor = QueryCursor::Open(table.get(), query);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor.value()->output_schema().num_columns(), 1u);
  EXPECT_EQ(cursor.value()->output_schema().column(0).name, "label");

  auto block = cursor.value()->FetchBlock(10);
  ASSERT_TRUE(block.ok());
  ASSERT_EQ(block.value().size(), 3u);
  EXPECT_TRUE(
      block.value().RowConformsTo(0, cursor.value()->output_schema()).ok());
  EXPECT_EQ(std::get<std::string>(block.value().value(1, 0)), "row1");
}

TEST(QueryCursorTest, BlocksViewTableRowsThroughTheProjection) {
  auto table = MakeTable(3);
  ScanProjectQuery query;
  query.table_name = "nums";
  query.projected_columns = {"label", "id"};
  auto cursor = QueryCursor::Open(table.get(), query);
  ASSERT_TRUE(cursor.ok());

  auto block = cursor.value()->FetchBlock(10);
  ASSERT_TRUE(block.ok());
  ASSERT_EQ(block.value().size(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    // No copy: the block's rows are the table's own.
    EXPECT_EQ(&block.value().row(r), &table->row(r));
    EXPECT_EQ(std::get<std::string>(block.value().value(r, 0)),
              "row" + std::to_string(r));
    EXPECT_EQ(std::get<int64_t>(block.value().value(r, 1)),
              static_cast<int64_t>(r));
    EXPECT_TRUE(
        block.value().RowConformsTo(r, cursor.value()->output_schema()).ok());
  }
}

TEST(QueryCursorTest, UnknownColumnRejected) {
  auto table = MakeTable(1);
  ScanProjectQuery query;
  query.table_name = "nums";
  query.projected_columns = {"nope"};
  EXPECT_EQ(QueryCursor::Open(table.get(), query).status().code(),
            StatusCode::kNotFound);
}

TEST(QueryCursorTest, PredicateFiltersRows) {
  auto table = MakeTable(10);
  ScanProjectQuery query;
  query.table_name = "nums";
  query.predicate = [](const Tuple& t) {
    return std::get<int64_t>(t.value(0)) % 2 == 0;
  };
  auto cursor = QueryCursor::Open(table.get(), query);
  ASSERT_TRUE(cursor.ok());
  auto block = cursor.value()->FetchBlock(100);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block.value().size(), 5u);
  EXPECT_EQ(cursor.value()->rows_scanned(), 10u);
  EXPECT_EQ(cursor.value()->rows_produced(), 5u);
}

TEST(QueryCursorTest, PredicateAppliesBeforeProjection) {
  auto table = MakeTable(4);
  ScanProjectQuery query;
  query.table_name = "nums";
  query.projected_columns = {"label"};
  // Predicate references column 0, which the projection drops.
  query.predicate = [](const Tuple& t) {
    return std::get<int64_t>(t.value(0)) >= 2;
  };
  auto cursor = QueryCursor::Open(table.get(), query);
  ASSERT_TRUE(cursor.ok());
  auto block = cursor.value()->FetchBlock(100);
  ASSERT_TRUE(block.ok());
  ASSERT_EQ(block.value().size(), 2u);
  EXPECT_EQ(std::get<std::string>(block.value().value(0, 0)), "row2");
  EXPECT_EQ(&block.value().row(1), &table->row(3));
}

TEST(QueryCursorTest, InvalidInputs) {
  ScanProjectQuery query;
  query.table_name = "nums";
  EXPECT_EQ(QueryCursor::Open(nullptr, query).status().code(),
            StatusCode::kInvalidArgument);

  auto table = MakeTable(1);
  auto cursor = QueryCursor::Open(table.get(), query);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor.value()->FetchBlock(0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cursor.value()->FetchBlock(-5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryCursorTest, EmptyTableImmediatelyExhausted) {
  auto table = MakeTable(0);
  ScanProjectQuery query;
  query.table_name = "nums";
  auto cursor = QueryCursor::Open(table.get(), query);
  ASSERT_TRUE(cursor.ok());
  EXPECT_TRUE(cursor.value()->exhausted());
  auto block = cursor.value()->FetchBlock(5);
  ASSERT_TRUE(block.ok());
  EXPECT_TRUE(block.value().empty());
}

}  // namespace
}  // namespace wsq
