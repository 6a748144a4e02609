#include "wsq/server/dbms.h"

#include <gtest/gtest.h>

namespace wsq {
namespace {

std::shared_ptr<Table> SmallTable(const std::string& name, int rows) {
  auto table = std::make_shared<Table>(
      name, Schema({{"id", ColumnType::kInt64}}));
  for (int i = 0; i < rows; ++i) {
    table->AppendUnchecked(Tuple({Value(static_cast<int64_t>(i))}));
  }
  return table;
}

TEST(DbmsTest, RegisterAndLookup) {
  Dbms dbms;
  ASSERT_TRUE(dbms.RegisterTable(SmallTable("t1", 3)).ok());
  ASSERT_TRUE(dbms.RegisterTable(SmallTable("t2", 5)).ok());
  EXPECT_EQ(dbms.num_tables(), 2u);
  EXPECT_EQ(dbms.GetTable("t1").value()->num_rows(), 3u);
  EXPECT_EQ(dbms.GetTable("missing").status().code(), StatusCode::kNotFound);
}

TEST(DbmsTest, DuplicateRegistrationRejected) {
  Dbms dbms;
  ASSERT_TRUE(dbms.RegisterTable(SmallTable("t", 1)).ok());
  EXPECT_EQ(dbms.RegisterTable(SmallTable("t", 2)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dbms.GetTable("t").value()->num_rows(), 1u);
}

TEST(DbmsTest, NullTableRejected) {
  Dbms dbms;
  EXPECT_EQ(dbms.RegisterTable(nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(DbmsTest, OpenCursorExecutesQuery) {
  Dbms dbms;
  ASSERT_TRUE(dbms.RegisterTable(SmallTable("t", 7)).ok());
  ScanProjectQuery query;
  query.table_name = "t";
  auto cursor = dbms.OpenCursor(query);
  ASSERT_TRUE(cursor.ok());
  auto block = cursor.value()->FetchBlock(100);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block.value().size(), 7u);
  // The block views the registered table's rows in place.
  EXPECT_EQ(&block.value().row(6), &dbms.GetTable("t").value()->row(6));
}

TEST(DbmsTest, OpenCursorUnknownTable) {
  Dbms dbms;
  ScanProjectQuery query;
  query.table_name = "ghost";
  EXPECT_EQ(dbms.OpenCursor(query).status().code(), StatusCode::kNotFound);
}

TEST(DbmsTest, ConcurrentCursorsAreIndependent) {
  Dbms dbms;
  ASSERT_TRUE(dbms.RegisterTable(SmallTable("t", 10)).ok());
  ScanProjectQuery query;
  query.table_name = "t";
  auto c1 = dbms.OpenCursor(query);
  auto c2 = dbms.OpenCursor(query);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  ASSERT_TRUE(c1.value()->FetchBlock(4).ok());
  // c2 is unaffected by c1's progress.
  auto block = c2.value()->FetchBlock(100);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block.value().size(), 10u);
  EXPECT_EQ(std::get<int64_t>(block.value().value(0, 0)), 0);
}

}  // namespace
}  // namespace wsq
