#include <gtest/gtest.h>

#include "wsq/relation/row_block.h"
#include "wsq/relation/table.h"
#include "wsq/relation/tuple.h"

namespace wsq {
namespace {

Schema TestSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"balance", ColumnType::kDouble}});
}

Tuple MakeRow(int64_t id, const std::string& name, double balance) {
  return Tuple({Value(id), Value(name), Value(balance)});
}

TEST(TupleTest, Conformance) {
  Schema s = TestSchema();
  EXPECT_TRUE(MakeRow(1, "a", 2.0).ConformsTo(s).ok());

  Tuple short_tuple({Value(int64_t{1})});
  EXPECT_EQ(short_tuple.ConformsTo(s).code(), StatusCode::kInvalidArgument);

  Tuple wrong_type({Value(1.5), Value(std::string("a")), Value(2.0)});
  EXPECT_EQ(wrong_type.ConformsTo(s).code(), StatusCode::kInvalidArgument);
}

TEST(RowBlockTest, Projection) {
  const Tuple t = MakeRow(7, "bob", 10.5);
  const std::vector<size_t> columns = {2, 0};
  const RowBlock block({&t}, &columns);
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(std::get<double>(block.value(0, 0)), 10.5);
  EXPECT_EQ(std::get<int64_t>(block.value(0, 1)), 7);
  const Schema projected = TestSchema().Project(columns).value();
  EXPECT_TRUE(block.RowConformsTo(0, projected).ok());
  // The projected arity, not the row's, is what must match.
  EXPECT_EQ(block.RowConformsTo(0, TestSchema()).code(),
            StatusCode::kInvalidArgument);

  const std::vector<size_t> past_end = {9};
  const Schema one({{"x", ColumnType::kInt64}});
  EXPECT_EQ(RowBlock({&t}, &past_end).RowConformsTo(0, one).code(),
            StatusCode::kOutOfRange);

  // An owned vector converts to the identity view.
  const std::vector<Tuple> owned = {t};
  const RowBlock identity = owned;
  EXPECT_EQ(&identity.row(0), &owned[0]);
  EXPECT_EQ(std::get<std::string>(identity.value(0, 1)), "bob");
  EXPECT_TRUE(identity.RowConformsTo(0, TestSchema()).ok());
}

TEST(TupleTest, EqualityAndToString) {
  EXPECT_EQ(MakeRow(1, "a", 2.0), MakeRow(1, "a", 2.0));
  EXPECT_FALSE(MakeRow(1, "a", 2.0) == MakeRow(2, "a", 2.0));
  const std::string s = MakeRow(1, "a", 2.0).ToString();
  EXPECT_NE(s.find("1"), std::string::npos);
  EXPECT_NE(s.find("a"), std::string::npos);
}

TEST(TableTest, AppendValidates) {
  Table table("t", TestSchema());
  EXPECT_TRUE(table.Append(MakeRow(1, "a", 2.0)).ok());
  EXPECT_EQ(table.Append(Tuple({Value(int64_t{1})})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(TableTest, AppendUncheckedSkipsValidation) {
  Table table("t", TestSchema());
  table.AppendUnchecked(Tuple({Value(int64_t{1})}));  // nonconforming
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(TableTest, RowAccess) {
  Table table("t", TestSchema());
  ASSERT_TRUE(table.Append(MakeRow(1, "ab", 2.0)).ok());
  ASSERT_TRUE(table.Append(MakeRow(2, "cdef", 3.0)).ok());
  EXPECT_EQ(std::get<int64_t>(table.row(1).value(0)), 2);
  EXPECT_EQ(table.name(), "t");
}

}  // namespace
}  // namespace wsq
