#include "wsq/relation/schema.h"

#include <gtest/gtest.h>

namespace wsq {
namespace {

Schema TestSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"balance", ColumnType::kDouble}});
}

TEST(SchemaTest, ColumnAccess) {
  Schema s = TestSchema();
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_EQ(s.column(0).name, "id");
  EXPECT_EQ(s.column(2).type, ColumnType::kDouble);
}

TEST(SchemaTest, ColumnIndexLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(s.ColumnIndex("name").value(), 1u);
  EXPECT_EQ(s.ColumnIndex("missing").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, Projection) {
  Schema s = TestSchema();
  Result<Schema> p = s.Project({2, 0});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().num_columns(), 2u);
  EXPECT_EQ(p.value().column(0).name, "balance");
  EXPECT_EQ(p.value().column(1).name, "id");
}

TEST(SchemaTest, ProjectionOutOfRange) {
  EXPECT_EQ(TestSchema().Project({5}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(SchemaTest, Equals) {
  EXPECT_TRUE(TestSchema().Equals(TestSchema()));
  Schema other({{"id", ColumnType::kInt64}});
  EXPECT_FALSE(TestSchema().Equals(other));
  Schema renamed({{"idx", ColumnType::kInt64},
                  {"name", ColumnType::kString},
                  {"balance", ColumnType::kDouble}});
  EXPECT_FALSE(TestSchema().Equals(renamed));
  Schema retyped({{"id", ColumnType::kString},
                  {"name", ColumnType::kString},
                  {"balance", ColumnType::kDouble}});
  EXPECT_FALSE(TestSchema().Equals(retyped));
}

TEST(ValueTest, TypeOfDetectsAlternatives) {
  EXPECT_EQ(TypeOf(Value(int64_t{1})), ColumnType::kInt64);
  EXPECT_EQ(TypeOf(Value(1.5)), ColumnType::kDouble);
  EXPECT_EQ(TypeOf(Value(std::string("x"))), ColumnType::kString);
}

TEST(ValueTest, ValueToStringFormats) {
  EXPECT_EQ(ValueToString(Value(int64_t{42})), "42");
  EXPECT_EQ(ValueToString(Value(3.14159)), "3.14");
  EXPECT_EQ(ValueToString(Value(std::string("abc"))), "abc");
}

}  // namespace
}  // namespace wsq
