#include "wsq/relation/predicate.h"

#include <gtest/gtest.h>

namespace wsq {
namespace {

Schema TestSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"balance", ColumnType::kDouble},
                 {"segment", ColumnType::kString}});
}

Tuple Row(int64_t id, double balance, const std::string& segment) {
  return Tuple({Value(id), Value(balance), Value(segment)});
}

bool Matches(const std::string& expression, const Tuple& tuple) {
  Result<Predicate> predicate = CompilePredicate(TestSchema(), expression);
  EXPECT_TRUE(predicate.ok()) << predicate.status().ToString();
  return predicate.value()(tuple);
}

TEST(PredicateTest, IntegerComparisons) {
  EXPECT_TRUE(Matches("id = 5", Row(5, 0, "")));
  EXPECT_FALSE(Matches("id = 5", Row(6, 0, "")));
  EXPECT_TRUE(Matches("id != 5", Row(6, 0, "")));
  EXPECT_TRUE(Matches("id < 10", Row(9, 0, "")));
  EXPECT_FALSE(Matches("id < 10", Row(10, 0, "")));
  EXPECT_TRUE(Matches("id <= 10", Row(10, 0, "")));
  EXPECT_TRUE(Matches("id > -3", Row(0, 0, "")));
  EXPECT_TRUE(Matches("id >= 7", Row(7, 0, "")));
}

TEST(PredicateTest, DoubleComparisons) {
  EXPECT_TRUE(Matches("balance >= 99.5", Row(1, 99.5, "")));
  EXPECT_FALSE(Matches("balance > 99.5", Row(1, 99.5, "")));
  EXPECT_TRUE(Matches("balance < -10.25", Row(1, -11.0, "")));
}

TEST(PredicateTest, NumericLiteralForms) {
  EXPECT_TRUE(Matches("id = 1e3", Row(1000, 0, "")));
  EXPECT_TRUE(Matches("balance = -2.5", Row(1, -2.5, "")));
  EXPECT_TRUE(Matches("balance = .5", Row(1, 0.5, "")));
  EXPECT_TRUE(Matches("balance < 2.5E-1", Row(1, 0.2, "")));
  // The literal ends where the number does, even without a space.
  EXPECT_TRUE(Matches("(id=7)", Row(7, 0, "")));
}

TEST(PredicateTest, NumericLiteralsRejectHexPlusAndOverflow) {
  const Schema schema = TestSchema();
  EXPECT_FALSE(CompilePredicate(schema, "id = 0x10").ok());
  EXPECT_FALSE(CompilePredicate(schema, "id = 0x1p4").ok());
  EXPECT_FALSE(CompilePredicate(schema, "id = +5").ok());
  EXPECT_FALSE(CompilePredicate(schema, "balance < 1e999").ok());
}

TEST(PredicateTest, StringComparisons) {
  EXPECT_TRUE(Matches("segment = 'BUILDING'", Row(1, 0, "BUILDING")));
  EXPECT_FALSE(Matches("segment = 'BUILDING'", Row(1, 0, "AUTO")));
  EXPECT_TRUE(Matches("segment != 'BUILDING'", Row(1, 0, "AUTO")));
  EXPECT_TRUE(Matches("segment < 'B'", Row(1, 0, "AUTO")));
  EXPECT_TRUE(Matches("segment >= 'B'", Row(1, 0, "BUILDING")));
}

TEST(PredicateTest, QuoteEscapeInStringLiteral) {
  EXPECT_TRUE(Matches("segment = 'O''BRIEN'", Row(1, 0, "O'BRIEN")));
}

TEST(PredicateTest, BooleanConnectives) {
  const std::string expr = "id > 2 AND balance < 100";
  EXPECT_TRUE(Matches(expr, Row(3, 50, "")));
  EXPECT_FALSE(Matches(expr, Row(1, 50, "")));
  EXPECT_FALSE(Matches(expr, Row(3, 200, "")));

  EXPECT_TRUE(Matches("id = 1 OR id = 2", Row(2, 0, "")));
  EXPECT_FALSE(Matches("id = 1 OR id = 2", Row(3, 0, "")));

  EXPECT_TRUE(Matches("NOT id = 4", Row(5, 0, "")));
  EXPECT_FALSE(Matches("NOT NOT id = 4", Row(5, 0, "")));
}

TEST(PredicateTest, PrecedenceAndParentheses) {
  // AND binds tighter than OR.
  const std::string expr = "id = 1 OR id = 2 AND balance > 100";
  EXPECT_TRUE(Matches(expr, Row(1, 0, "")));
  EXPECT_TRUE(Matches(expr, Row(2, 200, "")));
  EXPECT_FALSE(Matches(expr, Row(2, 50, "")));

  const std::string grouped = "(id = 1 OR id = 2) AND balance > 100";
  EXPECT_FALSE(Matches(grouped, Row(1, 0, "")));
  EXPECT_TRUE(Matches(grouped, Row(1, 200, "")));
}

TEST(PredicateTest, CaseInsensitiveKeywords) {
  EXPECT_TRUE(Matches("id = 1 or id = 2", Row(2, 0, "")));
  EXPECT_TRUE(Matches("id > 0 and not id = 9", Row(3, 0, "")));
}

TEST(PredicateTest, KeywordPrefixesAreIdentifiers) {
  // A column legitimately named with an AND/OR/NOT prefix must not be
  // eaten by keyword matching.
  Schema schema({{"orders", ColumnType::kInt64},
                 {"android", ColumnType::kInt64}});
  Result<Predicate> predicate =
      CompilePredicate(schema, "orders > 1 AND android < 5");
  ASSERT_TRUE(predicate.ok()) << predicate.status().ToString();
  EXPECT_TRUE(predicate.value()(
      Tuple({Value(int64_t{2}), Value(int64_t{3})})));
}

TEST(PredicateTest, CompileErrors) {
  const Schema schema = TestSchema();
  EXPECT_FALSE(CompilePredicate(schema, "").ok());
  EXPECT_FALSE(CompilePredicate(schema, "ghost = 1").ok());
  EXPECT_FALSE(CompilePredicate(schema, "id ~ 1").ok());
  EXPECT_FALSE(CompilePredicate(schema, "id = ").ok());
  EXPECT_FALSE(CompilePredicate(schema, "id = 1 AND").ok());
  EXPECT_FALSE(CompilePredicate(schema, "(id = 1").ok());
  EXPECT_FALSE(CompilePredicate(schema, "id = 1 extra").ok());
  EXPECT_FALSE(CompilePredicate(schema, "segment = 'unterminated").ok());
  // Type mismatches are compile-time errors.
  EXPECT_FALSE(CompilePredicate(schema, "id = 'five'").ok());
  EXPECT_FALSE(CompilePredicate(schema, "segment = 5").ok());
}

TEST(PredicateTest, WorksThroughQueryCursor) {
  Table table("t", TestSchema());
  for (int i = 0; i < 10; ++i) {
    table.AppendUnchecked(
        Row(i, i * 100.0, i % 2 == 0 ? "EVEN" : "ODD"));
  }
  ScanProjectQuery query;
  query.table_name = "t";
  query.filter = "segment = 'EVEN' AND balance >= 400";
  auto cursor = QueryCursor::Open(&table, query);
  ASSERT_TRUE(cursor.ok());
  auto block = cursor.value()->FetchBlock(100);
  ASSERT_TRUE(block.ok());
  ASSERT_EQ(block.value().size(), 3u);  // ids 4, 6, 8
  EXPECT_EQ(std::get<int64_t>(block.value().value(0, 0)), 4);
  EXPECT_EQ(&block.value().row(2), &table.row(8));
}

TEST(PredicateTest, FilterCombinesWithProgrammaticPredicate) {
  Table table("t", TestSchema());
  for (int i = 0; i < 10; ++i) {
    table.AppendUnchecked(Row(i, 0.0, ""));
  }
  ScanProjectQuery query;
  query.table_name = "t";
  query.filter = "id >= 3";
  query.predicate = [](const Tuple& t) {
    return std::get<int64_t>(t.value(0)) % 2 == 0;
  };
  auto cursor = QueryCursor::Open(&table, query);
  ASSERT_TRUE(cursor.ok());
  auto block = cursor.value()->FetchBlock(100);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block.value().size(), 3u);  // ids 4, 6, 8 pass both
}

TEST(PredicateTest, BadFilterFailsCursorOpen) {
  Table table("t", TestSchema());
  ScanProjectQuery query;
  query.table_name = "t";
  query.filter = "nope = 1";
  EXPECT_FALSE(QueryCursor::Open(&table, query).ok());
}

}  // namespace
}  // namespace wsq
