#ifndef WSQ_TESTS_CODEC_ROW_BLOCK_CASES_H_
#define WSQ_TESTS_CODEC_ROW_BLOCK_CASES_H_

// Shared by the SOAP and binary codec tests: cursor blocks (views of a
// table's rows through a projection) must encode to exactly the bytes
// of owned tuples the test projects and filters itself.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wsq/codec/codec.h"
#include "wsq/relation/query.h"
#include "wsq/relation/table.h"

namespace wsq::codec {

/// Awkward rows: delimiter, escape, XML and newline bytes in strings,
/// empty strings, and doubles on "%.2f" rounding ties, at -0.0 and huge.
inline std::shared_ptr<Table> ViewTable() {
  auto table = std::make_shared<Table>(
      "t", Schema({{"id", ColumnType::kInt64},
                   {"name", ColumnType::kString},
                   {"balance", ColumnType::kDouble},
                   {"note", ColumnType::kString}}));
  const char* notes[] = {"plain", "a|b", "back\\slash", "line\nbreak",
                         "<x&y>", ""};
  const double balances[] = {0.125, -0.0, 1e300, -7.005, 2.675, 100.5};
  for (int64_t i = 0; i < 23; ++i) {
    table->AppendUnchecked(
        Tuple({Value(i * 1000 - 7), Value("cust-" + std::to_string(i)),
               Value(balances[i % 6] + static_cast<double>(i % 2)),
               Value(std::string(notes[i % 6]))}));
  }
  return table;
}

/// One query shape plus the same filter as a plain function, so the
/// test can select rows without the library.
struct ViewCase {
  std::string name;
  std::vector<std::string> columns;  // empty: every column, in order
  bool (*keep)(const Tuple&);
};

inline std::vector<ViewCase> ViewCases() {
  return {
      {"identity", {}, [](const Tuple&) { return true; }},
      {"projected", {"note", "balance", "id"},
       [](const Tuple&) { return true; }},
      {"filtered", {"name", "id"},
       [](const Tuple& t) { return std::get<int64_t>(t.value(0)) % 3 == 0; }},
      {"empty", {"id"}, [](const Tuple&) { return false; }},
  };
}

/// The rows `c` selects from `table`, projected by hand into owned
/// tuples.
inline std::vector<Tuple> ProjectByHand(const Table& table, const ViewCase& c) {
  std::vector<size_t> indices;
  for (const std::string& name : c.columns) {
    indices.push_back(table.schema().ColumnIndex(name).value());
  }
  if (indices.empty()) {
    for (size_t i = 0; i < table.schema().num_columns(); ++i) {
      indices.push_back(i);
    }
  }
  std::vector<Tuple> out;
  for (const Tuple& row : table.rows()) {
    if (!c.keep(row)) continue;
    std::vector<Value> values;
    for (size_t i : indices) values.push_back(row.value(i));
    out.emplace_back(std::move(values));
  }
  return out;
}

/// Drains a cursor for every case in blocks of `block_size` and checks
/// that each view block encodes to the bytes of its hand-projected
/// owned counterpart.
inline void ExpectViewsEncodeLikeOwnedTuples(const BlockCodec& codec,
                                             int64_t block_size) {
  const std::shared_ptr<Table> table = ViewTable();
  for (const ViewCase& c : ViewCases()) {
    SCOPED_TRACE(std::string(codec.name()) + " " + c.name + " blocks of " +
                 std::to_string(block_size));
    ScanProjectQuery query;
    query.table_name = table->name();
    query.projected_columns = c.columns;
    query.predicate = c.keep;
    std::unique_ptr<QueryCursor> cursor =
        QueryCursor::Open(table.get(), query).value();
    const std::vector<Tuple> expected = ProjectByHand(*table, c);

    size_t next = 0;
    int64_t session = 1;
    do {
      Result<RowBlock> view = cursor->FetchBlock(block_size);
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      ASSERT_LE(next + view.value().size(), expected.size());
      const std::vector<Tuple> owned(
          expected.begin() + static_cast<std::ptrdiff_t>(next),
          expected.begin() +
              static_cast<std::ptrdiff_t>(next + view.value().size()));
      next += view.value().size();
      const Result<std::string> from_view =
          codec.EncodeBlockResponse(session, cursor->exhausted(),
                                    cursor->output_schema(), view.value());
      const Result<std::string> from_owned = codec.EncodeBlockResponse(
          session, cursor->exhausted(), cursor->output_schema(), owned);
      ASSERT_TRUE(from_view.ok()) << from_view.status().ToString();
      ASSERT_TRUE(from_owned.ok()) << from_owned.status().ToString();
      EXPECT_EQ(from_view.value(), from_owned.value());
      ++session;
    } while (!cursor->exhausted());
    EXPECT_EQ(next, expected.size());
  }
}

}  // namespace wsq::codec

#endif  // WSQ_TESTS_CODEC_ROW_BLOCK_CASES_H_
