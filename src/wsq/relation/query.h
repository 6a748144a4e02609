#ifndef WSQ_RELATION_QUERY_H_
#define WSQ_RELATION_QUERY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/relation/row_block.h"
#include "wsq/relation/table.h"

namespace wsq {

/// Optional row filter; invoked on the *unprojected* tuple.
using Predicate = std::function<bool(const Tuple&)>;

/// A scan-project(-select) query over one table — the query class the
/// paper evaluates ("an inexpensive scan-project query over the entire
/// Customer relation"). Declarative part only; execution happens through
/// QueryCursor.
struct ScanProjectQuery {
  std::string table_name;
  /// Column names to project; empty means all columns.
  std::vector<std::string> projected_columns;
  /// Optional programmatic filter; null keeps every row.
  Predicate predicate;
  /// Optional declarative filter expression (see relation/predicate.h);
  /// compiled against the table schema when the cursor opens, and the
  /// form that travels over the wire in OpenSession. When both this and
  /// `predicate` are set, a row must pass both.
  std::string filter;
};

/// Pull-mode execution cursor: hands out result tuples in blocks of a
/// caller-chosen size, exactly the server-side machinery behind
/// `WebService.requestNewBlock(blockSize)` in the paper's Algorithm 1.
class QueryCursor {
 public:
  /// Binds `query` to `table` (whose lifetime must cover the cursor's).
  /// Fails when projected columns are missing.
  static Result<std::unique_ptr<QueryCursor>> Open(
      const Table* table, const ScanProjectQuery& query);

  /// The schema of produced tuples (after projection).
  const Schema& output_schema() const { return output_schema_; }

  /// Fetches up to `max_tuples` next tuples; an empty block signals
  /// end-of-results. kInvalidArgument when max_tuples < 1. The block is
  /// a view of the table's rows through this cursor's projection: no
  /// value is copied, and it stays valid while the cursor and its table
  /// live.
  Result<RowBlock> FetchBlock(int64_t max_tuples);

  bool exhausted() const { return position_ >= table_->num_rows(); }

  /// Rows scanned (not produced) so far — drives the simulated
  /// server-side CPU cost.
  size_t rows_scanned() const { return rows_scanned_; }
  size_t rows_produced() const { return rows_produced_; }

 private:
  QueryCursor(const Table* table, std::vector<size_t> projection,
              Predicate predicate, Schema output_schema)
      : table_(table),
        projection_(std::move(projection)),
        predicate_(std::move(predicate)),
        output_schema_(std::move(output_schema)) {}

  const Table* table_;
  std::vector<size_t> projection_;
  Predicate predicate_;
  Schema output_schema_;
  size_t position_ = 0;
  size_t rows_scanned_ = 0;
  size_t rows_produced_ = 0;
};

}  // namespace wsq

#endif  // WSQ_RELATION_QUERY_H_
