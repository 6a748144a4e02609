#include "wsq/relation/query.h"

#include <algorithm>

#include "wsq/relation/predicate.h"

namespace wsq {

Result<std::unique_ptr<QueryCursor>> QueryCursor::Open(
    const Table* table, const ScanProjectQuery& query) {
  if (table == nullptr) {
    return Status::InvalidArgument("QueryCursor: null table");
  }

  std::vector<size_t> projection;
  if (query.projected_columns.empty()) {
    projection.resize(table->schema().num_columns());
    for (size_t i = 0; i < projection.size(); ++i) projection[i] = i;
  } else {
    projection.reserve(query.projected_columns.size());
    for (const std::string& name : query.projected_columns) {
      Result<size_t> idx = table->schema().ColumnIndex(name);
      if (!idx.ok()) return idx.status();
      projection.push_back(idx.value());
    }
  }

  Result<Schema> output = table->schema().Project(projection);
  if (!output.ok()) return output.status();

  Predicate predicate = query.predicate;
  if (!query.filter.empty()) {
    Result<Predicate> compiled =
        CompilePredicate(table->schema(), query.filter);
    if (!compiled.ok()) return compiled.status();
    if (predicate) {
      predicate = [programmatic = std::move(predicate),
                   declarative =
                       std::move(compiled).value()](const Tuple& t) {
        return programmatic(t) && declarative(t);
      };
    } else {
      predicate = std::move(compiled).value();
    }
  }

  return std::unique_ptr<QueryCursor>(
      new QueryCursor(table, std::move(projection), std::move(predicate),
                      std::move(output).value()));
}

Result<RowBlock> QueryCursor::FetchBlock(int64_t max_tuples) {
  if (max_tuples < 1) {
    return Status::InvalidArgument("FetchBlock: max_tuples must be >= 1");
  }
  std::vector<const Tuple*> rows;
  // Reserve what can actually be produced — a remote caller may request
  // an absurd block size and must not drive an allocation that large.
  rows.reserve(static_cast<size_t>(
      std::min<int64_t>(max_tuples,
                        static_cast<int64_t>(table_->num_rows() - position_))));
  while (position_ < table_->num_rows() &&
         rows.size() < static_cast<size_t>(max_tuples)) {
    const Tuple& row = table_->row(position_);
    ++position_;
    ++rows_scanned_;
    if (predicate_ && !predicate_(row)) continue;
    rows.push_back(&row);
    ++rows_produced_;
  }
  return RowBlock(std::move(rows), &projection_);
}

}  // namespace wsq
