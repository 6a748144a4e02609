#ifndef WSQ_RELATION_ROW_BLOCK_H_
#define WSQ_RELATION_ROW_BLOCK_H_

#include <cstddef>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/relation/schema.h"
#include "wsq/relation/tuple.h"

namespace wsq {

/// A block of result rows viewed in place: pointers to rows stored
/// elsewhere plus the projection to read them through. Output column
/// `c` of row `r` is `row(r).value(column(c))`, so a scan-project block
/// reaches the encoders without copying a single value.
///
/// A view never owns what it points at. The rows, and the projection
/// vector when one is given, must outlive it — like std::string_view.
/// QueryCursor's views point into a registered Table (immutable once
/// registered) and at the cursor's own projection.
class RowBlock {
 public:
  RowBlock() = default;

  /// Every column of `tuples`, in order. Implicit, so owned blocks pass
  /// wherever a view is taken; `tuples` must outlive the view.
  RowBlock(const std::vector<Tuple>& tuples);  // NOLINT(runtime/explicit)

  /// `rows` read through `columns`; null `columns` is the identity.
  RowBlock(std::vector<const Tuple*> rows, const std::vector<size_t>* columns)
      : rows_(std::move(rows)), columns_(columns) {}

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// The source row behind output row `i`, unprojected.
  const Tuple& row(size_t i) const { return *rows_[i]; }

  /// Iterates the source rows in order. Hot loops iterate rather than
  /// index: the iterator stays in a register across the appends to an
  /// output buffer, where an index would reload the row array.
  std::vector<const Tuple*>::const_iterator begin() const {
    return rows_.begin();
  }
  std::vector<const Tuple*>::const_iterator end() const { return rows_.end(); }

  /// The projection the rows are read through; null is the identity.
  const std::vector<size_t>* projection() const { return columns_; }

  /// The source value index output column `col` reads.
  size_t column(size_t col) const {
    return columns_ == nullptr ? col : (*columns_)[col];
  }

  /// Output columns of `source` read through this view: the
  /// projection's width, or the row's own arity.
  size_t width(const Tuple& source) const {
    return columns_ == nullptr ? source.num_values() : columns_->size();
  }

  const Value& value(size_t row, size_t col) const {
    return rows_[row]->value(column(col));
  }

  /// The most string columns of `schema` that read one source column:
  /// how many times each string of a row can appear in the row as
  /// projected, so `string_bytes()` times this bounds its projected
  /// string bytes. 0 when `schema` has no string column.
  size_t MaxStringReads(const Schema& schema) const;

  /// Tuple::ConformsTo for output row `i` as projected: arity and
  /// per-column types against `schema`, kOutOfRange when the projection
  /// points past the row.
  Status RowConformsTo(size_t i, const Schema& schema) const;

 private:
  std::vector<const Tuple*> rows_;
  const std::vector<size_t>* columns_ = nullptr;
};

}  // namespace wsq

#endif  // WSQ_RELATION_ROW_BLOCK_H_
