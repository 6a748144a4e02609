#include "wsq/relation/row_block.h"

#include <algorithm>
#include <string>

namespace wsq {

RowBlock::RowBlock(const std::vector<Tuple>& tuples) {
  rows_.reserve(tuples.size());
  for (const Tuple& tuple : tuples) rows_.push_back(&tuple);
}

size_t RowBlock::MaxStringReads(const Schema& schema) const {
  // Output columns past the projection read nothing; a row read through
  // such a view fails RowConformsTo.
  const size_t width =
      columns_ == nullptr ? schema.num_columns()
                          : std::min(schema.num_columns(), columns_->size());
  const auto is_string = [&](size_t c) {
    return schema.column(c).type == ColumnType::kString;
  };
  size_t most = 0;
  for (size_t c = 0; c < width; ++c) {
    if (!is_string(c)) continue;
    size_t reads = 0;
    for (size_t d = 0; d < width; ++d) {
      reads += is_string(d) && column(d) == column(c) ? 1 : 0;
    }
    most = std::max(most, reads);
  }
  return most;
}

Status RowBlock::RowConformsTo(size_t i, const Schema& schema) const {
  const Tuple& source = *rows_[i];
  if (columns_ == nullptr) return source.ConformsTo(schema);
  if (columns_->size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(columns_->size()) +
        " does not match schema arity " +
        std::to_string(schema.num_columns()));
  }
  for (size_t c = 0; c < columns_->size(); ++c) {
    const size_t src = (*columns_)[c];
    if (src >= source.num_values()) {
      return Status::OutOfRange("projection index out of range");
    }
    if (TypeOf(source.value(src)) != schema.column(c).type) {
      return Status::InvalidArgument("type mismatch in column " +
                                     schema.column(c).name);
    }
  }
  return Status::Ok();
}

}  // namespace wsq
