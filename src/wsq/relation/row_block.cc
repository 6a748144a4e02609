#include "wsq/relation/row_block.h"

#include <string>

namespace wsq {

RowBlock::RowBlock(const std::vector<Tuple>& tuples) {
  rows_.reserve(tuples.size());
  for (const Tuple& tuple : tuples) rows_.push_back(&tuple);
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
