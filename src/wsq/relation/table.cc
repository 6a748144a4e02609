#include "wsq/relation/table.h"

namespace wsq {

Status Table::Append(Tuple tuple) {
  WSQ_RETURN_IF_ERROR(tuple.ConformsTo(schema_));
  rows_.push_back(std::move(tuple));
  return Status::Ok();
}

}  // namespace wsq
