#include "wsq/relation/tuple.h"

#include <sstream>

namespace wsq {

// The row facts share one word.
static_assert(sizeof(Tuple) == sizeof(std::vector<Value>) + 8);

Tuple::Tuple(std::vector<Value> values) : values_(std::move(values)) {
  size_t bytes = 0;
  bool clean = true;
  for (const Value& v : values_) {
    if (const auto* s = std::get_if<std::string>(&v)) {
      bytes += s->size();
      clean = clean && !ContainsAny(*s, kRowEscapeBytes);
    }
  }
  string_bytes_ = bytes;
  escape_free_ = clean;
}

Status Tuple::ConformsTo(const Schema& schema) const {
  if (values_.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(values_.size()) +
        " does not match schema arity " +
        std::to_string(schema.num_columns()));
  }
  for (size_t i = 0; i < values_.size(); ++i) {
    if (TypeOf(values_[i]) != schema.column(i).type) {
      return Status::InvalidArgument(
          "type mismatch in column " + schema.column(i).name);
    }
  }
  return Status::Ok();
}

std::string Tuple::ToString() const {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out << ", ";
    out << ValueToString(values_[i]);
  }
  out << "]";
  return out.str();
}

}  // namespace wsq
