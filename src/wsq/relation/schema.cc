#include "wsq/relation/schema.h"

#include "wsq/common/text_table.h"

namespace wsq {

ColumnType TypeOf(const Value& value) {
  if (std::holds_alternative<int64_t>(value)) return ColumnType::kInt64;
  if (std::holds_alternative<double>(value)) return ColumnType::kDouble;
  return ColumnType::kString;
}

std::string ValueToString(const Value& value) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    return std::to_string(*i);
  }
  if (const auto* d = std::get_if<double>(&value)) {
    return FormatDouble(*d, 2);
  }
  return std::get<std::string>(value);
}

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

Result<size_t> Schema::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no column named " + std::string(name));
}

Result<Schema> Schema::Project(const std::vector<size_t>& indices) const {
  std::vector<Column> projected;
  projected.reserve(indices.size());
  for (size_t idx : indices) {
    if (idx >= columns_.size()) {
      return Status::OutOfRange("projection index " + std::to_string(idx) +
                                " out of range");
    }
    projected.push_back(columns_[idx]);
  }
  return Schema(std::move(projected));
}

bool Schema::Equals(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name != other.columns_[i].name ||
        columns_[i].type != other.columns_[i].type) {
      return false;
    }
  }
  return true;
}

}  // namespace wsq
