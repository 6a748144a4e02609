#ifndef WSQ_RELATION_SCHEMA_H_
#define WSQ_RELATION_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "wsq/common/status.h"

namespace wsq {

/// Column value: the three scalar types the TPC-H-style workloads need.
using Value = std::variant<int64_t, double, std::string>;

enum class ColumnType {
  kInt64,
  kDouble,
  kString,
};

/// Returns the ColumnType a Value currently holds.
ColumnType TypeOf(const Value& value);

/// Renders a value as text (integers verbatim, doubles with 2 fraction
/// digits — money-style, strings verbatim).
std::string ValueToString(const Value& value);

struct Column {
  std::string name;
  ColumnType type;
};

/// Ordered list of named, typed columns. Immutable after construction.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the column with `name`; kNotFound when absent.
  Result<size_t> ColumnIndex(std::string_view name) const;

  /// Projection: the schema containing exactly `indices`, in order.
  /// kOutOfRange when an index is invalid.
  Result<Schema> Project(const std::vector<size_t>& indices) const;

  /// True when both schemas have identical column names and types.
  bool Equals(const Schema& other) const;

 private:
  std::vector<Column> columns_;
};

}  // namespace wsq

#endif  // WSQ_RELATION_SCHEMA_H_
