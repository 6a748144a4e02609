#ifndef WSQ_RELATION_TUPLE_H_
#define WSQ_RELATION_TUPLE_H_

#include <string>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/relation/schema.h"

namespace wsq {

/// A row: positional values matching some Schema. The tuple itself does
/// not hold a schema pointer — containers (Table, blocks) own that
/// association, keeping tuples cheap to move around.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t num_values() const { return values_.size(); }
  const Value& value(size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  /// Verifies arity and per-column types against `schema`.
  Status ConformsTo(const Schema& schema) const;

  /// Approximate in-memory/wire footprint: 8 bytes per numeric, string
  /// length for strings. Drives the simulated network byte counts.
  size_t ApproxBytes() const;

  bool operator==(const Tuple& other) const {
    return values_ == other.values_;
  }

  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

}  // namespace wsq

#endif  // WSQ_RELATION_TUPLE_H_
