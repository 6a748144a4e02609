#ifndef WSQ_RELATION_TUPLE_H_
#define WSQ_RELATION_TUPLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "wsq/common/byte_scan.h"
#include "wsq/common/status.h"
#include "wsq/relation/schema.h"

namespace wsq {

/// Every byte some text wire form of a row rewrites: the field form's
/// separator, escape and row terminator, and XML's five specials.
inline constexpr ByteSet kRowEscapeBytes("|\\\n&<>\"'");

/// A row: positional values matching some Schema. The tuple itself does
/// not hold a schema pointer — containers (Table, blocks) own that
/// association, keeping tuples cheap to move around.
///
/// A tuple's values never change after construction, so two facts the
/// encoders read on every block are taken once, by the constructor: the
/// total byte count of its strings, and whether any string holds a byte
/// of kRowEscapeBytes.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values);

  Tuple(const Tuple&) = default;
  Tuple& operator=(const Tuple&) = default;
  /// A moved-from tuple is empty, and reports no strings.
  Tuple(Tuple&& other) noexcept
      : values_(std::move(other.values_)),
        string_bytes_(other.string_bytes_),
        escape_free_(other.escape_free_) {
    other.string_bytes_ = 0;
    other.escape_free_ = 1;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      values_ = std::move(other.values_);
      string_bytes_ = other.string_bytes_;
      escape_free_ = other.escape_free_;
      other.values_.clear();
      other.string_bytes_ = 0;
      other.escape_free_ = 1;
    }
    return *this;
  }

  size_t num_values() const { return values_.size(); }
  const Value& value(size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  /// Sum of the sizes of the string values.
  size_t string_bytes() const { return string_bytes_; }

  /// True when no string value holds a byte of kRowEscapeBytes, so every
  /// text wire form copies the strings as they are.
  bool escape_free() const { return escape_free_; }

  /// Verifies arity and per-column types against `schema`.
  Status ConformsTo(const Schema& schema) const;

  bool operator==(const Tuple& other) const {
    return values_ == other.values_;
  }

  std::string ToString() const;

 private:
  std::vector<Value> values_;
  // One word between them: no string reaches 2^63 bytes.
  uint64_t string_bytes_ : 63 = 0;
  uint64_t escape_free_ : 1 = 1;
};

}  // namespace wsq

#endif  // WSQ_RELATION_TUPLE_H_
