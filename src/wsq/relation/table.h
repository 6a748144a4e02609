#ifndef WSQ_RELATION_TABLE_H_
#define WSQ_RELATION_TABLE_H_

#include <string>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/relation/schema.h"
#include "wsq/relation/tuple.h"

namespace wsq {

/// In-memory relation: a named schema plus row storage. This is the
/// stand-in for the MySQL tables behind the paper's OGSA-DAI service.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }

  /// Makes room for `rows` rows in all, so generators append without
  /// regrowing the row vector.
  void Reserve(size_t rows) { rows_.reserve(rows); }

  /// Appends after validating against the schema.
  Status Append(Tuple tuple);

  /// Appends without validation — for bulk generators that construct
  /// conforming tuples by design (validated in debug builds via tests).
  void AppendUnchecked(Tuple tuple) { rows_.push_back(std::move(tuple)); }

  const Tuple& row(size_t i) const { return rows_[i]; }
  const std::vector<Tuple>& rows() const { return rows_; }

 private:
  std::string name_;
  Schema schema_;
  std::vector<Tuple> rows_;
};

}  // namespace wsq

#endif  // WSQ_RELATION_TABLE_H_
