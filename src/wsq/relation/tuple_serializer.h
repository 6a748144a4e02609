#ifndef WSQ_RELATION_TUPLE_SERIALIZER_H_
#define WSQ_RELATION_TUPLE_SERIALIZER_H_

#include <string>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/relation/row_block.h"
#include "wsq/relation/schema.h"
#include "wsq/relation/tuple.h"

namespace wsq {

/// Text wire format for result blocks inside the SOAP payload: one row
/// per line, fields separated by '|', with backslash escaping of the
/// delimiter, backslash and newline (a deliberately OGSA-DAI-ish
/// delimited format — verbose like the real WebRowSet payloads, cheap to
/// parse).
class TupleSerializer {
 public:
  explicit TupleSerializer(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  /// Serializes one tuple (no trailing newline). Type-checks against the
  /// schema.
  Result<std::string> Serialize(const Tuple& tuple) const;

  /// Serializes a whole block, newline-terminated rows, reading each
  /// row through the block's projection. Type-checks every row.
  Result<std::string> SerializeBlock(const RowBlock& block) const;

  /// SerializeBlock()'s rows appended to `out` as XML text content:
  /// the five XML specials become entities in the same pass that
  /// escapes the fields, so a SOAP payload element is written without
  /// an intermediate copy. On a row that does not conform, returns
  /// RowBlock::RowConformsTo()'s status and leaves `out` partly
  /// written.
  Status AppendBlockAsXmlText(const RowBlock& block, std::string& out) const;

  /// Parses one row produced by Serialize().
  Result<Tuple> Deserialize(const std::string& line) const;

  /// Parses a whole block produced by SerializeBlock().
  Result<std::vector<Tuple>> DeserializeBlock(const std::string& data) const;

 private:
  Schema schema_;
};

}  // namespace wsq

#endif  // WSQ_RELATION_TUPLE_SERIALIZER_H_
