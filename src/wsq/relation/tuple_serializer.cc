#include "wsq/relation/tuple_serializer.h"

#include <charconv>
#include <cstdlib>
#include <limits>

#include "wsq/common/byte_scan.h"

namespace wsq {
namespace {

/// Bytes EscapeField rewrites: the field separator, the escape
/// character itself and the row terminator.
constexpr ByteSet kNeedsEscape = [] {
  ByteSet set{};
  set['|'] = true;
  set['\\'] = true;
  set['\n'] = true;
  return set;
}();

/// EscapeField(raw) appended to `out`; clean runs are copied whole.
void AppendEscapedField(std::string_view raw, std::string& out) {
  size_t run = 0;
  for (size_t i = FindInSet(raw, 0, kNeedsEscape); i < raw.size();
       i = FindInSet(raw, run, kNeedsEscape)) {
    out.append(raw.substr(run, i - run));
    out += '\\';
    out += raw[i] == '\n' ? 'n' : raw[i];
    run = i + 1;
  }
  out.append(raw.substr(run));
}

/// Longest "%.2f" rendering of a double: sign, the 309 integer digits of
/// DBL_MAX, the point and two decimals.
constexpr size_t kMaxFixed2Chars =
    1 + std::numeric_limits<double>::max_exponent10 + 1 + 1 + 2;

/// Appends one value in its wire form: integers in decimal, doubles as
/// "%.2f" would print them, strings escaped.
void AppendValue(const Value& value, std::string& out) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    char buf[std::numeric_limits<int64_t>::digits10 + 2];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), *i);
    out.append(buf, r.ptr);
  } else if (const auto* d = std::get_if<double>(&value)) {
    char buf[kMaxFixed2Chars];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), *d, std::chars_format::fixed, 2);
    out.append(buf, r.ptr);
  } else {
    AppendEscapedField(std::get<std::string>(value), out);
  }
}

void AppendRow(const Tuple& tuple, std::string& out) {
  for (size_t i = 0; i < tuple.num_values(); ++i) {
    if (i > 0) out += '|';
    AppendValue(tuple.value(i), out);
  }
}

/// Output row `i` of `block`, `num_columns` wide (the schema's arity).
void AppendRow(const RowBlock& block, size_t i, size_t num_columns,
               std::string& out) {
  const Tuple& row = block.row(i);
  for (size_t c = 0; c < num_columns; ++c) {
    if (c > 0) out += '|';
    AppendValue(row.value(block.column(c)), out);
  }
}

/// Splits an escaped line on unescaped '|'.
Result<std::vector<std::string>> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\') {
      if (i + 1 >= line.size()) {
        return Status::InvalidArgument("dangling escape in serialized tuple");
      }
      const char next = line[++i];
      if (next == 'n') {
        current += '\n';
      } else {
        current += next;
      }
    } else if (c == '|') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

Result<Value> ParseValue(const std::string& text, ColumnType type) {
  switch (type) {
    case ColumnType::kInt64: {
      int64_t v = 0;
      auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::InvalidArgument("bad int64 field: " + text);
      }
      return Value(v);
    }
    case ColumnType::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (end != text.c_str() + text.size() || text.empty()) {
        return Status::InvalidArgument("bad double field: " + text);
      }
      return Value(v);
    }
    case ColumnType::kString:
      return Value(text);
  }
  return Status::Internal("unreachable column type");
}

}  // namespace

std::string EscapeField(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  AppendEscapedField(raw, out);
  return out;
}

Result<std::string> UnescapeField(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  size_t run = 0;
  for (size_t slash = escaped.find('\\'); slash != std::string::npos;
       slash = escaped.find('\\', run)) {
    if (slash + 1 >= escaped.size()) {
      return Status::InvalidArgument("dangling escape");
    }
    out.append(escaped, run, slash - run);
    const char next = escaped[slash + 1];
    out += next == 'n' ? '\n' : next;
    run = slash + 2;
  }
  out.append(escaped, run, std::string::npos);
  return out;
}

Result<std::string> TupleSerializer::Serialize(const Tuple& tuple) const {
  WSQ_RETURN_IF_ERROR(tuple.ConformsTo(schema_));
  std::string out;
  AppendRow(tuple, out);
  return out;
}

Result<std::string> TupleSerializer::SerializeBlock(
    const RowBlock& block) const {
  const size_t num_columns = schema_.num_columns();
  std::string out;
  for (size_t i = 0; i < block.size(); ++i) {
    WSQ_RETURN_IF_ERROR(block.RowConformsTo(i, schema_));
    AppendRow(block, i, num_columns, out);
    out += '\n';
    // Size the buffer once, from the first row, with headroom for rows
    // longer than it.
    if (i == 0) out.reserve(out.size() * block.size() * 5 / 4);
  }
  return out;
}

Result<Tuple> TupleSerializer::Deserialize(const std::string& line) const {
  Result<std::vector<std::string>> fields = SplitFields(line);
  if (!fields.ok()) return fields.status();
  if (fields.value().size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "field count " + std::to_string(fields.value().size()) +
        " does not match schema arity " +
        std::to_string(schema_.num_columns()));
  }
  std::vector<Value> values;
  values.reserve(fields.value().size());
  for (size_t i = 0; i < fields.value().size(); ++i) {
    Result<Value> v = ParseValue(fields.value()[i], schema_.column(i).type);
    if (!v.ok()) return v.status();
    values.push_back(std::move(v).value());
  }
  return Tuple(std::move(values));
}

Result<std::vector<Tuple>> TupleSerializer::DeserializeBlock(
    const std::string& data) const {
  std::vector<Tuple> out;
  size_t start = 0;
  while (start < data.size()) {
    // Find the next row terminator (escaped newlines are "\\n", i.e.
    // never a literal '\n' byte in the stream). Every '\n'-terminated
    // segment is a row — including an empty one, which is the valid
    // serialization of a single-string-column tuple holding "".
    const size_t end = data.find('\n', start);
    if (end == std::string::npos) {
      // Trailing unterminated bytes: parse only if non-empty (a
      // well-formed block always terminates its last row).
      Result<Tuple> t = Deserialize(data.substr(start));
      if (!t.ok()) return t.status();
      out.push_back(std::move(t).value());
      break;
    }
    Result<Tuple> t = Deserialize(data.substr(start, end - start));
    if (!t.ok()) return t.status();
    out.push_back(std::move(t).value());
    start = end + 1;
  }
  return out;
}

}  // namespace wsq
