#include "wsq/relation/tuple_serializer.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <variant>

#include "wsq/common/byte_scan.h"

namespace wsq {
namespace {

/// Bytes a field escape rewrites: the field separator, the escape
/// character itself and the row terminator.
constexpr ByteSet kFieldSpecials("|\\\n");

// kRowEscapeBytes is kFieldSpecials and kXmlSpecialBytes in one set.
// What the writer adds around values ('|', '\n') and the digits, signs,
// points and letters of numbers are never XML specials, so rows written
// with it are exactly the XML-escaped rows of kFieldSpecials.

/// The escape of a byte in kRowEscapeBytes.
std::string_view EscapeFor(char c) {
  switch (c) {
    case '|':
      return "\\|";
    case '\\':
      return "\\\\";
    case '\n':
      return "\\n";
    default:
      return XmlEntity(c);
  }
}

/// Longest "%.2f" rendering of a double: sign, the 309 integer digits of
/// DBL_MAX, the point and two decimals.
constexpr size_t kMaxFixed2Chars =
    1 + std::numeric_limits<double>::max_exponent10 + 1 + 1 + 2;

/// Longest WriteCents output: sign, the 10 integer digits below 2^31,
/// the point and two decimals.
constexpr size_t kMaxCentsChars = 1 + 10 + 1 + 2;

/// Writes `d` at `out` as "%.2f" prints it and returns the end, for the
/// common doubles; returns null, writing nothing, for the rest. Below
/// 2^31 in magnitude, d*100 is within 2^-15 of the exact product, so
/// unless its fraction lies within 1e-3 of .5, rounding it to whole
/// cents rounds the exact value the same way. Near-ties, ties, NaN,
/// infinities and large values are left to to_chars.
char* WriteCents(double d, char* out) {
  const double magnitude = std::fabs(d);
  if (!(magnitude < 2147483648.0)) return nullptr;
  const double cents = magnitude * 100.0;
  const auto whole = static_cast<int64_t>(cents);  // floor: cents >= 0
  const double fraction = cents - static_cast<double>(whole);
  if (std::fabs(fraction - 0.5) <= 1e-3) return nullptr;
  const int64_t rounded = whole + (fraction > 0.5 ? 1 : 0);
  if (std::signbit(d)) *out++ = '-';
  out = std::to_chars(out, out + kMaxCentsChars, rounded / 100).ptr;
  *out++ = '.';
  *out++ = static_cast<char>('0' + rounded / 10 % 10);
  *out++ = static_cast<char>('0' + rounded % 10);
  return out;
}

/// Appends `d` as "%.2f" prints it.
void AppendFixed2(double d, std::string& out) {
  char buf[kMaxFixed2Chars];
  char* end = WriteCents(d, buf);
  if (end == nullptr) {
    end = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::fixed, 2)
              .ptr;
  }
  out.append(buf, end);
}

/// Room the row writer sets aside for a number: the longest int64 in
/// decimal, which also covers WriteCents.
constexpr size_t kNumberRoom = std::numeric_limits<int64_t>::digits10 + 2;
static_assert(kNumberRoom >= kMaxCentsChars);

/// Appends `value` in its wire form if it holds a `type`: integers in
/// decimal, doubles as "%.2f" prints them, strings with the bytes of
/// `specials` escaped. False, writing nothing, for any other value.
bool AppendValue(const Value& value, ColumnType type, const ByteSet& specials,
                 std::string& out) {
  switch (type) {
    case ColumnType::kInt64: {
      const auto* i = std::get_if<int64_t>(&value);
      if (i == nullptr) return false;
      char buf[std::numeric_limits<int64_t>::digits10 + 2];
      out.append(buf, std::to_chars(buf, buf + sizeof(buf), *i).ptr);
      return true;
    }
    case ColumnType::kDouble: {
      const auto* d = std::get_if<double>(&value);
      if (d == nullptr) return false;
      AppendFixed2(*d, out);
      return true;
    }
    case ColumnType::kString: {
      const auto* s = std::get_if<std::string>(&value);
      if (s == nullptr) return false;
      AppendEscaped(*s, specials, EscapeFor, out);
      return true;
    }
  }
  return false;
}

/// Writes `value` at `cursor` in its wire form and returns the end, when
/// it holds a `type` and needs no rewriting: an integer, a double
/// WriteCents takes, a string with no byte of `specials`. A string of an
/// escape-free row is copied unscanned. Otherwise returns null; the
/// bytes at `cursor` are then undefined. `cursor` has room for a
/// string's raw bytes, or kNumberRoom.
char* WriteValueFast(const Value& value, ColumnType type, bool escape_free,
                     const ByteSet& specials, char* cursor) {
  switch (type) {
    case ColumnType::kInt64: {
      const auto* i = std::get_if<int64_t>(&value);
      return i == nullptr
                 ? nullptr
                 : std::to_chars(cursor, cursor + kNumberRoom, *i).ptr;
    }
    case ColumnType::kDouble: {
      const auto* d = std::get_if<double>(&value);
      return d == nullptr ? nullptr : WriteCents(*d, cursor);
    }
    case ColumnType::kString: {
      const auto* s = std::get_if<std::string>(&value);
      if (s == nullptr) return nullptr;
      if (escape_free) {
        std::memcpy(cursor, s->data(), s->size());
        return cursor + s->size();
      }
      return CopyIfClean(*s, specials, cursor) ? cursor + s->size() : nullptr;
    }
  }
  return nullptr;
}

/// The one row writer: appends every row of `block`, '\n'-terminated,
/// with the string bytes in `specials`, a subset of kRowEscapeBytes,
/// escaped. Each row's room comes from its facts: its separators and
/// terminator, kNumberRoom per number, and its string bytes as often as
/// one string column reads them. `out` is reserved once for the whole
/// block's room, then each row is sized to its room within it (so only
/// a row's worth is zero-filled at a time, while it is in cache) and
/// written through a cursor by WriteValueFast; a value that takes no
/// fast path is appended by AppendValue instead. Each value is checked
/// against `schema` as it is written; the first row that does not
/// conform returns RowConformsTo()'s status, leaving `out` partly
/// written.
Status AppendRows(const Schema& schema, const RowBlock& block,
                  const ByteSet& specials, std::string& out) {
  const size_t num_columns = schema.num_columns();
  // The separators and the terminator: one per column, or one alone.
  size_t fixed_room = std::max<size_t>(num_columns, 1);
  for (const Column& column : schema.columns()) {
    if (column.type != ColumnType::kString) fixed_room += kNumberRoom;
  }
  const size_t string_reads = block.MaxStringReads(schema);
  const auto room_of = [&](const Tuple& row) {
    return fixed_room + string_reads * row.string_bytes();
  };
  size_t block_room = 0;
  for (const Tuple* row : block) block_room += room_of(*row);
  out.reserve(out.size() + block_room);
  char* cursor = out.data() + out.size();
  size_t i = 0;
  const auto fail = [&] {
    out.resize(static_cast<size_t>(cursor - out.data()));
    return block.RowConformsTo(i, schema);
  };
  for (const Tuple* row : block) {
    const size_t room = room_of(*row);
    out.resize(static_cast<size_t>(cursor - out.data()) + room);
    cursor = out.data() + out.size() - room;
    if (block.width(*row) != num_columns) return fail();
    const bool escape_free = row->escape_free();
    for (size_t c = 0; c < num_columns; ++c) {
      if (c > 0) *cursor++ = '|';
      const size_t source = block.column(c);
      if (source >= row->num_values()) return fail();
      const Value& value = row->value(source);
      const ColumnType type = schema.column(c).type;
      if (char* end =
              WriteValueFast(value, type, escape_free, specials, cursor)) {
        cursor = end;
        continue;
      }
      out.resize(static_cast<size_t>(cursor - out.data()));
      if (!AppendValue(value, type, specials, out)) return fail();
      // Room again for the rest of the row; it is at most the whole's.
      out.resize(out.size() + room);
      cursor = out.data() + out.size() - room;
    }
    *cursor++ = '\n';
    ++i;
  }
  out.resize(static_cast<size_t>(cursor - out.data()));
  return Status::Ok();
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
      // from_chars, unlike strtod, ignores the C locale's LC_NUMERIC.
      double v = 0;
      auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
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

Result<std::string> TupleSerializer::Serialize(const Tuple& tuple) const {
  std::string out;
  WSQ_RETURN_IF_ERROR(
      AppendRows(schema_, RowBlock({&tuple}, nullptr), kFieldSpecials, out));
  out.pop_back();  // a lone tuple carries no row terminator
  return out;
}

Result<std::string> TupleSerializer::SerializeBlock(
    const RowBlock& block) const {
  std::string out;
  WSQ_RETURN_IF_ERROR(AppendRows(schema_, block, kFieldSpecials, out));
  return out;
}

Status TupleSerializer::AppendBlockAsXmlText(const RowBlock& block,
                                             std::string& out) const {
  return AppendRows(schema_, block, kRowEscapeBytes, out);
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
