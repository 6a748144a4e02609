#include "wsq/codec/binary_codec.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "wsq/codec/lz.h"
#include "wsq/codec/varint.h"

namespace wsq::codec {
namespace {

// Hostile-input guards: a decoded block may not claim more rows or
// columns than any legitimate payload under the 64 MiB frame cap could
// carry.
constexpr uint64_t kMaxRows = uint64_t{1} << 26;
constexpr uint64_t kMaxColumns = 4096;

void PutPrelude(std::string* out, uint8_t kind, uint8_t flags) {
  out->append(kBinaryMagic);
  out->push_back(static_cast<char>(kBinaryVersion));
  out->push_back(static_cast<char>(kind));
  out->push_back(static_cast<char>(flags));
  out->push_back(0);  // reserved
}

void PutDoubleBits(std::string* out, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

/// Parses the prelude and returns the flags byte after validating
/// magic, version, kind and the reserved byte.
Result<uint8_t> ReadPrelude(ByteCursor* cursor, uint8_t expected_kind) {
  Result<const char*> magic = cursor->ReadBytes(kBinaryMagic.size());
  if (!magic.ok()) return magic.status();
  if (std::string_view(magic.value(), kBinaryMagic.size()) != kBinaryMagic) {
    return Status::InvalidArgument("binary codec: bad magic");
  }
  Result<uint8_t> version = cursor->ReadByte();
  if (!version.ok()) return version.status();
  if (version.value() != kBinaryVersion) {
    return Status::InvalidArgument("binary codec: unsupported version " +
                                   std::to_string(version.value()));
  }
  Result<uint8_t> kind = cursor->ReadByte();
  if (!kind.ok()) return kind.status();
  if (kind.value() != expected_kind) {
    return Status::InvalidArgument("binary codec: unexpected message kind " +
                                   std::to_string(kind.value()));
  }
  Result<uint8_t> flags = cursor->ReadByte();
  if (!flags.ok()) return flags.status();
  Result<uint8_t> reserved = cursor->ReadByte();
  if (!reserved.ok()) return reserved.status();
  if (reserved.value() != 0) {
    return Status::InvalidArgument("binary codec: non-zero reserved byte");
  }
  return flags;
}

/// Upper bound on the encoded body size — worst-case varint widths plus
/// each row's string bytes as often as one string column reads them
/// (Tuple::string_bytes), so EncodeBody appends into pre-reserved
/// storage and never reallocates mid-block.
size_t BodySizeBound(const Schema& schema, const RowBlock& rows) {
  const size_t bitmap_bytes = (rows.size() + 7) / 8;
  size_t bound = 10;  // column-count varint
  for (size_t col = 0; col < schema.num_columns(); ++col) {
    bound += 1 + bitmap_bytes;
    switch (schema.column(col).type) {
      case ColumnType::kInt64:
        bound += 10 * rows.size();
        break;
      case ColumnType::kDouble:
        bound += 8 * rows.size();
        break;
      case ColumnType::kString:
        bound += 5 * rows.size();
        break;
    }
  }
  const size_t string_reads = rows.MaxStringReads(schema);
  for (const Tuple* row : rows) bound += string_reads * row->string_bytes();
  return bound;
}

/// Fails unless every row, as projected, has exactly the schema's
/// columns — the arity the SOAP writer's RowConformsTo requires — so the
/// column loops can index the projection and the rows without a bounds
/// check per value. Checks the projection once and each row's arity.
Status CheckRowWidths(const Schema& schema, const RowBlock& rows) {
  const size_t num_cols = schema.num_columns();
  const auto arity_mismatch = [&](size_t arity) {
    return Status::InvalidArgument(
        "binary codec: rows read as " + std::to_string(arity) +
        " values, the schema has " + std::to_string(num_cols) + " columns");
  };
  const std::vector<size_t>* projection = rows.projection();
  if (projection == nullptr) {
    for (const Tuple* row : rows) {
      if (row->num_values() != num_cols) {
        return arity_mismatch(row->num_values());
      }
    }
    return Status::Ok();
  }
  if (projection->size() != num_cols) return arity_mismatch(projection->size());
  size_t width = 0;
  for (size_t src : *projection) width = std::max(width, src + 1);
  for (const Tuple* row : rows) {
    if (row->num_values() < width) {
      return Status::InvalidArgument(
          "binary codec: row has " + std::to_string(row->num_values()) +
          " values, the projection reads " + std::to_string(width));
    }
  }
  return Status::Ok();
}

Status ColumnMismatch(const Schema& schema, size_t col) {
  return Status::InvalidArgument(
      "binary codec: row value does not match schema column " +
      schema.column(col).name);
}

/// Column-major encode of `rows` as read through their projection; a
/// value missing or of the wrong type fails the block.
Status EncodeBody(const Schema& schema, const RowBlock& rows,
                  std::string* body) {
  WSQ_RETURN_IF_ERROR(CheckRowWidths(schema, rows));
  const size_t num_cols = schema.num_columns();
  const size_t bitmap_bytes = (rows.size() + 7) / 8;
  body->reserve(body->size() + BodySizeBound(schema, rows));
  PutUVarint(body, num_cols);
  for (size_t col = 0; col < num_cols; ++col) {
    const ColumnType type = schema.column(col).type;
    const size_t src = rows.column(col);
    body->push_back(static_cast<char>(type));
    body->append(bitmap_bytes, '\0');  // no nulls in the Value model
    switch (type) {
      case ColumnType::kInt64:
        for (const Tuple* row : rows) {
          const int64_t* v = std::get_if<int64_t>(&row->value(src));
          if (v == nullptr) return ColumnMismatch(schema, col);
          PutVarint(body, *v);
        }
        break;
      case ColumnType::kDouble:
        for (const Tuple* row : rows) {
          const double* v = std::get_if<double>(&row->value(src));
          if (v == nullptr) return ColumnMismatch(schema, col);
          PutDoubleBits(body, *v);
        }
        break;
      case ColumnType::kString:
        for (const Tuple* row : rows) {
          const std::string* v = std::get_if<std::string>(&row->value(src));
          if (v == nullptr) return ColumnMismatch(schema, col);
          PutUVarint(body, v->size());
        }
        for (const Tuple* row : rows) {
          body->append(*std::get_if<std::string>(&row->value(src)));
        }
        break;
    }
  }
  return Status::Ok();
}

}  // namespace

Status BinaryCodec::DecodeBody(ByteCursor* cursor, const char* buffer_base,
                               size_t num_rows, WireRows* rows) {
  Result<uint64_t> num_cols = cursor->ReadUVarint();
  if (!num_cols.ok()) return num_cols.status();
  if (num_cols.value() > kMaxColumns) {
    return Status::InvalidArgument("binary codec: implausible column count");
  }
  const size_t bitmap_bytes = (num_rows + 7) / 8;
  rows->columns_.resize(num_cols.value());
  for (WireRows::ColumnView& column : rows->columns_) {
    Result<uint8_t> type = cursor->ReadByte();
    if (!type.ok()) return type.status();
    if (type.value() > static_cast<uint8_t>(ColumnType::kString)) {
      return Status::InvalidArgument("binary codec: unknown column type " +
                                     std::to_string(type.value()));
    }
    column.type = static_cast<ColumnType>(type.value());
    Result<const char*> bitmap = cursor->ReadBytes(bitmap_bytes);
    if (!bitmap.ok()) return bitmap.status();
    for (size_t i = 0; i < bitmap_bytes; ++i) {
      if (bitmap.value()[i] != 0) {
        return Status::InvalidArgument(
            "binary codec: null values are not supported");
      }
    }
    switch (column.type) {
      case ColumnType::kInt64: {
        // Each varint is at least one byte, so `remaining` bounds the
        // honest row count — a hostile header can't force a huge
        // allocation before the cursor runs dry.
        column.ints.reserve(
            num_rows < cursor->remaining() ? num_rows : cursor->remaining());
        for (size_t i = 0; i < num_rows; ++i) {
          Result<int64_t> v = cursor->ReadVarint();
          if (!v.ok()) return v.status();
          column.ints.push_back(v.value());
        }
        break;
      }
      case ColumnType::kDouble: {
        Result<const char*> data = cursor->ReadBytes(8 * num_rows);
        if (!data.ok()) return data.status();
        column.data_offset = static_cast<size_t>(data.value() - buffer_base);
        break;
      }
      case ColumnType::kString: {
        const size_t plausible =
            num_rows < cursor->remaining() ? num_rows : cursor->remaining();
        column.str_offsets.reserve(plausible + 1);
        uint64_t total = 0;
        std::vector<uint64_t> lengths;
        lengths.reserve(plausible);
        for (size_t i = 0; i < num_rows; ++i) {
          Result<uint64_t> len = cursor->ReadUVarint();
          if (!len.ok()) return len.status();
          // Reject each length on its own before accumulating: a single
          // near-2^64 value would wrap `total` right past the running
          // check below and turn the offsets into out-of-buffer views.
          // With both checks `total` stays <= remaining() (itself far
          // below 2^32), so the sum can never wrap.
          if (len.value() > cursor->remaining()) {
            return Status::InvalidArgument(
                "binary codec: string data overruns payload");
          }
          total += len.value();
          if (total > cursor->remaining()) {
            return Status::InvalidArgument(
                "binary codec: string data overruns payload");
          }
          lengths.push_back(len.value());
        }
        Result<const char*> data = cursor->ReadBytes(total);
        if (!data.ok()) return data.status();
        uint64_t offset = static_cast<uint64_t>(data.value() - buffer_base);
        column.str_offsets.push_back(static_cast<uint32_t>(offset));
        for (uint64_t len : lengths) {
          offset += len;
          column.str_offsets.push_back(static_cast<uint32_t>(offset));
        }
        break;
      }
    }
  }
  rows->num_rows_ = num_rows;
  return Status::Ok();
}

Result<std::string> BinaryCodec::EncodeRequestBlock(
    const RequestBlockRequest& request) const {
  std::string out;
  out.reserve(32);
  PutPrelude(&out, kBinaryMsgRequestBlock, 0);
  PutVarint(&out, request.session_id);
  PutVarint(&out, request.block_size);
  PutVarint(&out, request.sequence);
  return out;
}

Result<RequestBlockRequest> BinaryCodec::DecodeRequestBlock(
    const std::string& payload) const {
  ByteCursor cursor(payload);
  Result<uint8_t> flags = ReadPrelude(&cursor, kBinaryMsgRequestBlock);
  if (!flags.ok()) return flags.status();
  if (flags.value() != 0) {
    return Status::InvalidArgument("binary codec: request carries flags");
  }
  RequestBlockRequest request;
  Result<int64_t> session = cursor.ReadVarint();
  if (!session.ok()) return session.status();
  request.session_id = session.value();
  Result<int64_t> size = cursor.ReadVarint();
  if (!size.ok()) return size.status();
  request.block_size = size.value();
  Result<int64_t> sequence = cursor.ReadVarint();
  if (!sequence.ok()) return sequence.status();
  request.sequence = sequence.value();
  if (!cursor.exhausted()) {
    return Status::InvalidArgument("binary codec: trailing request bytes");
  }
  return request;
}

Result<std::string> BinaryCodec::EncodeBlockResponse(
    int64_t session_id, bool end_of_results, const Schema& schema,
    const RowBlock& rows) const {
  std::string out;
  PutPrelude(&out, kBinaryMsgBlockResponse, 0);
  PutVarint(&out, session_id);
  out.push_back(end_of_results ? 1 : 0);
  PutUVarint(&out, rows.size());

  // Encode the body in place — the uncompressed path is one buffer, no
  // copy. Compression (opt-in) re-packs from the encoded tail.
  const size_t body_start = out.size();
  WSQ_RETURN_IF_ERROR(EncodeBody(schema, rows, &out));
  const size_t body_size = out.size() - body_start;

  if (options_.compress_blocks && body_size >= options_.min_compress_bytes) {
    std::string compressed;
    LzCompress(std::string_view(out.data() + body_start, body_size),
               &compressed);
    // Varint overhead for the raw size; keep compression only when it
    // actually wins.
    if (compressed.size() + 10 < body_size) {
      out[6] = static_cast<char>(kBinaryFlagCompressedBody);
      out.resize(body_start);
      PutUVarint(&out, body_size);
      out.append(compressed);
    }
  }
  return out;
}

Result<DecodedBlock> BinaryCodec::DecodeBlockResponse(
    std::string payload) const {
  ByteCursor cursor(payload);
  Result<uint8_t> flags = ReadPrelude(&cursor, kBinaryMsgBlockResponse);
  if (!flags.ok()) return flags.status();
  if ((flags.value() & ~kBinaryFlagCompressedBody) != 0) {
    return Status::InvalidArgument("binary codec: unknown response flags");
  }

  DecodedBlock block;
  Result<int64_t> session = cursor.ReadVarint();
  if (!session.ok()) return session.status();
  block.session_id = session.value();
  Result<uint8_t> eof = cursor.ReadByte();
  if (!eof.ok()) return eof.status();
  if (eof.value() > 1) {
    return Status::InvalidArgument("binary codec: bad endOfResults byte");
  }
  block.end_of_results = eof.value() == 1;
  Result<uint64_t> num_rows = cursor.ReadUVarint();
  if (!num_rows.ok()) return num_rows.status();
  if (num_rows.value() > kMaxRows) {
    return Status::InvalidArgument("binary codec: implausible row count");
  }
  block.num_tuples = static_cast<int64_t>(num_rows.value());

  if ((flags.value() & kBinaryFlagCompressedBody) != 0) {
    Result<uint64_t> raw_size = cursor.ReadUVarint();
    if (!raw_size.ok()) return raw_size.status();
    // A compressed body cannot legitimately inflate past what the frame
    // cap allows on the wire.
    if (raw_size.value() > uint64_t{256} * 1024 * 1024) {
      return Status::InvalidArgument(
          "binary codec: implausible uncompressed body size");
    }
    const size_t compressed_len = cursor.remaining();
    Result<const char*> data = cursor.ReadBytes(compressed_len);
    if (!data.ok()) return data.status();
    Result<std::string> body =
        LzDecompress(std::string_view(data.value(), compressed_len),
                     raw_size.value());
    if (!body.ok()) return body.status();
    ByteCursor body_cursor(body.value());
    WSQ_RETURN_IF_ERROR(DecodeBody(&body_cursor, body.value().data(),
                                   num_rows.value(), &block.rows));
    if (!body_cursor.exhausted()) {
      return Status::InvalidArgument("binary codec: trailing body bytes");
    }
    block.rows.buffer_ = std::move(body).value();
  } else {
    WSQ_RETURN_IF_ERROR(DecodeBody(&cursor, payload.data(),
                                   num_rows.value(), &block.rows));
    if (!cursor.exhausted()) {
      return Status::InvalidArgument("binary codec: trailing body bytes");
    }
    block.rows.buffer_ = std::move(payload);
  }
  return block;
}

}  // namespace wsq::codec
