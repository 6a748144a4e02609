#include "wsq/codec/binary_codec.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "row_block_cases.h"
#include "wsq/codec/codec.h"
#include "wsq/codec/soap_codec.h"
#include "wsq/relation/schema.h"
#include "wsq/relation/tuple.h"
#include "wsq/relation/tuple_serializer.h"

namespace wsq::codec {
namespace {

Schema MixedSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"balance", ColumnType::kDouble},
                 {"name", ColumnType::kString}});
}

std::vector<Tuple> MixedRows(int n) {
  std::vector<Tuple> rows;
  for (int i = 0; i < n; ++i) {
    rows.emplace_back(Tuple({Value(static_cast<int64_t>(i * 1000 - 5)),
                             Value(static_cast<double>(i) + 0.125),
                             Value("row-" + std::to_string(i))}));
  }
  return rows;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(BinaryCodecTest, RequestBlockRoundTrips) {
  BinaryCodec codec;
  RequestBlockRequest request;
  request.session_id = 77;
  request.block_size = 2500;
  request.sequence = 12;
  Result<std::string> encoded = codec.EncodeRequestBlock(request);
  ASSERT_TRUE(encoded.ok());
  Result<RequestBlockRequest> back = codec.DecodeRequestBlock(encoded.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().session_id, 77);
  EXPECT_EQ(back.value().block_size, 2500);
  EXPECT_EQ(back.value().sequence, 12);
}

TEST(BinaryCodecTest, RequestBlockCarriesUnsequencedMarker) {
  BinaryCodec codec;
  RequestBlockRequest request;
  request.session_id = 1;
  request.block_size = 10;
  // sequence stays -1: must survive the zigzag round-trip.
  Result<std::string> encoded = codec.EncodeRequestBlock(request);
  ASSERT_TRUE(encoded.ok());
  Result<RequestBlockRequest> back = codec.DecodeRequestBlock(encoded.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().sequence, -1);
}

TEST(BinaryCodecTest, RequestBlockRejectsTruncationAtEveryCut) {
  BinaryCodec codec;
  RequestBlockRequest request;
  request.session_id = 123456789;
  request.block_size = 987654321;
  request.sequence = 5;
  const std::string encoded = codec.EncodeRequestBlock(request).value();
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(codec.DecodeRequestBlock(encoded.substr(0, cut)).ok())
        << "cut=" << cut;
  }
  EXPECT_FALSE(codec.DecodeRequestBlock(encoded + "x").ok())
      << "trailing bytes accepted";
}

TEST(BinaryCodecTest, BlockResponseRoundTripsAllColumnTypes) {
  BinaryCodec codec;
  const Schema schema = MixedSchema();
  const std::vector<Tuple> rows = MixedRows(10);
  Result<std::string> encoded =
      codec.EncodeBlockResponse(42, /*end_of_results=*/true, schema, rows);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();

  Result<DecodedBlock> block = codec.DecodeBlockResponse(encoded.value());
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(block.value().session_id, 42);
  EXPECT_TRUE(block.value().end_of_results);
  EXPECT_EQ(block.value().num_tuples, 10);

  const WireRows& wire = block.value().rows;
  ASSERT_FALSE(wire.text_mode());
  ASSERT_EQ(wire.num_rows(), 10u);
  ASSERT_EQ(wire.num_columns(), 3u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(wire.Int64At(i, 0), static_cast<int64_t>(i) * 1000 - 5);
    EXPECT_EQ(wire.DoubleAt(i, 1), static_cast<double>(i) + 0.125);
    EXPECT_EQ(wire.StringAt(i, 2), "row-" + std::to_string(i));
    EXPECT_FALSE(wire.IsNull(i, 0));
  }

  // Materialize must agree with the accessors.
  Result<std::vector<Tuple>> tuples = wire.Materialize(nullptr);
  ASSERT_TRUE(tuples.ok());
  EXPECT_EQ(tuples.value(), rows);
}

TEST(BinaryCodecTest, SpecialDoublesAreBitExact) {
  BinaryCodec codec;
  const Schema schema({{"v", ColumnType::kDouble}});
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             -123456.789012345678};
  std::vector<Tuple> rows;
  for (double v : specials) rows.emplace_back(Tuple({Value(v)}));

  const std::string encoded =
      codec.EncodeBlockResponse(1, false, schema, rows).value();
  Result<DecodedBlock> block = codec.DecodeBlockResponse(encoded);
  ASSERT_TRUE(block.ok());
  for (size_t i = 0; i < std::size(specials); ++i) {
    EXPECT_EQ(Bits(block.value().rows.DoubleAt(i, 0)), Bits(specials[i]))
        << "row " << i;
  }
  // -0.0 keeps its sign bit, NaN stays NaN.
  EXPECT_TRUE(std::signbit(block.value().rows.DoubleAt(1, 0)));
  EXPECT_TRUE(std::isnan(block.value().rows.DoubleAt(2, 0)));
}

TEST(BinaryCodecTest, EmptyBlockRoundTrips) {
  BinaryCodec codec;
  const Schema schema = MixedSchema();
  const std::string encoded =
      codec.EncodeBlockResponse(9, /*end_of_results=*/true, schema, {})
          .value();
  Result<DecodedBlock> block = codec.DecodeBlockResponse(encoded);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(block.value().num_tuples, 0);
  EXPECT_TRUE(block.value().end_of_results);
  EXPECT_EQ(block.value().rows.num_rows(), 0u);
  Result<std::vector<Tuple>> tuples = block.value().rows.Materialize(nullptr);
  ASSERT_TRUE(tuples.ok());
  EXPECT_TRUE(tuples.value().empty());
}

TEST(BinaryCodecTest, RaggedBlockSizesRoundTrip) {
  // Row counts around the bitmap byte boundary (the ragged last block
  // of a pull loop can be any size).
  BinaryCodec codec;
  const Schema schema = MixedSchema();
  for (int n : {1, 7, 8, 9, 15, 16, 17, 100}) {
    const std::vector<Tuple> rows = MixedRows(n);
    const std::string encoded =
        codec.EncodeBlockResponse(3, false, schema, rows).value();
    Result<DecodedBlock> block = codec.DecodeBlockResponse(encoded);
    ASSERT_TRUE(block.ok()) << "n=" << n << ": " << block.status().ToString();
    Result<std::vector<Tuple>> tuples =
        block.value().rows.Materialize(nullptr);
    ASSERT_TRUE(tuples.ok()) << "n=" << n;
    EXPECT_EQ(tuples.value(), rows) << "n=" << n;
  }
}

TEST(BinaryCodecTest, EmptyStringsAndEmbeddedDelimitersSurvive) {
  BinaryCodec codec;
  const Schema schema({{"s", ColumnType::kString}});
  std::vector<Tuple> rows;
  rows.emplace_back(Tuple({Value(std::string())}));
  rows.emplace_back(Tuple({Value(std::string("a|b\\c\nd"))}));
  rows.emplace_back(Tuple({Value(std::string("\0binary\xff", 8))}));
  rows.emplace_back(Tuple({Value(std::string("<soap>&amp;</soap>"))}));
  const std::string encoded =
      codec.EncodeBlockResponse(1, false, schema, rows).value();
  Result<DecodedBlock> block = codec.DecodeBlockResponse(encoded);
  ASSERT_TRUE(block.ok());
  Result<std::vector<Tuple>> tuples = block.value().rows.Materialize(nullptr);
  ASSERT_TRUE(tuples.ok());
  EXPECT_EQ(tuples.value(), rows);
}

TEST(BinaryCodecTest, SchemaMismatchedRowIsRejectedOnEncode) {
  BinaryCodec codec;
  const Schema schema({{"id", ColumnType::kInt64}});
  std::vector<Tuple> rows;
  rows.emplace_back(Tuple({Value(std::string("not an int"))}));
  EXPECT_FALSE(codec.EncodeBlockResponse(1, false, schema, rows).ok());
}

TEST(BinaryCodecTest, RowBlockViewsEncodeLikeHandProjectedTuples) {
  // Identity, reordered-subset, filtered and empty cursor blocks, each
  // against owned tuples the test projects itself, plain and compressed.
  BinaryCodecOptions compressed;
  compressed.compress_blocks = true;
  compressed.min_compress_bytes = 1;
  for (const BinaryCodec& codec : {BinaryCodec(), BinaryCodec(compressed)}) {
    for (int64_t block_size : {1, 5, 23, 100}) {
      ExpectViewsEncodeLikeOwnedTuples(codec, block_size);
    }
  }
}

TEST(BinaryCodecTest, SchemaMismatchedViewIsRejectedOnEncode) {
  // The per-row check reads each row through the projection: a column
  // the projection maps onto a value of another type fails the block.
  const Tuple row({Value(int64_t{1}), Value(std::string("x"))});
  const std::vector<size_t> columns = {1};
  const RowBlock view({&row}, &columns);
  const Schema schema({{"id", ColumnType::kInt64}});
  EXPECT_FALSE(BinaryCodec().EncodeBlockResponse(1, false, schema, view).ok());
  EXPECT_FALSE(SoapCodec().EncodeBlockResponse(1, false, schema, view).ok());
  const std::vector<size_t> past_end = {2};
  EXPECT_FALSE(BinaryCodec()
                   .EncodeBlockResponse(1, false, schema,
                                        RowBlock({&row}, &past_end))
                   .ok());
}

TEST(BinaryCodecTest, ProjectionNarrowerThanTheSchemaIsRejectedOnEncode) {
  // The schema's second column has no projection entry to read it
  // through. Both codecs reject the block rather than index past the
  // projection's end; the binary codec checks the projection even when
  // the block has no rows.
  const Tuple row({Value(int64_t{1}), Value(std::string("x"))});
  const std::vector<size_t> columns = {0};
  const Schema schema(
      {{"id", ColumnType::kInt64}, {"name", ColumnType::kString}});
  const RowBlock view({&row}, &columns);
  EXPECT_FALSE(BinaryCodec().EncodeBlockResponse(1, false, schema, view).ok());
  EXPECT_FALSE(SoapCodec().EncodeBlockResponse(1, false, schema, view).ok());
  EXPECT_FALSE(BinaryCodec()
                   .EncodeBlockResponse(1, false, schema,
                                        RowBlock({}, &columns))
                   .ok());
}

TEST(BinaryCodecTest, RowWiderThanTheSchemaIsRejectedOnEncode) {
  // An identity row with a value the schema does not name: the SOAP
  // writer rejects it through RowConformsTo, and so does the binary
  // codec instead of dropping the value silently.
  std::vector<Tuple> rows;
  rows.emplace_back(Tuple({Value(int64_t{1}), Value(std::string("extra"))}));
  const Schema schema({{"id", ColumnType::kInt64}});
  EXPECT_FALSE(BinaryCodec().EncodeBlockResponse(1, false, schema, rows).ok());
  EXPECT_FALSE(SoapCodec().EncodeBlockResponse(1, false, schema, rows).ok());
}

TEST(BinaryCodecTest, CompressionRoundTripsAndShrinksRedundantBlocks) {
  BinaryCodecOptions options;
  options.compress_blocks = true;
  BinaryCodec compressing(options);
  BinaryCodec plain;

  const Schema schema({{"s", ColumnType::kString}});
  std::vector<Tuple> rows;
  for (int i = 0; i < 200; ++i) {
    rows.emplace_back(Tuple({Value(std::string("the same market segment"))}));
  }
  const std::string packed =
      compressing.EncodeBlockResponse(5, false, schema, rows).value();
  const std::string flat =
      plain.EncodeBlockResponse(5, false, schema, rows).value();
  EXPECT_LT(packed.size(), flat.size() / 2);
  EXPECT_EQ(static_cast<uint8_t>(packed[6]), kBinaryFlagCompressedBody);

  // Either codec instance decodes either wire form — the flag, not the
  // options, drives the decoder.
  for (const BinaryCodec* codec : {&compressing, &plain}) {
    Result<DecodedBlock> block = codec->DecodeBlockResponse(packed);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    Result<std::vector<Tuple>> tuples =
        block.value().rows.Materialize(nullptr);
    ASSERT_TRUE(tuples.ok());
    EXPECT_EQ(tuples.value(), rows);
  }
}

TEST(BinaryCodecTest, IncompressibleBlockStaysUncompressed) {
  BinaryCodecOptions options;
  options.compress_blocks = true;
  BinaryCodec codec(options);
  const Schema schema({{"v", ColumnType::kDouble}});
  std::vector<Tuple> rows;
  double v = 0.7310586;
  for (int i = 0; i < 100; ++i) {
    v = v * 3.999 * (1.0 - v);  // chaotic: incompressible mantissas
    rows.emplace_back(Tuple({Value(v)}));
  }
  const std::string encoded =
      codec.EncodeBlockResponse(1, false, schema, rows).value();
  EXPECT_EQ(encoded[6], 0) << "incompressible block was flagged compressed";
  Result<DecodedBlock> block = codec.DecodeBlockResponse(encoded);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block.value().rows.DoubleAt(99, 0), v);
}

TEST(BinaryCodecTest, ResponseTortureTruncationAtEveryCut) {
  BinaryCodec codec;
  const Schema schema = MixedSchema();
  const std::string encoded =
      codec.EncodeBlockResponse(7, true, schema, MixedRows(9)).value();
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    Result<DecodedBlock> block =
        codec.DecodeBlockResponse(encoded.substr(0, cut));
    EXPECT_FALSE(block.ok()) << "cut=" << cut;
  }
  EXPECT_FALSE(codec.DecodeBlockResponse(encoded + std::string(1, '\0')).ok())
      << "trailing bytes accepted";
}

TEST(BinaryCodecTest, CompressedResponseTortureTruncationAtEveryCut) {
  BinaryCodecOptions options;
  options.compress_blocks = true;
  BinaryCodec codec(options);
  const Schema schema({{"s", ColumnType::kString}});
  std::vector<Tuple> rows;
  for (int i = 0; i < 100; ++i) {
    rows.emplace_back(Tuple({Value(std::string("repetitive payload data"))}));
  }
  const std::string encoded =
      codec.EncodeBlockResponse(2, false, schema, rows).value();
  ASSERT_EQ(static_cast<uint8_t>(encoded[6]), kBinaryFlagCompressedBody);
  // A cut that drops only the LZ stream's empty terminal token still
  // decompresses to the full body; any cut that decodes must therefore
  // yield exactly the original rows — everything else must fail.
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    Result<DecodedBlock> block =
        codec.DecodeBlockResponse(encoded.substr(0, cut));
    if (block.ok()) {
      Result<std::vector<Tuple>> tuples =
          block.value().rows.Materialize(nullptr);
      ASSERT_TRUE(tuples.ok()) << "cut=" << cut;
      EXPECT_EQ(tuples.value(), rows) << "cut=" << cut;
    }
  }
  EXPECT_FALSE(codec.DecodeBlockResponse(encoded.substr(0, 8)).ok());
  EXPECT_FALSE(
      codec.DecodeBlockResponse(encoded.substr(0, encoded.size() / 2)).ok());
}

TEST(BinaryCodecTest, HeaderCorruptionIsRejected) {
  BinaryCodec codec;
  const Schema schema = MixedSchema();
  const std::string good =
      codec.EncodeBlockResponse(1, false, schema, MixedRows(3)).value();

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(codec.DecodeBlockResponse(bad_magic).ok());

  std::string bad_version = good;
  bad_version[4] = 9;
  EXPECT_FALSE(codec.DecodeBlockResponse(bad_version).ok());

  std::string bad_kind = good;
  bad_kind[5] = 3;
  EXPECT_FALSE(codec.DecodeBlockResponse(bad_kind).ok());

  std::string bad_flags = good;
  bad_flags[6] = 0x40;
  EXPECT_FALSE(codec.DecodeBlockResponse(bad_flags).ok());

  std::string bad_reserved = good;
  bad_reserved[7] = 1;
  EXPECT_FALSE(codec.DecodeBlockResponse(bad_reserved).ok());
}

TEST(BinaryCodecTest, HostileBodiesAreRejectedWithoutOveralloc) {
  BinaryCodec codec;
  const Schema schema({{"s", ColumnType::kString}});
  std::vector<Tuple> rows;
  rows.emplace_back(Tuple({Value(std::string("abc"))}));
  const std::string good =
      codec.EncodeBlockResponse(1, false, schema, rows).value();

  // Non-zero null bitmap: the Value model has no nulls.
  {
    std::string bad = good;
    // Prelude 8 + session varint 1 + eof 1 + numRows 1 + numCols 1 +
    // type byte 1 = offset 13 is the bitmap byte for a 1-row column.
    bad[13] = '\x01';
    EXPECT_FALSE(codec.DecodeBlockResponse(bad).ok());
  }
  // Unknown column type byte.
  {
    std::string bad = good;
    bad[12] = 7;
    EXPECT_FALSE(codec.DecodeBlockResponse(bad).ok());
  }
  // Bit-flip fuzz over the whole message: decode must fail cleanly or
  // produce a well-formed block — never crash.
  for (size_t i = 0; i < good.size(); ++i) {
    std::string fuzzed = good;
    fuzzed[i] = static_cast<char>(fuzzed[i] ^ 0x5a);
    Result<DecodedBlock> block = codec.DecodeBlockResponse(fuzzed);
    if (block.ok()) {
      Result<std::vector<Tuple>> tuples =
          block.value().rows.Materialize(nullptr);
      (void)tuples;
    }
  }
}

TEST(BinaryCodecTest, LyingRowCountIsRejected) {
  BinaryCodec codec;
  // Hand-build: header claiming 2^20 rows with a one-column int body
  // containing a single varint. Decode must fail on exhaustion, not
  // allocate gigabytes.
  std::string msg;
  msg += "WSQB";
  msg.push_back(1);  // version
  msg.push_back(2);  // BlockResponse
  msg.push_back(0);  // flags
  msg.push_back(0);  // reserved
  msg.push_back(2);  // session id varint (=1)
  msg.push_back(0);  // end_of_results
  PutUVarint(&msg, uint64_t{1} << 20);  // num rows (lie)
  PutUVarint(&msg, 1);                  // num cols
  msg.push_back(0);                     // int64 column type
  // Bitmap for 2^20 rows would be 128 KiB; supply nothing.
  EXPECT_FALSE(codec.DecodeBlockResponse(msg).ok());
}

TEST(BinaryCodecTest, ImplausibleCountsAreRejected) {
  BinaryCodec codec;
  std::string msg;
  msg += "WSQB";
  msg.push_back(1);
  msg.push_back(2);
  msg.push_back(0);
  msg.push_back(0);
  msg.push_back(2);  // session
  msg.push_back(0);  // eof
  PutUVarint(&msg, uint64_t{1} << 40);  // rows beyond kMaxRows
  PutUVarint(&msg, 1);
  EXPECT_FALSE(codec.DecodeBlockResponse(msg).ok());

  std::string msg2;
  msg2 += "WSQB";
  msg2.push_back(1);
  msg2.push_back(2);
  msg2.push_back(0);
  msg2.push_back(0);
  msg2.push_back(2);
  msg2.push_back(0);
  PutUVarint(&msg2, 1);                  // one row
  PutUVarint(&msg2, uint64_t{1} << 20);  // columns beyond kMaxColumns
  EXPECT_FALSE(codec.DecodeBlockResponse(msg2).ok());
}

TEST(BinaryCodecTest, StringLengthSumWraparoundIsRejected) {
  // Regression: two string lengths chosen so their uint64 sum wraps —
  // 30 + (2^64 - 10) == 20 — with exactly 20 data bytes supplied, so
  // every pre-fix check passed (30 <= 30 remaining at row 0, wrapped 20
  // <= 20 remaining at row 1, cursor exhausted). The raw 2^64 - 10
  // length then went into the offset table, and StringAt would hand out
  // a view wrapping ~4 GiB past the buffer. Decode must fail cleanly on
  // the per-length guard instead.
  BinaryCodec codec;
  std::string msg;
  msg += "WSQB";
  msg.push_back(1);  // version
  msg.push_back(2);  // BlockResponse
  msg.push_back(0);  // flags
  msg.push_back(0);  // reserved
  msg.push_back(2);  // session id varint (=1)
  msg.push_back(0);  // end_of_results
  PutUVarint(&msg, 2);  // num rows
  PutUVarint(&msg, 1);  // num cols
  msg.push_back(static_cast<char>(ColumnType::kString));
  msg.push_back(0);  // null bitmap (2 rows -> 1 byte)
  PutUVarint(&msg, 30);                          // row 0 length
  PutUVarint(&msg, uint64_t{0} - uint64_t{10});  // row 1: wraps the sum
  msg.append(20, 'x');  // exactly the wrapped "total"
  EXPECT_FALSE(codec.DecodeBlockResponse(msg).ok());

  // The single-length overflow without wrap: one row claiming more
  // bytes than the payload holds must fail on the per-length guard.
  std::string msg2;
  msg2 += "WSQB";
  msg2.push_back(1);
  msg2.push_back(2);
  msg2.push_back(0);
  msg2.push_back(0);
  msg2.push_back(2);
  msg2.push_back(0);
  PutUVarint(&msg2, 1);  // one row
  PutUVarint(&msg2, 1);  // one col
  msg2.push_back(static_cast<char>(ColumnType::kString));
  msg2.push_back(0);
  PutUVarint(&msg2, uint64_t{1} << 62);  // length far beyond the payload
  msg2.append(16, 'x');
  EXPECT_FALSE(codec.DecodeBlockResponse(msg2).ok());
}

TEST(BinaryCodecTest, CompressedBodySizeLies) {
  BinaryCodecOptions options;
  options.compress_blocks = true;
  options.min_compress_bytes = 1;
  BinaryCodec codec(options);
  const Schema schema({{"s", ColumnType::kString}});
  std::vector<Tuple> rows;
  for (int i = 0; i < 50; ++i) {
    rows.emplace_back(Tuple({Value(std::string("all the same all the same"))}));
  }
  std::string encoded =
      codec.EncodeBlockResponse(1, false, schema, rows).value();
  ASSERT_EQ(static_cast<uint8_t>(encoded[6]), kBinaryFlagCompressedBody);

  // Implausibly large claimed raw size: rejected before allocation.
  std::string huge;
  huge.append(encoded, 0, 8);
  {
    // Rebuild: session, eof, rows, then a lying raw-size varint.
    ByteCursor cursor(encoded);
    (void)cursor.ReadBytes(8);
    (void)cursor.ReadVarint();   // session
    (void)cursor.ReadByte();     // eof
    (void)cursor.ReadUVarint();  // rows
    (void)cursor.ReadUVarint();  // raw size
    huge.push_back(2);           // session=1
    huge.push_back(0);           // eof
    PutUVarint(&huge, rows.size());
    PutUVarint(&huge, uint64_t{1} << 40);  // claimed raw size: 1 TiB
    huge.append(encoded.substr(encoded.size() - cursor.remaining()));
  }
  EXPECT_FALSE(codec.DecodeBlockResponse(huge).ok());
}

TEST(SniffTest, DistinguishesBinarySoapAndGarbage) {
  BinaryCodec binary;
  SoapCodec soap;
  RequestBlockRequest request;
  request.session_id = 1;
  request.block_size = 10;

  EXPECT_EQ(SniffPayloadCodec(binary.EncodeRequestBlock(request).value()),
            CodecKind::kBinary);
  EXPECT_EQ(SniffPayloadCodec(soap.EncodeRequestBlock(request).value()),
            CodecKind::kSoap);
  // Unknown bytes default to SOAP — the legacy parser owns the error.
  EXPECT_EQ(SniffPayloadCodec("garbage"), CodecKind::kSoap);
  EXPECT_EQ(SniffPayloadCodec(""), CodecKind::kSoap);
  EXPECT_EQ(SniffPayloadCodec("WSQ"), CodecKind::kSoap);
}

TEST(NegotiationTest, AdvertisedListsArePreferenceOrdered) {
  EXPECT_EQ(AdvertisedCodecs(CodecKind::kBinary), "binary,soap");
  EXPECT_EQ(AdvertisedCodecs(CodecKind::kSoap), "soap");
}

TEST(NegotiationTest, ServerPicksClientsBestAllowedCodec) {
  EXPECT_EQ(NegotiateCodec("binary,soap", CodecKind::kBinary),
            CodecKind::kBinary);
  EXPECT_EQ(NegotiateCodec("binary,soap", CodecKind::kSoap),
            CodecKind::kSoap);
  EXPECT_EQ(NegotiateCodec("soap", CodecKind::kBinary), CodecKind::kSoap);
}

TEST(NegotiationTest, UnknownAdvertisementsDegradeToSoap) {
  EXPECT_EQ(NegotiateCodec("quantum,alien", CodecKind::kBinary),
            CodecKind::kSoap);
  EXPECT_EQ(NegotiateCodec("", CodecKind::kBinary), CodecKind::kSoap);
  EXPECT_EQ(NegotiateCodec("alien,binary", CodecKind::kBinary),
            CodecKind::kBinary);
}

TEST(CodecChoiceTest, ParsesTheFlagVocabulary) {
  Result<CodecChoice> soap = CodecChoice::FromName("soap");
  ASSERT_TRUE(soap.ok());
  EXPECT_EQ(soap.value().kind, CodecKind::kSoap);
  EXPECT_FALSE(soap.value().compress_blocks);

  Result<CodecChoice> binary = CodecChoice::FromName("binary");
  ASSERT_TRUE(binary.ok());
  EXPECT_EQ(binary.value().kind, CodecKind::kBinary);
  EXPECT_FALSE(binary.value().compress_blocks);

  Result<CodecChoice> lz = CodecChoice::FromName("binary+lz");
  ASSERT_TRUE(lz.ok());
  EXPECT_EQ(lz.value().kind, CodecKind::kBinary);
  EXPECT_TRUE(lz.value().compress_blocks);

  EXPECT_FALSE(CodecChoice::FromName("xml").ok());
  EXPECT_FALSE(CodecChoice::FromName("").ok());

  EXPECT_EQ(soap.value().ToString(), "soap");
  EXPECT_EQ(binary.value().ToString(), "binary");
  EXPECT_EQ(lz.value().ToString(), "binary+lz");
}

TEST(CodecChoiceTest, MakeBlockCodecHonorsTheChoice) {
  std::unique_ptr<BlockCodec> soap =
      MakeBlockCodec(CodecChoice{CodecKind::kSoap, false});
  EXPECT_EQ(soap->kind(), CodecKind::kSoap);
  std::unique_ptr<BlockCodec> binary =
      MakeBlockCodec(CodecChoice{CodecKind::kBinary, false});
  EXPECT_EQ(binary->kind(), CodecKind::kBinary);
}

}  // namespace
}  // namespace wsq::codec
