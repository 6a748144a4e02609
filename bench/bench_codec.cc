// Codec microbenchmark: the full block data path — encode a result
// block, decode it, then *read every value* — through each BlockCodec,
// on realistic TPC-H Customer rows.
//
// Both codecs are measured to the same endpoint: every value of the
// block read back out. To get there SOAP has to parse its text payload
// into tuples; binary reads straight through the zero-copy WireRows
// views — that asymmetry is the design being measured, not an
// unfairness. Correctness is validated untimed on the warm-up rep: the
// codecs must agree on a checksum at SOAP's documented 2-decimal
// double precision, and binary must additionally round-trip the source
// doubles bit-exactly (the precision SOAP drops).
//
// The gate protects the binary round trip. It is timed against a
// yardstick that no codec change touches: a copy of the block's binary
// wire bytes. The bench exits non-zero when binary's best rep costs
// more than kGateCeiling best copies; in the sanitized build CI runs,
// the ceiling sits close enough above the measured ratio that a 1.3x
// slower BinaryCodec fails it. The binary-vs-SOAP round-trip speedup
// is printed but not gated, since it also moves when SOAP gets faster.
//
// Flags (besides the standard BenchSession set):
//   --rows=N    tuples per block (default 10000)
//   --reps=R    measured repetitions per codec (default 30)
//
// Output ends with the machine-readable lines CI's codec-smoke step
// asserts on:
//
//   codec-speedup: binary vs soap = 6.0x (encode+decode+scan)
//   codec-gate: binary round trip = 18.76 wire copies (ceiling 26.00, plain build, 1 attempt)
//
// --bench-json records one sample per *binary* repetition, so
// BENCH_codec.json tracks the shipped codec's round-trip latency.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "bench/bench_util.h"

namespace wsq::bench {
namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsanBuild = true;
#elif defined(__has_feature)
constexpr bool kAsanBuild = __has_feature(address_sanitizer);
#else
constexpr bool kAsanBuild = false;
#endif

/// Ceiling on the binary round trip, in copies of its wire bytes (the
/// gate in Run()). ASan instruments the codec's every access but not
/// the copy, so a sanitized build has its own ceiling. The sanitized
/// one, which CI gates on, lies between the ratios measured with
/// BinaryCodec as is and 1.3x slower; the plain one leaves room for a
/// noisy shared machine and catches about 1.4x.
constexpr double kGateCeiling = kAsanBuild ? 9.3 : 26.0;

struct CodecBenchFlags {
  int rows = 10000;
  int reps = 30;
};

void ParseCodecFlags(int argc, char** argv, CodecBenchFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--rows=", 7) == 0) flags->rows = std::atoi(arg + 7);
    if (std::strncmp(arg, "--reps=", 7) == 0) flags->reps = std::atoi(arg + 7);
  }
  if (flags->rows < 1) flags->rows = 1;
  if (flags->reps < 1) flags->reps = 1;
}

struct CodecTiming {
  double encode_ms = 0.0;
  double decode_ms = 0.0;
  double scan_ms = 0.0;  // read every value (SOAP: includes text parse)
  size_t wire_bytes = 0;
  uint64_t checksum = 0;
};

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The gate's copies store one byte here, so they cannot be optimized
/// away.
volatile char copy_sink = 0;

inline uint64_t Fold(uint64_t hash, uint64_t value) {
  return hash * 1099511628211ull ^ value;
}

uint64_t FoldDouble(uint64_t hash, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return Fold(hash, bits);
}

uint64_t FoldBytes(uint64_t hash, std::string_view bytes) {
  hash = Fold(hash, bytes.size());
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    hash = Fold(hash, word);
  }
  uint64_t tail = 0;
  if (i < bytes.size()) std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  return Fold(hash, tail);
}

/// Reads every value of the decoded block, folding raw values (doubles
/// by bit pattern). For binary this walks the zero-copy views;
/// text-mode (SOAP) rows must be materialized first. The hash exists
/// so the reads can't be optimized away; cross-codec agreement is
/// checked separately at SOAP's precision.
Result<uint64_t> ScanAll(const codec::WireRows& rows,
                         const TupleSerializer& serializer) {
  uint64_t hash = 1469598103934665603ull;
  if (rows.text_mode()) {
    Result<std::vector<Tuple>> tuples = rows.Materialize(&serializer);
    if (!tuples.ok()) return tuples.status();
    const Schema& schema = serializer.schema();
    for (const Tuple& tuple : tuples.value()) {
      for (size_t col = 0; col < schema.num_columns(); ++col) {
        switch (schema.column(col).type) {
          case ColumnType::kInt64:
            hash = Fold(hash,
                        static_cast<uint64_t>(std::get<int64_t>(tuple.value(col))));
            break;
          case ColumnType::kDouble:
            hash = FoldDouble(hash, std::get<double>(tuple.value(col)));
            break;
          case ColumnType::kString:
            hash = FoldBytes(hash, std::get<std::string>(tuple.value(col)));
            break;
        }
      }
    }
    return hash;
  }
  for (size_t row = 0; row < rows.num_rows(); ++row) {
    for (size_t col = 0; col < rows.num_columns(); ++col) {
      switch (rows.column_type(col)) {
        case ColumnType::kInt64:
          hash = Fold(hash, static_cast<uint64_t>(rows.Int64At(row, col)));
          break;
        case ColumnType::kDouble:
          hash = FoldDouble(hash, rows.DoubleAt(row, col));
          break;
        case ColumnType::kString:
          hash = FoldBytes(hash, rows.StringAt(row, col));
          break;
      }
    }
  }
  return hash;
}

/// Untimed validation checksum at SOAP's wire precision: doubles fold
/// as their 2-decimal rendering, everything else exactly — the one
/// representation every codec can agree on.
Result<uint64_t> ValidationChecksum(const codec::WireRows& rows,
                                    const TupleSerializer& serializer) {
  Result<std::vector<Tuple>> tuples = rows.Materialize(&serializer);
  if (!tuples.ok()) return tuples.status();
  const Schema& schema = serializer.schema();
  uint64_t hash = 1469598103934665603ull;
  for (const Tuple& tuple : tuples.value()) {
    for (size_t col = 0; col < schema.num_columns(); ++col) {
      switch (schema.column(col).type) {
        case ColumnType::kInt64:
          hash = Fold(hash,
                      static_cast<uint64_t>(std::get<int64_t>(tuple.value(col))));
          break;
        case ColumnType::kDouble:
          hash = FoldBytes(hash,
                           FormatDouble(std::get<double>(tuple.value(col)), 2));
          break;
        case ColumnType::kString:
          hash = FoldBytes(hash, std::get<std::string>(tuple.value(col)));
          break;
      }
    }
  }
  return hash;
}

/// Untimed encode→decode→checksum pass for the cross-codec agreement
/// check.
uint64_t ValidateCodec(const codec::BlockCodec& codec, const Schema& schema,
                       const std::vector<Tuple>& block,
                       const TupleSerializer& serializer) {
  Result<std::string> encoded = codec.EncodeBlockResponse(
      /*session_id=*/1, /*end_of_results=*/false, schema, block);
  if (!encoded.ok()) std::exit(1);
  Result<codec::DecodedBlock> decoded =
      codec.DecodeBlockResponse(std::move(encoded).value());
  if (!decoded.ok()) std::exit(1);
  Result<uint64_t> checksum =
      ValidationChecksum(decoded.value().rows, serializer);
  if (!checksum.ok()) {
    std::fprintf(stderr, "%s validation failed: %s\n",
                 std::string(codec.name()).c_str(),
                 checksum.status().ToString().c_str());
    std::exit(1);
  }
  return checksum.value();
}

/// Binary must preserve what SOAP cannot: every source double comes
/// back bit-identical through the binary wire.
void CheckBitExactDoubles(const codec::BlockCodec& codec, const Schema& schema,
                          const std::vector<Tuple>& block) {
  Result<std::string> encoded = codec.EncodeBlockResponse(
      /*session_id=*/1, /*end_of_results=*/false, schema, block);
  if (!encoded.ok()) std::exit(1);
  Result<codec::DecodedBlock> decoded =
      codec.DecodeBlockResponse(std::move(encoded).value());
  if (!decoded.ok()) std::exit(1);
  for (size_t col = 0; col < schema.num_columns(); ++col) {
    if (schema.column(col).type != ColumnType::kDouble) continue;
    for (size_t row = 0; row < block.size(); ++row) {
      const double sent = std::get<double>(block[row].value(col));
      const double got = decoded.value().rows.DoubleAt(row, col);
      uint64_t sent_bits, got_bits;
      std::memcpy(&sent_bits, &sent, sizeof(sent_bits));
      std::memcpy(&got_bits, &got, sizeof(got_bits));
      if (sent_bits != got_bits) {
        std::fprintf(stderr,
                     "FAIL: %s double row %zu col %zu not bit-exact\n",
                     std::string(codec.name()).c_str(), row, col);
        std::exit(1);
      }
    }
  }
}

/// One timed round-trip; validates the decode so a broken codec can't
/// post a great number.
CodecTiming RoundTrip(const codec::BlockCodec& codec, const Schema& schema,
                      const RowBlock& block,
                      const TupleSerializer& serializer) {
  CodecTiming timing;

  const double encode_start = NowMs();
  Result<std::string> encoded =
      codec.EncodeBlockResponse(/*session_id=*/1, /*end_of_results=*/false,
                                schema, block);
  timing.encode_ms = NowMs() - encode_start;
  if (!encoded.ok()) {
    std::fprintf(stderr, "%s encode failed: %s\n",
                 std::string(codec.name()).c_str(),
                 encoded.status().ToString().c_str());
    std::exit(1);
  }
  timing.wire_bytes = encoded.value().size();

  const double decode_start = NowMs();
  Result<codec::DecodedBlock> decoded =
      codec.DecodeBlockResponse(std::move(encoded).value());
  timing.decode_ms = NowMs() - decode_start;
  if (!decoded.ok() ||
      decoded.value().num_tuples != static_cast<int64_t>(block.size())) {
    std::fprintf(stderr, "%s decode failed\n",
                 std::string(codec.name()).c_str());
    std::exit(1);
  }

  const double scan_start = NowMs();
  Result<uint64_t> checksum = ScanAll(decoded.value().rows, serializer);
  timing.scan_ms = NowMs() - scan_start;
  if (!checksum.ok()) {
    std::fprintf(stderr, "%s scan failed: %s\n",
                 std::string(codec.name()).c_str(),
                 checksum.status().ToString().c_str());
    std::exit(1);
  }
  timing.checksum = checksum.value();
  return timing;
}

void Run(const CodecBenchFlags& flags) {
  PrintHeader(
      "codec round-trip",
      "encode+decode+scan one " + std::to_string(flags.rows) +
          "-row Customer block per codec, " + std::to_string(flags.reps) +
          " reps",
      "binary beats the SOAP/XML round-trip several times over; "
      "binary+lz trades encode time for fewer wire bytes");

  TpchGenOptions gen;
  gen.scale = 1.0;  // 150000 rows available; we slice what we need
  auto customer = GenerateCustomer(gen);
  if (!customer.ok()) std::exit(1);
  const Table& table = *customer.value();
  const size_t rows =
      std::min<size_t>(static_cast<size_t>(flags.rows), table.num_rows());
  const std::vector<Tuple> block(table.rows().begin(),
                                 table.rows().begin() + rows);
  // The view the timed reps encode from, built once: its row pointers
  // are set-up, not codec work.
  const RowBlock view(block);
  const Schema& schema = table.schema();
  const TupleSerializer serializer(schema);

  const codec::CodecChoice choices[] = {
      {codec::CodecKind::kSoap, false},
      {codec::CodecKind::kBinary, false},
      {codec::CodecKind::kBinary, true},
  };

  TextTable table_out({"codec", "encode ms", "decode ms", "scan ms",
                       "total ms", "wire KiB", "vs soap"});
  CsvWriter csv({"codec", "encode_ms", "decode_ms", "scan_ms", "total_ms",
                 "wire_bytes", "speedup_vs_soap"});
  double soap_total = 0.0;
  double binary_speedup = 0.0;
  uint64_t reference_checksum = 0;
  for (const codec::CodecChoice& choice : choices) {
    std::unique_ptr<codec::BlockCodec> codec = codec::MakeBlockCodec(choice);
    // Warm-up rep (pages in the slice and lazy allocations), then the
    // untimed correctness gates: cross-codec agreement at SOAP's
    // 2-decimal precision, and bit-exact doubles for binary.
    RoundTrip(*codec, schema, view, serializer);
    const uint64_t checksum = ValidateCodec(*codec, schema, block, serializer);
    if (choice.kind == codec::CodecKind::kSoap) {
      reference_checksum = checksum;
    } else if (checksum != reference_checksum) {
      std::fprintf(stderr,
                   "FAIL: %s checksum mismatch vs soap — codecs disagree on "
                   "the block's values\n",
                   choice.ToString().c_str());
      std::exit(1);
    }
    if (choice.kind == codec::CodecKind::kBinary) {
      CheckBitExactDoubles(*codec, schema, block);
    }

    RunningStats encode, decode, scan;
    size_t wire_bytes = 0;
    const bool is_plain_binary =
        choice.kind == codec::CodecKind::kBinary && !choice.compress_blocks;
    for (int rep = 0; rep < flags.reps; ++rep) {
      const CodecTiming timing = RoundTrip(*codec, schema, view, serializer);
      encode.Add(timing.encode_ms);
      decode.Add(timing.decode_ms);
      scan.Add(timing.scan_ms);
      wire_bytes = timing.wire_bytes;
      if (is_plain_binary) {
        if (exec::RunTimings* timings = exec::GlobalRunTimings()) {
          timings->RecordRunMs(timing.encode_ms + timing.decode_ms +
                               timing.scan_ms);
        }
      }
    }

    const double total = encode.mean() + decode.mean() + scan.mean();
    if (choice.kind == codec::CodecKind::kSoap) soap_total = total;
    const double speedup = soap_total / total;
    if (is_plain_binary) binary_speedup = speedup;
    table_out.AddRow({choice.ToString(), FormatDouble(encode.mean(), 3),
                      FormatDouble(decode.mean(), 3),
                      FormatDouble(scan.mean(), 3), FormatDouble(total, 3),
                      FormatDouble(static_cast<double>(wire_bytes) / 1024.0, 1),
                      FormatDouble(speedup, 1) + "x"});
    csv.AddRow({choice.ToString(), FormatDouble(encode.mean(), 4),
                FormatDouble(decode.mean(), 4), FormatDouble(scan.mean(), 4),
                FormatDouble(total, 4), std::to_string(wire_bytes),
                FormatDouble(speedup, 2)});
  }
  std::printf("%s\n", table_out.ToString().c_str());
  MaybeDumpCsv(csv, "codec_roundtrip");

  // The gate: the binary round trip against a yardstick no codec change
  // touches, a copy of the same wire bytes into a fresh buffer. The two
  // alternate within each rep, so a slow stretch of a shared machine
  // slows both. Each attempt takes best rep over best rep across three
  // times the table's reps. A failing attempt is retried up to twice,
  // so one noisy stretch does not fail the gate; a real slowdown fails
  // every attempt.
  std::unique_ptr<codec::BlockCodec> binary =
      codec::MakeBlockCodec({codec::CodecKind::kBinary, false});
  const std::string wire =
      binary->EncodeBlockResponse(1, false, schema, view).value();
  double gate_copies = std::numeric_limits<double>::infinity();
  int attempts = 0;
  while (attempts < 3 && !(gate_copies <= kGateCeiling)) {
    ++attempts;
    double best_copy_ms = std::numeric_limits<double>::infinity();
    double best_binary_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3 * flags.reps; ++rep) {
      const double copy_start = NowMs();
      const std::string copy(wire);
      best_copy_ms = std::min(best_copy_ms, NowMs() - copy_start);
      copy_sink = copy[rep % copy.size()];
      const CodecTiming timing =
          RoundTrip(*binary, schema, view, serializer);
      best_binary_ms =
          std::min(best_binary_ms,
                   timing.encode_ms + timing.decode_ms + timing.scan_ms);
    }
    gate_copies = std::min(gate_copies, best_binary_ms / best_copy_ms);
  }

  // The lines CI asserts on. Keep the format stable.
  std::printf("codec-speedup: binary vs soap = %.1fx (encode+decode+scan)\n",
              binary_speedup);
  std::printf(
      "codec-gate: binary round trip = %.2f wire copies (ceiling %.2f, %s "
      "build, %d attempt%s)\n",
      gate_copies, kGateCeiling, kAsanBuild ? "asan" : "plain", attempts,
      attempts == 1 ? "" : "s");
  if (!(gate_copies <= kGateCeiling)) {
    std::fprintf(stderr,
                 "FAIL: the binary round trip costs %.2f copies of its wire "
                 "bytes (ceiling %.2f)\n",
                 gate_copies, kGateCeiling);
    std::exit(1);
  }
}

}  // namespace
}  // namespace wsq::bench

int main(int argc, char** argv) {
  wsq::bench::BenchSession session(argc, argv);
  wsq::bench::CodecBenchFlags flags;
  wsq::bench::ParseCodecFlags(argc, argv, &flags);
  wsq::bench::Run(flags);
  return 0;
}
