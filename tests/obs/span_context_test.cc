#include "wsq/obs/span_context.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace wsq {
namespace {

TEST(TraceContextTest, EncodeDecodeRoundTrips) {
  TraceContext context;
  context.trace_id = 0x0123456789abcdefull;
  context.span_id = 0xfedcba9876543210ull;
  context.clock_micros = 1722500000123456ull;

  char raw[kTraceContextBytes];
  EncodeTraceContext(context, raw);
  EXPECT_EQ(DecodeTraceContext(raw), context);
}

TEST(TraceContextTest, EncodingIsBigEndian) {
  TraceContext context;
  context.trace_id = 0x0102030405060708ull;
  char raw[kTraceContextBytes];
  EncodeTraceContext(context, raw);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(raw[i]), i + 1);
  }
}

std::vector<RemoteSpan> SampleSpans() {
  std::vector<RemoteSpan> spans;
  RemoteSpan root;
  root.span_id = 11;
  root.parent_span_id = 3;
  root.ts_micros = 1722500000000000;
  root.dur_micros = 1500;
  root.name = "server.request";
  spans.push_back(root);
  RemoteSpan instant;
  instant.span_id = 12;
  instant.parent_span_id = 11;
  instant.ts_micros = 1722500000000400;
  instant.dur_micros = 0;  // instant marker
  instant.name = "server.replay_hit";
  spans.push_back(instant);
  return spans;
}

TEST(RemoteSpanTest, EncodeDecodeRoundTrips) {
  const std::vector<RemoteSpan> spans = SampleSpans();
  Result<std::vector<RemoteSpan>> got =
      DecodeRemoteSpans(EncodeRemoteSpans(spans));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), spans);
}

TEST(RemoteSpanTest, EmptyListRoundTrips) {
  const std::string encoded = EncodeRemoteSpans({});
  ASSERT_EQ(encoded.size(), 2u);
  Result<std::vector<RemoteSpan>> got = DecodeRemoteSpans(encoded);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().empty());
}

TEST(RemoteSpanTest, NegativeTimestampsSurviveTheTrip) {
  // Timestamps are i64 carried in u64 fields; a pre-epoch or relative
  // negative value must come back bit-exact.
  RemoteSpan span;
  span.span_id = 1;
  span.ts_micros = -5;
  span.dur_micros = -1;
  span.name = "odd";
  Result<std::vector<RemoteSpan>> got =
      DecodeRemoteSpans(EncodeRemoteSpans({span}));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value()[0].ts_micros, -5);
  EXPECT_EQ(got.value()[0].dur_micros, -1);
}

TEST(RemoteSpanTest, EncodeDropsSpansPastThePerFrameCap) {
  std::vector<RemoteSpan> spans(kMaxRemoteSpansPerFrame + 10);
  for (size_t i = 0; i < spans.size(); ++i) {
    spans[i].span_id = i + 1;
    spans[i].name.assign(1, 's');
  }
  Result<std::vector<RemoteSpan>> got =
      DecodeRemoteSpans(EncodeRemoteSpans(spans));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().size(), kMaxRemoteSpansPerFrame);
}

TEST(RemoteSpanTest, EncodeTruncatesOversizedNames) {
  RemoteSpan span;
  span.span_id = 1;
  span.name.assign(kMaxRemoteSpanNameBytes + 50, 'n');
  Result<std::vector<RemoteSpan>> got =
      DecodeRemoteSpans(EncodeRemoteSpans({span}));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value()[0].name.size(), kMaxRemoteSpanNameBytes);
}

TEST(RemoteSpanTest, DecodeRejectsTruncationAtEveryCut) {
  const std::string encoded = EncodeRemoteSpans(SampleSpans());
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    Result<std::vector<RemoteSpan>> got =
        DecodeRemoteSpans(std::string_view(encoded).substr(0, cut));
    EXPECT_FALSE(got.ok()) << "cut at " << cut << " decoded spans";
  }
}

TEST(RemoteSpanTest, DecodeRejectsTrailingGarbage) {
  std::string encoded = EncodeRemoteSpans(SampleSpans());
  encoded += 'x';
  Result<std::vector<RemoteSpan>> got = DecodeRemoteSpans(encoded);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(RemoteSpanTest, DecodeRejectsHostileCountBeforeAllocating) {
  std::string hostile;
  hostile.push_back(static_cast<char>(0xff));
  hostile.push_back(static_cast<char>(0xff));  // count = 65535
  Result<std::vector<RemoteSpan>> got = DecodeRemoteSpans(hostile);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(RemoteSpanTest, DecodeRejectsOversizedBlock) {
  std::string huge(kMaxRemoteSpanBytes + 1, '\0');
  Result<std::vector<RemoteSpan>> got = DecodeRemoteSpans(huge);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(RemoteSpanTest, DecodeSurvivesEverySingleBitFlip) {
  // No flip may crash or over-read; each either still parses or fails
  // with kInvalidArgument.
  const std::string encoded = EncodeRemoteSpans(SampleSpans());
  for (size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = encoded;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      Result<std::vector<RemoteSpan>> got = DecodeRemoteSpans(mutated);
      if (!got.ok()) {
        EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST(ClockOffsetTest, StartsAsIdentity) {
  ClockOffsetEstimator estimator;
  EXPECT_FALSE(estimator.has_offset());
  EXPECT_EQ(estimator.ToClientMicros(12345), 12345);
}

TEST(ClockOffsetTest, SymmetricExchangeRecoversTheExactOffset) {
  // Server clock runs 1s ahead; both wire legs take 100us, residence
  // 300us. The midpoint estimate is exact when the legs are symmetric.
  ClockOffsetEstimator estimator;
  const int64_t offset = 1000000;
  const int64_t t1 = 5000;
  const int64_t server_t1 = t1 + 100 + offset;   // arrive after one leg
  const int64_t server_t2 = server_t1 + 300;     // residence
  const int64_t t2 = t1 + 100 + 300 + 100;       // back after the other leg
  estimator.AddSample(t1, t2, server_t2, /*service_micros=*/300);
  ASSERT_TRUE(estimator.has_offset());
  EXPECT_EQ(estimator.offset_micros(), offset);
  EXPECT_EQ(estimator.uncertainty_micros(), 200);  // the two wire legs
  EXPECT_EQ(estimator.ToClientMicros(server_t2), t1 + 100 + 300);
}

TEST(ClockOffsetTest, KeepsTheMinimumUncertaintySample) {
  ClockOffsetEstimator estimator;
  // A slow exchange first (wire time 10000us)...
  estimator.AddSample(0, 10300, 1000000, 300);
  ASSERT_TRUE(estimator.has_offset());
  const int64_t coarse = estimator.offset_micros();
  EXPECT_EQ(estimator.uncertainty_micros(), 10000);
  // ...then a fast one (wire time 200us) — it wins...
  estimator.AddSample(20000, 20500, 1020250, 300);
  EXPECT_EQ(estimator.uncertainty_micros(), 200);
  EXPECT_NE(estimator.offset_micros(), coarse);
  const int64_t fine = estimator.offset_micros();
  // ...and a later slow one must not displace it.
  estimator.AddSample(40000, 55000, 1048000, 1000);
  EXPECT_EQ(estimator.offset_micros(), fine);
  EXPECT_EQ(estimator.uncertainty_micros(), 200);
  EXPECT_EQ(estimator.samples(), 3);
}

TEST(ClockOffsetTest, IgnoresPhysicallyImpossibleSamples) {
  ClockOffsetEstimator estimator;
  estimator.AddSample(100, 100, 500, 0);    // zero RTT
  estimator.AddSample(100, 50, 500, 0);     // negative RTT
  estimator.AddSample(100, 200, 500, -10);  // negative residence
  estimator.AddSample(100, 200, 500, 500);  // residence > RTT
  EXPECT_FALSE(estimator.has_offset());
  EXPECT_EQ(estimator.samples(), 0);
}

}  // namespace
}  // namespace wsq
