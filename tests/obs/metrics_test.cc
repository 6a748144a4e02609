#include "wsq/obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "support/json_check.h"

namespace wsq {
namespace {

TEST(CounterTest, Increments) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge;
  gauge.Set(3.5);
  gauge.Set(-1.25);
  EXPECT_EQ(gauge.value(), -1.25);
}

TEST(HistogramTest, CountsBucketsAndMoments) {
  Histogram histogram({1.0, 10.0, 100.0});
  histogram.Record(0.5);    // bucket 0
  histogram.Record(5.0);    // bucket 1
  histogram.Record(50.0);   // bucket 2
  histogram.Record(500.0);  // overflow
  EXPECT_EQ(histogram.count(), 4);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 500.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), (0.5 + 5.0 + 50.0 + 500.0) / 4.0);
  // One sample per bucket: each quartile ends in its own bucket.
  EXPECT_LE(histogram.Percentile(0.25), 1.0);
  EXPECT_GT(histogram.Percentile(0.5), 1.0);
  EXPECT_LE(histogram.Percentile(0.5), 10.0);
  EXPECT_GT(histogram.Percentile(0.75), 10.0);
  EXPECT_LE(histogram.Percentile(0.75), 100.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0), 500.0);
}

TEST(HistogramTest, BoundValueCountsInTheBucketItCloses) {
  // Buckets are (lo, hi]: a sample equal to a bound belongs below it.
  Histogram histogram({1.0, 10.0, 100.0});
  histogram.Record(1.0);
  histogram.Record(10.0);
  histogram.Record(100.0);
  histogram.Record(1000.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.75), 100.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0), 1000.0);
}

TEST(HistogramTest, PercentilesInterpolateWithinBuckets) {
  Histogram histogram({10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) {
    histogram.Record(5.0);  // all samples in the first bucket
  }
  const double p50 = histogram.p50();
  // The owning bucket is (0, 10]; interpolation stays inside it, and the
  // estimate is clipped to the observed range, so it must return the
  // single observed value's neighborhood.
  EXPECT_GE(p50, histogram.min());
  EXPECT_LE(p50, histogram.max());
}

TEST(HistogramTest, PercentileOrderingOnSpread) {
  Histogram histogram(Histogram::LatencyBucketsMs());
  for (int i = 1; i <= 1000; ++i) {
    histogram.Record(static_cast<double>(i));  // 1..1000 ms
  }
  const double p50 = histogram.p50();
  const double p90 = histogram.p90();
  const double p99 = histogram.p99();
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Bucket-interpolation error is bounded by the owning bucket's width;
  // the 1-2-5 decade grid keeps that within a factor of ~2.5.
  EXPECT_NEAR(p50, 500.0, 300.0);
  EXPECT_NEAR(p99, 990.0, 300.0);
}

TEST(HistogramTest, EmptyHistogramQuantilesAreNaN) {
  Histogram histogram(Histogram::LatencyBucketsMs());
  EXPECT_TRUE(std::isnan(histogram.p50()));
  EXPECT_EQ(histogram.count(), 0);
}

TEST(MetricsRegistryTest, HandlesAreStableAndNamed) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("wsq.test.counter");
  Counter* b = registry.GetCounter("wsq.test.counter");
  EXPECT_EQ(a, b);
  registry.GetGauge("wsq.test.gauge")->Set(7.0);
  registry.GetHistogram("wsq.test.hist")->Record(3.0);
  const std::string json = registry.ToJson();
  for (const char* name :
       {"wsq.test.counter", "wsq.test.gauge", "wsq.test.hist"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

TEST(MetricsRegistryTest, HistogramBoundsFixedOnFirstUse) {
  MetricsRegistry registry;
  Histogram* first = registry.GetHistogram("h", {1.0, 2.0});
  Histogram* second = registry.GetHistogram("h", {99.0});
  EXPECT_EQ(first, second);
  EXPECT_EQ(first->bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistryTest, ExportersProduceParseableSnapshots) {
  MetricsRegistry registry;
  registry.GetCounter("wsq.a.count")->Increment(5);
  registry.GetGauge("wsq.b.gauge")->Set(2.5);
  Histogram* histogram = registry.GetHistogram("wsq.c.hist");
  histogram->Record(12.0);
  histogram->Record(120.0);

  const std::string text = registry.ToText();
  EXPECT_NE(text.find("wsq.a.count"), std::string::npos);
  EXPECT_NE(text.find("wsq.b.gauge"), std::string::npos);

  const std::string csv = registry.ToCsv();
  EXPECT_NE(csv.find("wsq.c.hist"), std::string::npos);
  EXPECT_NE(csv.find("p99"), std::string::npos);

  const std::string json = registry.ToJson();
  Status valid = CheckJson(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, JsonStaysParseableWithEmptyHistogram) {
  MetricsRegistry registry;
  registry.GetHistogram("empty.hist");  // NaN quantiles must become null
  Status valid = CheckJson(registry.ToJson());
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(MetricsRegistryTest, LabeledNamesFollowTheConvention) {
  EXPECT_EQ(LabeledName("wsq.server.bytes_out", "session", "7"),
            "wsq.server.bytes_out{session=7}");
  EXPECT_EQ(LabeledName("b", "k", ""), "b{k=}");
}

TEST(MetricsRegistryTest, LabeledNameEscapesHostileLabelValues) {
  // Label values carrying the structural characters of the convention
  // ({, }, =, ,) are percent-escaped, so the mapping (base, k, v) ->
  // name stays injective: no two distinct labels can render to the
  // same string.
  EXPECT_EQ(LabeledName("b", "k", "a,b"), "b{k=a%2Cb}");
  EXPECT_EQ(LabeledName("b", "k", "a=b"), "b{k=a%3Db}");
  EXPECT_EQ(LabeledName("b", "k", "a{b}"), "b{k=a%7Bb%7D}");
  EXPECT_EQ(LabeledName("b", "k", "100%"), "b{k=100%25}");
  // The escape character itself round-trips unambiguously.
  EXPECT_NE(LabeledName("b", "k", "%2C"), LabeledName("b", "k", ","));
  // A hostile value cannot forge another family's labeled name.
  EXPECT_NE(LabeledName("b", "tenant", "1,evil=x"),
            LabeledName(LabeledName("b", "tenant", "1"), "evil", "x"));
}

TEST(MetricsRegistryTest, MultiLabelNamesJoinInOrder) {
  EXPECT_EQ(LabeledName("b", {{"tenant", "3"}, {"phase", "live"}}),
            "b{tenant=3,phase=live}");
  EXPECT_EQ(LabeledName("b", {}), "b");
  // Single-label overload agrees with the list form.
  EXPECT_EQ(LabeledName("b", "k", "v"), LabeledName("b", {{"k", "v"}}));
}

TEST(MetricsRegistryTest, EscapedLabelValuesKeepSeriesDistinct) {
  // Escaped hostile values keep families disjoint: a value ending in
  // ',' or containing '=' or '}' names its own counter, never another
  // tenant's.
  MetricsRegistry registry;
  registry.GetCounter(LabeledName("wsq.h.c", "tenant", "t"))->Increment(1);
  registry.GetCounter(LabeledName("wsq.h.c", "tenant", "t,x=1"))
      ->Increment(20);
  registry.GetCounter(LabeledName("wsq.h.c", "tenant", "t}"))->Increment(300);

  EXPECT_EQ(registry.GetCounter(LabeledName("wsq.h.c", "tenant", "t"))->value(),
            1);
  EXPECT_EQ(
      registry.GetCounter(LabeledName("wsq.h.c", "tenant", "t,x=1"))->value(),
      20);
  EXPECT_EQ(
      registry.GetCounter(LabeledName("wsq.h.c", "tenant", "t}"))->value(),
      300);
}

TEST(MetricsRegistryTest, JsonNeverEmitsNonFiniteLiterals) {
  // The exporter audit: NaN and +/-Inf gauges and an empty histogram's
  // NaN quantiles must all surface as null — RFC 8259 has no nan/inf
  // literals, and one leaked token poisons the whole document for every
  // standard parser.
  MetricsRegistry registry;
  registry.GetGauge("g.not_a_number")->Set(std::nan(""));
  registry.GetGauge("g.pos")->Set(std::numeric_limits<double>::infinity());
  registry.GetGauge("g.neg")->Set(-std::numeric_limits<double>::infinity());
  registry.GetHistogram("h.empty");
  Histogram* overflow = registry.GetHistogram("h.overflow");
  overflow->Record(std::numeric_limits<double>::infinity());

  const std::string json = registry.ToJson();
  Status valid = CheckJson(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_NE(json.find("null"), std::string::npos);
}

TEST(MetricsRegistryTest, WriteFilePicksFormatByExtension) {
  MetricsRegistry registry;
  registry.GetCounter("x.count")->Increment();
  const std::string base = ::testing::TempDir() + "/wsq_metrics_test";

  ASSERT_TRUE(registry.WriteFile(base + ".json").ok());
  std::stringstream json;
  json << std::ifstream(base + ".json").rdbuf();
  EXPECT_TRUE(CheckJson(json.str()).ok());

  ASSERT_TRUE(registry.WriteFile(base + ".csv").ok());
  std::stringstream csv;
  csv << std::ifstream(base + ".csv").rdbuf();
  EXPECT_NE(csv.str().find("x.count"), std::string::npos);

  std::remove((base + ".json").c_str());
  std::remove((base + ".csv").c_str());
}

TEST(MetricsRegistryTest, WriteFileFallsBackToText) {
  MetricsRegistry registry;
  registry.GetCounter("x.count")->Increment();
  registry.GetGauge("x.level")->Set(2.0);
  const std::string path = ::testing::TempDir() + "/wsq_metrics_test.txt";

  ASSERT_TRUE(registry.WriteFile(path).ok());
  std::stringstream text;
  text << std::ifstream(path).rdbuf();
  EXPECT_EQ(text.str(), registry.ToText());
  EXPECT_NE(text.str().find("x.count counter 1\n"), std::string::npos);
  EXPECT_NE(text.str().find("x.level gauge "), std::string::npos);
  std::remove(path.c_str());

  EXPECT_EQ(registry.WriteFile(::testing::TempDir() + "/wsq_no_such_dir/m.txt")
                .code(),
            StatusCode::kUnavailable);
}

}  // namespace
}  // namespace wsq
