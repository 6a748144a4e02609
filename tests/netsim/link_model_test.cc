#include "wsq/netsim/link_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "wsq/netsim/presets.h"
#include "wsq/stats/running_stats.h"

namespace wsq {
namespace {

LinkConfig NoJitter() {
  LinkConfig config;
  config.round_trip_latency_ms = 10.0;
  config.bandwidth_mbps = 8.0;  // 1 MB/s
  config.jitter_sigma = 0.0;
  return config;
}

TEST(LinkConfigTest, Validation) {
  EXPECT_TRUE(NoJitter().Validate().ok());

  LinkConfig bad = NoJitter();
  bad.round_trip_latency_ms = -1.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = NoJitter();
  bad.bandwidth_mbps = 0.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = NoJitter();
  bad.jitter_sigma = -0.1;
  EXPECT_FALSE(bad.Validate().ok());

  bad = NoJitter();
  bad.bandwidth_share = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad.bandwidth_share = 1.5;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(LinkModelTest, NominalTimeIsLatencyPlusTransfer) {
  LinkModel link(NoJitter());
  // 1,000,000 bytes at 1 MB/s = 1000 ms, plus 10 ms latency.
  EXPECT_NEAR(link.NominalExchangeTimeMs(500000, 500000), 1010.0, 1e-9);
  // Zero payload costs exactly the latency.
  EXPECT_NEAR(link.NominalExchangeTimeMs(0, 0), 10.0, 1e-9);
}

TEST(LinkModelTest, BandwidthShareDividesThroughput) {
  LinkModel link(NoJitter());
  const double full = link.NominalExchangeTimeMs(0, 1000000);
  link.set_bandwidth_share(0.5);
  const double half = link.NominalExchangeTimeMs(0, 1000000);
  EXPECT_NEAR(half - 10.0, (full - 10.0) * 2.0, 1e-6);
}

TEST(LinkModelTest, JitterFreeCallMatchesNominal) {
  LinkModel link(NoJitter());
  Random rng(1);
  EXPECT_DOUBLE_EQ(link.ExchangeTimeMs(100, 100, rng),
                   link.NominalExchangeTimeMs(100, 100));
}

TEST(LinkModelTest, JitterVariesButCentersOnNominal) {
  LinkConfig config = NoJitter();
  config.jitter_sigma = 0.2;
  LinkModel link(config);
  Random rng(5);
  RunningStats stats;
  const double nominal = link.NominalExchangeTimeMs(1000, 1000);
  for (int i = 0; i < 4000; ++i) {
    stats.Add(link.ExchangeTimeMs(1000, 1000, rng));
  }
  EXPECT_GT(stats.stddev(), 0.0);
  // Lognormal: median equals nominal, mean slightly above.
  EXPECT_NEAR(stats.mean(), nominal * std::exp(0.5 * 0.2 * 0.2),
              nominal * 0.05);
}

TEST(LinkModelTest, MonotoneInBytes) {
  LinkModel link(NoJitter());
  double prev = 0.0;
  for (size_t bytes = 0; bytes <= 1 << 20; bytes += 1 << 16) {
    const double t = link.NominalExchangeTimeMs(bytes, bytes);
    EXPECT_GT(t, prev - 1e-12);
    prev = t;
  }
}

TEST(PresetsTest, PresetsAreValidAndOrdered) {
  EXPECT_TRUE(WanUkToSwitzerland().Validate().ok());
  EXPECT_TRUE(WanUkToGreece().Validate().ok());
  EXPECT_TRUE(Lan1Gbps().Validate().ok());

  // LAN is faster in both dimensions than either WAN path.
  EXPECT_LT(Lan1Gbps().round_trip_latency_ms,
            WanUkToSwitzerland().round_trip_latency_ms);
  EXPECT_GT(Lan1Gbps().bandwidth_mbps, WanUkToGreece().bandwidth_mbps);
  // The Greek path is the longer WAN one (as in the paper's setups).
  EXPECT_GT(WanUkToGreece().round_trip_latency_ms,
            WanUkToSwitzerland().round_trip_latency_ms);
}

}  // namespace
}  // namespace wsq
