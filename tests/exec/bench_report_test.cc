#include "wsq/exec/bench_report.h"

#include <gtest/gtest.h>

#include "support/json_check.h"
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>


namespace wsq::exec {
namespace {

TEST(RunTimingsTest, ExactNearestRankPercentiles) {
  RunTimings timings;
  for (int i = 100; i >= 1; --i) {  // 1..100 ms, recorded unsorted
    timings.RecordRunMs(static_cast<double>(i));
  }
  EXPECT_EQ(timings.runs(), 100u);
  EXPECT_DOUBLE_EQ(timings.MinMs(), 1.0);
  EXPECT_DOUBLE_EQ(timings.MaxMs(), 100.0);
  EXPECT_DOUBLE_EQ(timings.MeanMs(), 50.5);
  EXPECT_DOUBLE_EQ(timings.PercentileMs(0.50), 50.0);
  EXPECT_DOUBLE_EQ(timings.PercentileMs(0.99), 99.0);
  EXPECT_DOUBLE_EQ(timings.PercentileMs(0.0), 1.0);
  EXPECT_DOUBLE_EQ(timings.PercentileMs(1.0), 100.0);

  timings.Reset();
  EXPECT_EQ(timings.runs(), 0u);
  EXPECT_TRUE(std::isnan(timings.PercentileMs(0.5)));
}

TEST(RunTimingsTest, SingleSampleEveryPercentile) {
  RunTimings timings;
  timings.RecordRunMs(42.0);
  EXPECT_DOUBLE_EQ(timings.PercentileMs(0.50), 42.0);
  EXPECT_DOUBLE_EQ(timings.PercentileMs(0.99), 42.0);
  EXPECT_DOUBLE_EQ(timings.MeanMs(), 42.0);
}

TEST(RunTimingsTest, ConcurrentRecordsAllLand) {
  RunTimings timings;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&timings] {
      for (int i = 0; i < kPerThread; ++i) timings.RecordRunMs(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(timings.runs(), size_t{kThreads} * kPerThread);
}

TEST(GlobalRunTimingsTest, NullByDefaultAndInstallable) {
  EXPECT_EQ(GlobalRunTimings(), nullptr);
  RunTimings timings;
  SetGlobalRunTimings(&timings);
  EXPECT_EQ(GlobalRunTimings(), &timings);
  SetGlobalRunTimings(nullptr);
  EXPECT_EQ(GlobalRunTimings(), nullptr);
}

TEST(BenchReportTest, JsonIsValidAndCarriesEveryField) {
  RunTimings timings;
  timings.RecordRunMs(10.0);
  timings.RecordRunMs(20.0);
  BenchReport report;
  report.bench = "bench_fig4_wan_decisions";
  report.jobs = 8;
  report.hardware_concurrency = 8;
  report.wall_time_s = 0.5;

  const std::string json = BenchReportJson(report, timings);
  EXPECT_TRUE(CheckJson(json).ok()) << json;
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"bench_fig4_wan_decisions\""),
            std::string::npos);
  EXPECT_NE(json.find("\"jobs\":8"), std::string::npos);
  EXPECT_NE(json.find("\"hardware_concurrency\":8"), std::string::npos);
  EXPECT_NE(json.find("\"runs\":2"), std::string::npos);
  EXPECT_NE(json.find("\"runs_per_sec\":"), std::string::npos);
  EXPECT_NE(json.find("\"run_ms\":{"), std::string::npos);
  for (const char* field : {"\"mean\":", "\"min\":", "\"max\":", "\"p50\":",
                            "\"p99\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

TEST(BenchReportTest, CompositeJoinsPhaseReports) {
  // Multi-phase benches emit one {"reports":[...]} document whose
  // entries are ordinary flat rows named "<bench>/<phase>" — the shape
  // the regression gate matches to baselines by bench name.
  RunTimings sim;
  sim.RecordRunMs(5.0);
  sim.RecordRunMs(7.0);
  RunTimings live;
  live.RecordRunMs(42.0);

  BenchReport sim_report;
  sim_report.bench = "bench_fleet_tenancy/sim";
  sim_report.jobs = 4;
  sim_report.wall_time_s = 0.1;
  BenchReport live_report;
  live_report.bench = "bench_fleet_tenancy/live";
  live_report.jobs = 1;
  live_report.wall_time_s = 0.2;

  const std::string json = CompositeBenchReportJson(
      {{sim_report, &sim}, {live_report, &live}});
  EXPECT_TRUE(CheckJson(json).ok()) << json;
  EXPECT_NE(json.find("\"schema_version\":1,\"reports\":["),
            std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"bench_fleet_tenancy/sim\""),
            std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"bench_fleet_tenancy/live\""),
            std::string::npos);
  // Both phase rows carry their own run counts.
  EXPECT_NE(json.find("\"runs\":2"), std::string::npos);
  EXPECT_NE(json.find("\"runs\":1"), std::string::npos);
}

TEST(BenchReportTest, CompositeSkipsNullTimingsAndStaysValidWhenEmpty) {
  BenchReport report;
  report.bench = "phase_without_timings";
  const std::string skipped =
      CompositeBenchReportJson({{report, nullptr}});
  EXPECT_TRUE(CheckJson(skipped).ok()) << skipped;
  EXPECT_EQ(skipped.find("phase_without_timings"), std::string::npos);

  const std::string empty = CompositeBenchReportJson({});
  EXPECT_TRUE(CheckJson(empty).ok()) << empty;
  EXPECT_NE(empty.find("\"reports\":[]"), std::string::npos);
}

TEST(BenchReportTest, EmptyTimingsStillValidJson) {
  // No runs recorded (a bench that never hit the harness): percentiles
  // are NaN, which must serialize as null, not as bare NaN (RFC 8259).
  RunTimings timings;
  BenchReport report;
  report.bench = "empty";
  const std::string json = BenchReportJson(report, timings);
  EXPECT_TRUE(CheckJson(json).ok()) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_NE(json.find("null"), std::string::npos);
}

std::string ReadFile(const std::string& path) {
  std::stringstream text;
  text << std::ifstream(path, std::ios::binary).rdbuf();
  return text.str();
}

TEST(BenchReportTest, WriteFileHoldsOneJsonLine) {
  RunTimings timings;
  timings.RecordRunMs(3.0);
  BenchReport report;
  report.bench = "bench_table3_degradation";
  report.jobs = 2;
  const std::string path = ::testing::TempDir() + "/wsq_bench_report.json";

  ASSERT_TRUE(WriteBenchReport(path, report, timings).ok());
  EXPECT_EQ(ReadFile(path), BenchReportJson(report, timings) + "\n");
  std::remove(path.c_str());
}

TEST(BenchReportTest, WriteCompositeFileHoldsOneJsonLine) {
  RunTimings sim;
  sim.RecordRunMs(5.0);
  BenchReport sim_report;
  sim_report.bench = "bench_fleet_tenancy/sim";
  BenchReport skipped;
  skipped.bench = "bench_fleet_tenancy/live";
  const std::vector<std::pair<BenchReport, const RunTimings*>> phases = {
      {sim_report, &sim}, {skipped, nullptr}};
  const std::string path =
      ::testing::TempDir() + "/wsq_composite_bench_report.json";

  ASSERT_TRUE(WriteCompositeBenchReport(path, phases).ok());
  const std::string text = ReadFile(path);
  EXPECT_EQ(text, CompositeBenchReportJson(phases) + "\n");
  EXPECT_TRUE(CheckJson(text.substr(0, text.size() - 1)).ok()) << text;
  std::remove(path.c_str());
}

TEST(BenchReportTest, UnopenablePathIsUnavailable) {
  RunTimings timings;
  BenchReport report;
  const std::string path =
      ::testing::TempDir() + "/wsq_no_such_dir/report.json";
  EXPECT_EQ(WriteBenchReport(path, report, timings).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(WriteCompositeBenchReport(path, {{report, &timings}}).code(),
            StatusCode::kUnavailable);
}

}  // namespace
}  // namespace wsq::exec
