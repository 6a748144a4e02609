#include "wsq/obs/trace.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "support/json_check.h"

namespace wsq {
namespace {

TEST(TracerTest, CollectsEventsInOrder) {
  Tracer tracer;
  tracer.AddComplete("block", "pull", 100, 50, TraceLane::kPullLoop,
                     "{\"requested\":700}");
  tracer.AddInstant("retry", "pull", 120, TraceLane::kPullLoop);
  tracer.AddCounterSample("queue_len", 130, TraceLane::kServer, 3.0);
  ASSERT_EQ(tracer.size(), 3u);
  const std::vector<TraceEvent> events = tracer.events();
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].dur_micros, 50);
  EXPECT_EQ(events[1].phase, 'i');
  EXPECT_EQ(events[2].phase, 'C');
}

TEST(TracerTest, ChromeJsonPassesSchemaCheck) {
  Tracer tracer;
  tracer.SetLaneName(TraceLane::kPullLoop, "pull loop");
  tracer.AddComplete("block \"quoted\"", "pull", 0, 10, TraceLane::kPullLoop);
  tracer.AddInstant("decision", "controller", 5, TraceLane::kController,
                    "{\"gain\":2000}");
  tracer.AddCounterSample("load", 7, TraceLane::kServer, 1.5);
  const std::string json = tracer.ToChromeJson();
  Status valid = CheckChromeTrace(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(TracerTest, EmptyTracerStillValidChromeJson) {
  Tracer tracer;
  EXPECT_TRUE(CheckChromeTrace(tracer.ToChromeJson()).ok());
}

TEST(TracerTest, JsonlHasOneValidObjectPerLine) {
  Tracer tracer;
  tracer.AddComplete("a", "c", 0, 1, 1);
  tracer.AddInstant("b", "c", 2, 1);
  const std::string jsonl = tracer.ToJsonl();
  std::istringstream lines(jsonl);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(CheckJson(line).ok()) << line;
    ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST(TracerTest, WriteFilesRoundTrip) {
  Tracer tracer;
  tracer.AddComplete("a", "c", 0, 1, 1);
  const std::string base = ::testing::TempDir() + "/wsq_trace_test";

  ASSERT_TRUE(tracer.WriteChromeJson(base + ".json").ok());
  std::stringstream chrome;
  chrome << std::ifstream(base + ".json").rdbuf();
  EXPECT_TRUE(CheckChromeTrace(chrome.str()).ok());

  ASSERT_TRUE(tracer.WriteJsonl(base + ".jsonl").ok());
  std::stringstream jsonl;
  jsonl << std::ifstream(base + ".jsonl").rdbuf();
  EXPECT_NE(jsonl.str().find("\"ph\""), std::string::npos);

  std::remove((base + ".json").c_str());
  std::remove((base + ".jsonl").c_str());
}

}  // namespace
}  // namespace wsq
