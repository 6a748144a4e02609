#include "wsq/obs/state_snapshot.h"

#include <gtest/gtest.h>

#include "support/json_check.h"
#include "support/snapshot.h"

namespace wsq {
namespace {

TEST(StateSnapshotTest, PreservesInsertionOrder) {
  StateSnapshot snapshot;
  snapshot.Add("zeta", 1);
  snapshot.Add("alpha", 2);
  snapshot.Add("mid", 3);
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot.entries()[0].first, "zeta");
  EXPECT_EQ(snapshot.entries()[1].first, "alpha");
  EXPECT_EQ(snapshot.entries()[2].first, "mid");
}

TEST(StateSnapshotTest, NumberRoundTripsDoubles) {
  StateSnapshot snapshot;
  const double value = 0.1 + 0.2;  // not exactly representable in decimal
  snapshot.Add("x", value);
  Result<double> parsed = SnapshotNumber(snapshot, "x");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), value);  // %.17g must round-trip exactly
}

TEST(StateSnapshotTest, TypedAddOverloads) {
  StateSnapshot snapshot;
  snapshot.Add("s", std::string_view("text"));
  snapshot.Add("i", int64_t{-7});
  snapshot.Add("n", 42);
  snapshot.Add("b", true);
  EXPECT_EQ(*SnapshotFind(snapshot, "s"), "text");
  EXPECT_EQ(*SnapshotFind(snapshot, "i"), "-7");
  EXPECT_EQ(*SnapshotFind(snapshot, "n"), "42");
  EXPECT_EQ(*SnapshotFind(snapshot, "b"), "true");
  EXPECT_EQ(SnapshotFind(snapshot, "missing"), nullptr);
}

TEST(StateSnapshotTest, CharPointerValuesStoreText) {
  // Regression: a const char* must hit the string overload, not decay
  // pointer-to-bool and store "true".
  StateSnapshot snapshot;
  const bool flag = false;
  snapshot.Add("stage", flag ? "continuation" : "identification");
  EXPECT_EQ(*SnapshotFind(snapshot, "stage"), "identification");
}

TEST(StateSnapshotTest, NumberErrors) {
  StateSnapshot snapshot;
  snapshot.Add("text", std::string_view("not a number"));
  EXPECT_EQ(SnapshotNumber(snapshot, "absent").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(SnapshotNumber(snapshot, "text").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StateSnapshotTest, AppendSplicesEntries) {
  StateSnapshot inner;
  inner.Add("gain", 2000.0);
  StateSnapshot outer;
  outer.Add("phase", std::string_view("transient"));
  outer.Append(inner);
  ASSERT_EQ(outer.size(), 2u);
  EXPECT_EQ(outer.entries()[1].first, "gain");
}

TEST(StateSnapshotTest, ToJsonObjectIsValidJson) {
  StateSnapshot snapshot;
  snapshot.Add("name", std::string_view("he said \"hi\"\n"));
  snapshot.Add("v", 1.5);
  const std::string json = snapshot.ToJsonObject();
  EXPECT_TRUE(CheckJson(json).ok()) << json;
  EXPECT_NE(json.find("\\\"hi\\\""), std::string::npos);
}

TEST(StateSnapshotTest, EmptySnapshotIsEmptyJsonObject) {
  StateSnapshot snapshot;
  EXPECT_TRUE(snapshot.empty());
  EXPECT_TRUE(CheckJson(snapshot.ToJsonObject()).ok());
}

}  // namespace
}  // namespace wsq
