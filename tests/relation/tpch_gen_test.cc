#include "wsq/relation/tpch_gen.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "wsq/relation/tuple_serializer.h"

namespace wsq {
namespace {

TpchGenOptions SmallScale() {
  TpchGenOptions options;
  options.scale = 0.01;  // 1500 customers, 4500 orders
  options.seed = 3;
  return options;
}

TEST(TpchGenTest, CustomerCardinalityScales) {
  auto table = GenerateCustomer(SmallScale());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->num_rows(), 1500u);
  EXPECT_TRUE(table.value()->schema().Equals(CustomerSchema()));
  EXPECT_EQ(table.value()->name(), "customer");
}

TEST(TpchGenTest, OrdersCardinalityIsTripleCustomer) {
  auto table = GenerateOrders(SmallScale());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->num_rows(), 4500u);
  EXPECT_TRUE(table.value()->schema().Equals(OrdersSchema()));
}

TEST(TpchGenTest, CustomerRowsConformAndHaveUniqueKeys) {
  auto table = GenerateCustomer(SmallScale());
  ASSERT_TRUE(table.ok());
  std::set<int64_t> keys;
  for (size_t i = 0; i < table.value()->num_rows(); ++i) {
    const Tuple& row = table.value()->row(i);
    ASSERT_TRUE(row.ConformsTo(CustomerSchema()).ok());
    keys.insert(std::get<int64_t>(row.value(0)));
  }
  EXPECT_EQ(keys.size(), table.value()->num_rows());
}

TEST(TpchGenTest, OrdersForeignKeysInRange) {
  auto orders = GenerateOrders(SmallScale());
  ASSERT_TRUE(orders.ok());
  for (size_t i = 0; i < orders.value()->num_rows(); i += 97) {
    const Tuple& row = orders.value()->row(i);
    ASSERT_TRUE(row.ConformsTo(OrdersSchema()).ok());
    const int64_t custkey = std::get<int64_t>(row.value(1));
    EXPECT_GE(custkey, 1);
    EXPECT_LE(custkey, 1500);
  }
}

TEST(TpchGenTest, DeterministicForSameSeed) {
  auto a = GenerateCustomer(SmallScale());
  auto b = GenerateCustomer(SmallScale());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value()->num_rows(), b.value()->num_rows());
  for (size_t i = 0; i < a.value()->num_rows(); i += 131) {
    EXPECT_EQ(a.value()->row(i), b.value()->row(i));
  }
}

TEST(TpchGenTest, DifferentSeedsDiffer) {
  TpchGenOptions other = SmallScale();
  other.seed = 99;
  auto a = GenerateCustomer(SmallScale());
  auto b = GenerateCustomer(other);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  int differing = 0;
  for (size_t i = 0; i < a.value()->num_rows(); i += 131) {
    if (!(a.value()->row(i) == b.value()->row(i))) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(TpchGenTest, RealisticTupleWidth) {
  // Customer rows on the wire should be in the ~100-250 byte range so
  // simulated network costs match the real workload's order of
  // magnitude.
  auto table = GenerateCustomer(SmallScale());
  ASSERT_TRUE(table.ok());
  Result<std::string> wire =
      TupleSerializer(CustomerSchema()).SerializeBlock(table.value()->rows());
  ASSERT_TRUE(wire.ok());
  const double avg_bytes = static_cast<double>(wire.value().size()) /
                           static_cast<double>(table.value()->num_rows());
  EXPECT_GT(avg_bytes, 80.0);
  EXPECT_LT(avg_bytes, 300.0);
}

TEST(TpchGenTest, InvalidScaleRejected) {
  TpchGenOptions bad;
  bad.scale = 0.0;
  EXPECT_EQ(GenerateCustomer(bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GenerateOrders(bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TpchGenTest, TinyScaleProducesAtLeastOneRow) {
  TpchGenOptions tiny;
  tiny.scale = 1e-9;
  auto table = GenerateCustomer(tiny);
  ASSERT_TRUE(table.ok());
  EXPECT_GE(table.value()->num_rows(), 1u);
}

}  // namespace
}  // namespace wsq
