#include "wsq/client/block_shipper.h"

#include <set>

#include <gtest/gtest.h>

#include "wsq/client/ws_client.h"
#include "wsq/control/factories.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/netsim/presets.h"
#include "wsq/server/container.h"
#include "wsq/server/processing_service.h"

namespace wsq {
namespace {

Schema InSchema() {
  return Schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kDouble}});
}

Schema OutSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"doubled", ColumnType::kDouble}});
}

ProcessingFunction DoubleFunction() {
  ProcessingFunction function;
  function.input_schema = InSchema();
  function.output_schema = OutSchema();
  function.transform = [](const Tuple& input) -> Result<Tuple> {
    return Tuple(
        {input.value(0), Value(std::get<double>(input.value(1)) * 2.0)});
  };
  return function;
}

Table MakeInput(int rows) {
  Table table("input", InSchema());
  for (int i = 0; i < rows; ++i) {
    table.AppendUnchecked(
        Tuple({Value(static_cast<int64_t>(i)), Value(i * 0.5)}));
  }
  return table;
}

/// The full push-direction stack on a chosen link.
class ShipperStack {
 public:
  explicit ShipperStack(const LinkConfig& link, uint64_t seed = 3)
      : container_(&service_, QuietLoad(), seed),
        client_(&container_, link, &clock_, seed + 1) {
    EXPECT_TRUE(service_.RegisterFunction("double", DoubleFunction()).ok());
  }

  static LoadModelConfig QuietLoad() {
    LoadModelConfig load;
    load.noise_sigma = 0.0;
    return load;
  }

  WsClient& client() { return client_; }

 private:
  ProcessingService service_;
  SimClock clock_;
  ServiceContainer container_;
  WsClient client_;
};

LinkConfig CleanLan() {
  LinkConfig link = Lan1Gbps();
  link.jitter_sigma = 0.0;
  return link;
}

TEST(BlockShipperTest, ShipsEverythingInOrder) {
  ShipperStack stack(CleanLan());
  FixedController controller(16);
  BlockShipper shipper(&stack.client(), &controller);

  Table input = MakeInput(103);
  std::vector<Tuple> results;
  Result<FetchOutcome> outcome =
      shipper.Run(input, "double", InSchema(), OutSchema(), &results);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().total_tuples, 103);
  EXPECT_EQ(outcome.value().total_blocks, 7);  // 6x16 + 7
  ASSERT_EQ(results.size(), 103u);
  for (int i = 0; i < 103; ++i) {
    EXPECT_EQ(std::get<int64_t>(results[i].value(0)), i);
    EXPECT_DOUBLE_EQ(std::get<double>(results[i].value(1)), i * 1.0);
  }
}

TEST(BlockShipperTest, SchemaMismatchRejectedLocally) {
  ShipperStack stack(CleanLan());
  FixedController controller(16);
  BlockShipper shipper(&stack.client(), &controller);
  Table wrong("wrong", OutSchema());
  EXPECT_EQ(shipper.Run(wrong, "double", InSchema(), OutSchema())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stack.client().calls_made(), 0);  // never went remote
}

TEST(BlockShipperTest, UnknownFunctionSurfacesFault) {
  ShipperStack stack(CleanLan());
  FixedController controller(16);
  BlockShipper shipper(&stack.client(), &controller);
  Table input = MakeInput(5);
  EXPECT_EQ(shipper.Run(input, "ghost", InSchema(), OutSchema())
                .status()
                .code(),
            StatusCode::kRemoteFault);
}

TEST(BlockShipperTest, AdaptiveControllerDrivesBlockSizes) {
  ShipperStack stack(WanUkToSwitzerland());
  auto controller = ControllerFactory::FromName("constant");
  ASSERT_TRUE(controller.ok());
  BlockShipper shipper(&stack.client(), controller.value().get());

  Table input = MakeInput(30000);
  Result<FetchOutcome> outcome =
      shipper.Run(input, "double", InSchema(), OutSchema());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().total_tuples, 30000);
  std::set<int64_t> sizes;
  for (const BlockTrace& trace : outcome.value().trace) {
    sizes.insert(trace.requested_size);
  }
  EXPECT_GT(sizes.size(), 2u);  // the controller actually adapted
}

TEST(BlockShipperTest, RetriesThroughLossyLink) {
  LinkConfig lossy = CleanLan();
  lossy.drop_probability = 0.2;
  lossy.timeout_ms = 200.0;
  ShipperStack stack(lossy, /*seed=*/17);
  FixedController controller(8);
  BlockShipper shipper(&stack.client(), &controller,
                       /*max_retries_per_call=*/4);
  Table input = MakeInput(200);
  std::vector<Tuple> results;
  Result<FetchOutcome> outcome =
      shipper.Run(input, "double", InSchema(), OutSchema(), &results);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(results.size(), 200u);
  EXPECT_GT(outcome.value().retries, 0);
}

TEST(BlockShipperTest, EmptyTableIsANoop) {
  ShipperStack stack(CleanLan());
  FixedController controller(8);
  BlockShipper shipper(&stack.client(), &controller);
  Table input = MakeInput(0);
  Result<FetchOutcome> outcome =
      shipper.Run(input, "double", InSchema(), OutSchema());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().total_blocks, 0);
  EXPECT_EQ(stack.client().calls_made(), 0);
}

}  // namespace
}  // namespace wsq
