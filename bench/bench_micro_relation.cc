// Microbenchmarks for the relational substrate: TPC-H generation, block
// cursor scans and the end-to-end simulated service dispatch.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace wsq::bench {
namespace {

void BM_GenerateCustomer(benchmark::State& state) {
  TpchGenOptions gen;
  gen.scale = 0.01;  // 1500 rows
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateCustomer(gen));
  }
  state.SetItemsProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_GenerateCustomer);

void BM_GenerateOrders(benchmark::State& state) {
  TpchGenOptions gen;
  gen.scale = 0.01;  // 4500 rows
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateOrders(gen));
  }
  state.SetItemsProcessed(state.iterations() * 4500);
}
BENCHMARK(BM_GenerateOrders);

void BM_CursorFetchBlocks(benchmark::State& state) {
  TpchGenOptions gen;
  gen.scale = 0.1;
  auto table = GenerateCustomer(gen).value();
  ScanProjectQuery query;
  query.table_name = "customer";
  const int64_t block_size = state.range(0);
  for (auto _ : state) {
    auto cursor = QueryCursor::Open(table.get(), query).value();
    while (!cursor->exhausted()) {
      // A block is a view: row pointers into the table, no value copies.
      Result<RowBlock> block = cursor->FetchBlock(block_size);
      benchmark::DoNotOptimize(block.value().size());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table->num_rows()));
}
BENCHMARK(BM_CursorFetchBlocks)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ServiceDispatchBlock(benchmark::State& state) {
  TpchGenOptions gen;
  gen.scale = 0.1;
  auto table = GenerateCustomer(gen).value();
  Dbms dbms;
  (void)dbms.RegisterTable(table);
  DataService service(&dbms);
  LoadModelConfig load;
  load.noise_sigma = 0.0;
  ServiceContainer container(&service, load, 1);

  OpenSessionRequest open;
  open.table = "customer";
  auto opened = ParseEnvelope(
      container.Dispatch(EncodeOpenSession(open)).response);
  const int64_t session =
      DecodeOpenSessionResponse(opened.value()).value().session_id;

  RequestBlockRequest request;
  request.session_id = session;
  request.block_size = state.range(0);
  const std::string doc = EncodeRequestBlock(request);
  for (auto _ : state) {
    benchmark::DoNotOptimize(container.Dispatch(doc));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ServiceDispatchBlock)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SimEngineQuery(benchmark::State& state) {
  const ConfiguredProfile conf = Conf1_1();
  SimOptions options = OptionsFor(conf);
  for (auto _ : state) {
    SimEngine engine(options);
    FixedController controller(5000);
    benchmark::DoNotOptimize(engine.RunQuery(&controller, *conf.profile));
  }
}
BENCHMARK(BM_SimEngineQuery);

}  // namespace
}  // namespace wsq::bench
