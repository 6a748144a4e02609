// Microbenchmarks for the web-service plumbing: SOAP envelope encode /
// parse and tuple-block serialization — the per-request overheads the
// block-size controller amortizes by choosing bigger blocks.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace wsq::bench {
namespace {

std::vector<Tuple> SampleBlock(size_t tuples) {
  TpchGenOptions gen;
  gen.scale = 0.01;
  auto table = GenerateCustomer(gen).value();
  std::vector<Tuple> block;
  for (size_t i = 0; i < tuples; ++i) {
    block.push_back(table->row(i % table->num_rows()));
  }
  return block;
}

void BM_EncodeRequestBlock(benchmark::State& state) {
  RequestBlockRequest request;
  request.session_id = 42;
  request.block_size = 5000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeRequestBlock(request));
  }
}
BENCHMARK(BM_EncodeRequestBlock);

void BM_ParseEnvelopeSmall(benchmark::State& state) {
  RequestBlockRequest request;
  request.session_id = 42;
  request.block_size = 5000;
  const std::string doc = EncodeRequestBlock(request);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseEnvelope(doc));
  }
}
BENCHMARK(BM_ParseEnvelopeSmall);

void BM_SerializeBlock(benchmark::State& state) {
  const auto block = SampleBlock(static_cast<size_t>(state.range(0)));
  TupleSerializer serializer(CustomerSchema());
  for (auto _ : state) {
    benchmark::DoNotOptimize(serializer.SerializeBlock(block));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SerializeBlock)->Arg(100)->Arg(1000)->Arg(10000);

// What wsqd runs per block: a RowBlock view straight to a document.
void BM_SoapEncodeBlockResponse(benchmark::State& state) {
  const auto block = SampleBlock(static_cast<size_t>(state.range(0)));
  const RowBlock view(block);
  const Schema schema = CustomerSchema();
  const codec::SoapCodec soap;
  for (auto _ : state) {
    benchmark::DoNotOptimize(soap.EncodeBlockResponse(1, false, schema, view));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SoapEncodeBlockResponse)->Arg(100)->Arg(1000)->Arg(10000);

// The live-bulk block: 2000 rows of a scale-0.1 customer table, read in
// place through a view of the table's own rows, as wsqd encodes them.
void BM_SoapEncodeCustomerBlock(benchmark::State& state) {
  TpchGenOptions gen;
  gen.scale = 0.1;
  const auto table = GenerateCustomer(gen).value();
  constexpr size_t kRows = 2000;
  std::vector<const Tuple*> rows;
  for (size_t i = 0; i < kRows; ++i) rows.push_back(&table->row(i));
  const RowBlock view(std::move(rows), nullptr);
  const Schema schema = CustomerSchema();
  const codec::SoapCodec soap;
  for (auto _ : state) {
    benchmark::DoNotOptimize(soap.EncodeBlockResponse(1, false, schema, view));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_SoapEncodeCustomerBlock)->Unit(benchmark::kMicrosecond);

void BM_BlockResponseRoundTrip(benchmark::State& state) {
  const auto block = SampleBlock(static_cast<size_t>(state.range(0)));
  const RowBlock view(block);
  const Schema schema = CustomerSchema();
  const codec::SoapCodec soap;
  for (auto _ : state) {
    Result<std::string> doc = soap.EncodeBlockResponse(1, false, schema, view);
    benchmark::DoNotOptimize(soap.DecodeBlockResponse(std::move(doc).value()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlockResponseRoundTrip)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DeserializeBlock(benchmark::State& state) {
  const auto block = SampleBlock(static_cast<size_t>(state.range(0)));
  TupleSerializer serializer(CustomerSchema());
  const std::string payload = serializer.SerializeBlock(block).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(serializer.DeserializeBlock(payload));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeserializeBlock)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace wsq::bench
