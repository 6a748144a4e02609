// Microbenchmarks for the shared-server simulation's hot path: the
// random draws every simulator and controller makes, one
// processor-sharing event, and whole scenarios on both server models in
// the shape of perfbench's sim-shared-server workload (12 clients of
// 150 000 tuples, a hybrid/mimd/adaptive mix, 1500 ms stagger, network
// jitter sigma 0.1). Pin a core (taskset -c N) for A/B comparisons.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace wsq::bench {
namespace {

constexpr int kClients = 12;
constexpr int64_t kTuples = 150000;
constexpr double kStaggerMs = 1500.0;
constexpr double kArrivalJitterMs = 400.0;
constexpr double kJitterSigma = 0.1;
constexpr uint64_t kSeed = 1;
const char* const kMix[] = {"hybrid", "mimd", "adaptive"};

/// One raw 64-bit engine output.
void BM_RandomEngineDraw(benchmark::State& state) {
  Mt19937_64 engine(kSeed);
  for (auto _ : state) benchmark::DoNotOptimize(engine());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomEngineDraw);

/// A fresh stream and its first draw, as each controller, simulated
/// client and fleet tenant pays once.
void BM_RandomSeedAndFirstDraw(benchmark::State& state) {
  uint64_t seed = kSeed;
  for (auto _ : state) {
    Random rng(seed++);
    benchmark::DoNotOptimize(rng.Uniform(0.0, 1.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomSeedAndFirstDraw);

/// One draw of a Random method on a long-lived stream; `draw` makes it.
template <typename Draw>
void RandomMethod(benchmark::State& state, Draw draw) {
  Random rng(kSeed);
  for (auto _ : state) benchmark::DoNotOptimize(draw(rng));
  state.SetItemsProcessed(state.iterations());
}

void BM_RandomGaussian(benchmark::State& state) {
  RandomMethod(state, [](Random& rng) { return rng.Gaussian(0.0, 1.0); });
}
BENCHMARK(BM_RandomGaussian);

void BM_RandomUniform(benchmark::State& state) {
  RandomMethod(state, [](Random& rng) { return rng.Uniform(3.0, 9.0); });
}
BENCHMARK(BM_RandomUniform);

void BM_RandomUniformInt(benchmark::State& state) {
  RandomMethod(state, [](Random& rng) { return rng.UniformInt(0, 999); });
}
BENCHMARK(BM_RandomUniformInt);

void BM_RandomLognormal(benchmark::State& state) {
  RandomMethod(state, [](Random& rng) {
    return rng.LognormalMultiplier(kJitterSigma);
  });
}
BENCHMARK(BM_RandomLognormal);

void BM_RandomBernoulli(benchmark::State& state) {
  RandomMethod(state, [](Random& rng) { return rng.Bernoulli(0.3); });
}
BENCHMARK(BM_RandomBernoulli);

/// One PsServer event with 12 jobs in service: harvest the next
/// completion, then admit a replacement at the same instant.
void BM_PsServerChurn(benchmark::State& state) {
  constexpr int kJobs = 12;
  // Demands drawn uniformly from [3, 9) ms interleave completions and
  // never tie; a tie would leave a completion pending at the Submit
  // instant. (Regular sequences such as k * golden ratio do tie.)
  Random rng(kSeed);
  PsServer server;
  for (int i = 0; i < kJobs; ++i) {
    if (!server.Submit(0.0, rng.Uniform(3.0, 9.0)).ok()) {
      state.SkipWithError("submit failed");
      return;
    }
  }
  for (auto _ : state) {
    const double t = *server.NextCompletionTime();
    Result<std::optional<int64_t>> done = server.AdvanceTo(t);
    Status admitted = done.status();
    // Far along the timeline, rounding can leave the job a hair short
    // of done; the next event then harvests it.
    if (admitted.ok() && done.value().has_value()) {
      admitted = server.Submit(t, rng.Uniform(3.0, 9.0)).status();
    }
    if (!admitted.ok()) {
      state.SkipWithError(admitted.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(done.value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PsServerChurn);

/// One whole processor-sharing scenario through EventSimBackend: a
/// tracked hybrid client plus 11 staggered background clients.
void BM_EventSimScenario(benchmark::State& state) {
  EventSimConfig config;
  config.seed = kSeed;
  config.jitter_sigma = kJitterSigma;
  std::vector<BackgroundClientSpec> background;
  for (int i = 1; i < kClients; ++i) {
    BackgroundClientSpec spec;
    spec.make_controller = NamedFactory(kMix[i % 3]);
    spec.dataset_tuples = kTuples;
    spec.start_time_ms = kStaggerMs * i;
    background.push_back(spec);
  }
  EventSimBackend backend(config, kTuples, 0.0, std::move(background));
  const ControllerFactoryFn tracked = NamedFactory(kMix[0]);
  for (auto _ : state) {
    std::unique_ptr<Controller> controller = tracked();
    Result<RunTrace> run = backend.RunQuery(controller.get(), RunSpec{});
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(run.value().total_time_ms);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventSimScenario)->Unit(benchmark::kMillisecond);

/// One whole admission-snapshot scenario through RunFleetWorld; items
/// are blocks, so items_per_second reads as blocks per second.
void BM_FleetWorldScenario(benchmark::State& state) {
  fleet::FleetSpec spec;
  for (const char* name : kMix) spec.mix.push_back({name, kClients / 3});
  spec.tuples_per_tenant = kTuples;
  spec.arrival = fleet::ArrivalProcess::kJittered;
  spec.stagger_interval_ms = kStaggerMs;
  spec.arrival_jitter_ms = kArrivalJitterMs;
  Result<std::vector<fleet::TenantSpec>> tenants = spec.BuildTenants(kSeed);
  if (!tenants.ok()) {
    state.SkipWithError(tenants.status().ToString().c_str());
    return;
  }
  fleet::FleetWorldConfig world;
  world.seed = kSeed;
  world.jitter_sigma = kJitterSigma;
  int64_t blocks = 0;
  for (auto _ : state) {
    Result<fleet::FleetTrace> run = fleet::RunFleetWorld(world, tenants.value());
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      return;
    }
    for (const TenantTrace& lane : run.value().tenants) {
      blocks += lane.trace.total_blocks;
    }
    benchmark::DoNotOptimize(run.value().makespan_ms);
  }
  state.SetItemsProcessed(blocks);
}
BENCHMARK(BM_FleetWorldScenario)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wsq::bench
