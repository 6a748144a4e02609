// Microbenchmarks for the system-identification math: 6-sample LS fits
// (the paper's identification step) and RLS updates (the self-tuning
// extension). Both must be negligible next to a block fetch.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace wsq::bench {
namespace {

std::pair<std::vector<double>, std::vector<double>> Samples(int n) {
  std::vector<double> x;
  std::vector<double> y;
  Random rng(5);
  for (int i = 0; i < n; ++i) {
    const double v = 100.0 + i * (19900.0 / std::max(n - 1, 1));
    x.push_back(v);
    y.push_back((5000.0 / v + 0.0002 * v + 1.0) * rng.Uniform(0.9, 1.1));
  }
  return {x, y};
}

void BM_FitQuadratic6(benchmark::State& state) {
  auto [x, y] = Samples(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitQuadratic(x, y));
  }
}
BENCHMARK(BM_FitQuadratic6);

void BM_FitParabolic6(benchmark::State& state) {
  auto [x, y] = Samples(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitParabolic(x, y));
  }
}
BENCHMARK(BM_FitParabolic6);

void BM_FitQuadraticN(benchmark::State& state) {
  auto [x, y] = Samples(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitQuadratic(x, y));
  }
}
BENCHMARK(BM_FitQuadraticN)->Arg(12)->Arg(48)->Arg(192);

void BM_RlsUpdate(benchmark::State& state) {
  RecursiveLeastSquares rls(3, 0.98);
  Random rng(7);
  for (auto _ : state) {
    const double x = rng.Uniform(100, 20000);
    benchmark::DoNotOptimize(
        rls.Update({x * x, x, 1.0}, 5000.0 / x + 0.0002 * x));
  }
}
BENCHMARK(BM_RlsUpdate);

void BM_AnalyticOptimum(benchmark::State& state) {
  BlockSizeLimits limits{100, 20000};
  bool failed = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyticOptimum(
        IdentificationModel::kParabolic, {5000.0, 0.0002, 1.0}, limits,
        &failed));
  }
}
BENCHMARK(BM_AnalyticOptimum);

void BM_SolveLinearSystem3x3(benchmark::State& state) {
  const double entries[3][3] = {{4.0, 1.0, 0.5}, {1.0, 3.0, 0.2},
                                {0.5, 0.2, 2.0}};
  Matrix a(3, 3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) a.At(r, c) = entries[r][c];
  }
  const Matrix b = Matrix::ColumnVector({1.0, 2.0, 3.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveLinearSystem(a, b));
  }
}
BENCHMARK(BM_SolveLinearSystem3x3);

}  // namespace
}  // namespace wsq::bench
