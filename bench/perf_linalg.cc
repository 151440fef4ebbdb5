// P1 — linear-algebra microbenchmarks: the blocked matmul kernel against
// the straightforward reference it replaced, QR / SVD scaling (documents
// the one-sided-Jacobi choice from DESIGN.md §4), a placebo analysis's
// leave-one-out spectra in lockstep and one at a time, least-squares
// solve, and the simplex projection used by classical synthetic control.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/rng.h"
#include "stats/decomposition.h"
#include "stats/matrix.h"

namespace {

using namespace sisyphus;

stats::Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                           std::uint64_t seed) {
  core::Rng rng(seed);
  stats::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.Gaussian();
  return m;
}

// The production kernel (operator*: AVX2 register-tiled with a scalar
// fallback). Compare per-size against BM_MatrixMultiplyReference below;
// matrix_test pins the two to identical results, so the gap in
// BENCH_linalg.json is pure kernel speed.
void BM_MatrixMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomMatrix(n, n, 1);
  const auto b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MatrixMultiply)->RangeMultiplier(2)->Range(16, 256)->Complexity();

// The pre-blocking ikj kernel, kept as the equality oracle.
void BM_MatrixMultiplyReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomMatrix(n, n, 1);
  const auto b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::MultiplyReference(a, b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MatrixMultiplyReference)
    ->RangeMultiplier(2)
    ->Range(16, 256)
    ->Complexity();

// A^T * B without materializing the transpose — the normal-equations
// building block in regression / IV / the SVD reconstruction paths.
void BM_MultiplyAtB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomMatrix(n, n / 4 + 2, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::MultiplyAtB(a, a));
  }
}
BENCHMARK(BM_MultiplyAtB)->RangeMultiplier(2)->Range(64, 512);

// What MultiplyAtB replaced: materialize A^T, then multiply.
void BM_TransposeThenMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomMatrix(n, n / 4 + 2, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Transposed() * a);
  }
}
BENCHMARK(BM_TransposeThenMultiply)->RangeMultiplier(2)->Range(64, 512);

void BM_QrDecompose(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto a = RandomMatrix(rows, rows / 4 + 2, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::QrDecompose(a));
  }
}
BENCHMARK(BM_QrDecompose)->RangeMultiplier(2)->Range(32, 256);

// SVD at synthetic-control panel shapes: periods x donors.
void BM_SvdPanelShape(benchmark::State& state) {
  const auto periods = static_cast<std::size_t>(state.range(0));
  const auto donors = static_cast<std::size_t>(state.range(1));
  const auto a = RandomMatrix(periods, donors, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::SvdDecompose(a));
  }
}
BENCHMARK(BM_SvdPanelShape)
    ->Args({56, 10})
    ->Args({224, 30})    // the Table 1 shape
    ->Args({224, 60})
    ->Args({896, 30});   // hourly buckets

// A placebo analysis's 30 leave-one-out spectra: Jacobi on R without
// column j, for each j, where R is the QR factor of a 224 x 30 pool.
// batch:1 takes them through JacobiSvdBatch (AVX2 lockstep, four at a
// time), batch:0 through a JacobiSvd loop; decomposition_test pins the
// two to identical results, so the gap is the lockstep kernel's speed.
void BM_PlaceboSpectra(benchmark::State& state) {
  const auto qr = stats::QrDecompose(RandomMatrix(224, 30, 8));
  const stats::Matrix& r = qr.value().r;
  std::vector<stats::Matrix> factors;
  for (std::size_t j = 0; j < r.cols(); ++j) {
    stats::Matrix without(r.rows(), r.cols() - 1);
    for (std::size_t i = 0; i < r.rows(); ++i) {
      for (std::size_t c = 0, dst = 0; c < r.cols(); ++c) {
        if (c != j) without(i, dst++) = r(i, c);
      }
    }
    factors.push_back(std::move(without));
  }
  const bool batch = state.range(0) != 0;
  for (auto _ : state) {
    if (batch) {
      benchmark::DoNotOptimize(stats::JacobiSvdBatch(factors));
    } else {
      for (const stats::Matrix& f : factors) {
        benchmark::DoNotOptimize(stats::JacobiSvd(f));
      }
    }
  }
}
BENCHMARK(BM_PlaceboSpectra)->ArgName("batch")->Arg(0)->Arg(1);

void BM_SolveLeastSquares(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomMatrix(n, 8, 5);
  core::Rng rng(6);
  stats::Vector b(n);
  for (auto& x : b) x = rng.Gaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::SolveLeastSquares(a, b));
  }
}
BENCHMARK(BM_SolveLeastSquares)->RangeMultiplier(4)->Range(64, 4096);

void BM_ProjectToSimplex(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::Rng rng(7);
  stats::Vector v(n);
  for (auto& x : v) x = rng.Gaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ProjectToSimplex(v));
  }
}
BENCHMARK(BM_ProjectToSimplex)->RangeMultiplier(4)->Range(16, 1024);

}  // namespace

// Console output for humans plus BENCH_linalg.json (google-benchmark JSON
// schema) in the working directory for CI artifact upload and diffing.
// An explicit --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  sisyphus::bench::ApplyThreadsFlag(argc, argv);
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_linalg.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!has_out) std::printf("wrote BENCH_linalg.json\n");
  return 0;
}
