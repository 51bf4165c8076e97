// Host-side preprocessing cost (google-benchmark): the paper argues the
// multi-granularity reorder is "one-time light preprocessing, whose cost
// can be amortized over inferences" (§3.1). This benchmark measures the
// actual wall-clock reorder + format-build time across sparsities, vector
// widths, and BLOCK_TILE sizes, reporting elements/second, and the whole
// per-weight compile of a serving-sized FFN weight.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/kernel.hpp"
#include "dlmc/suite.hpp"

namespace jigsaw {
namespace {

void bench_reorder(benchmark::State& state) {
  const auto sparsity = static_cast<double>(state.range(0)) / 100.0;
  const auto v = static_cast<std::size_t>(state.range(1));
  const int bt = static_cast<int>(state.range(2));
  const dlmc::Shape shape{512, 1024};
  const auto a = dlmc::make_lhs(shape, sparsity, v);

  core::PlanStats last{};
  bool success = false;
  for (auto _ : state) {
    core::ReorderOptions opts;
    opts.tile.block_tile_m = bt;
    auto result = core::multi_granularity_reorder(a.values(), opts);
    benchmark::DoNotOptimize(result.panels.data());
    last = result.stats;
    success = result.success();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shape.m * shape.k));
  state.counters["success"] = success ? 1.0 : 0.0;
  state.counters["evictions"] = static_cast<double>(last.evictions);
  state.counters["rescued"] = static_cast<double>(last.rescued_panels);
}

void bench_format_build(benchmark::State& state) {
  const auto sparsity = static_cast<double>(state.range(0)) / 100.0;
  const dlmc::Shape shape{512, 1024};
  const auto a = dlmc::make_lhs(shape, sparsity, 8);
  core::ReorderOptions opts;
  opts.tile.block_tile_m = 64;
  const auto reorder = core::multi_granularity_reorder(a.values(), opts);
  for (auto _ : state) {
    auto format = core::JigsawFormat::build(a.values(), reorder);
    benchmark::DoNotOptimize(format.values().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shape.m * shape.k));
}

void bench_compile_ffn(benchmark::State& state) {
  // The per-weight work of an engine compile on a serving-sized FFN
  // weight: reorder, format build and validation of a 4096x1024, 90%
  // sparse, v=4 matrix at BLOCK_TILE 64.
  const dlmc::Shape shape{4096, 1024};
  const auto a = dlmc::make_lhs(shape, 0.90, 4);
  core::ReorderOptions opts;
  opts.tile.block_tile_m = 64;
  for (auto _ : state) {
    const auto reorder = core::multi_granularity_reorder(a.values(), opts);
    auto format = core::JigsawFormat::build(a.values(), reorder);
    if (!format.validate().ok()) {
      state.SkipWithError("built format failed validation");
      break;
    }
    benchmark::DoNotOptimize(format.values().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shape.m * shape.k));
}

void bench_format_validate(benchmark::State& state) {
  // JigsawFormat::validate() of bench_compile_ffn's format, the check
  // every compile and every update runs once.
  const auto a = dlmc::make_lhs({4096, 1024}, 0.90, 4);
  core::ReorderOptions opts;
  opts.tile.block_tile_m = 64;
  const auto format = core::JigsawFormat::build(
      a.values(), core::multi_granularity_reorder(a.values(), opts));
  for (auto _ : state) {
    const Status valid = format.validate();
    if (!valid.ok()) {
      state.SkipWithError(valid.to_string().c_str());
      break;
    }
    benchmark::DoNotOptimize(valid);
  }
}

void bench_full_plan(benchmark::State& state) {
  // The complete V4 preprocessing (three reorders + three format builds):
  // the cost a user amortizes over inference runs.
  const dlmc::Shape shape{512, 1024};
  const auto a = dlmc::make_lhs(shape, 0.95, 8);
  for (auto _ : state) {
    auto plan = core::jigsaw_plan(a.values(), {});
    benchmark::DoNotOptimize(plan.formats.data());
  }
}

}  // namespace
}  // namespace jigsaw

BENCHMARK(jigsaw::bench_reorder)
    ->ArgsProduct({{80, 90, 95, 98}, {2, 8}, {16, 64}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(jigsaw::bench_format_build)
    ->Arg(80)
    ->Arg(95)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(jigsaw::bench_compile_ffn)->Unit(benchmark::kMillisecond);
BENCHMARK(jigsaw::bench_format_validate)->Unit(benchmark::kMillisecond);
BENCHMARK(jigsaw::bench_full_plan)->Unit(benchmark::kMillisecond);

// Custom main instead of BENCHMARK_MAIN: `--json` writes the machine-
// readable result file BENCH_reorder.json (tracked perf baseline) next to
// the working directory, by injecting google-benchmark's own output flags.
int main(int argc, char** argv) {
  jigsaw::bench::warn_if_debug_build();
  std::vector<char*> args;
  std::string out_flag = "--benchmark_out=BENCH_reorder.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      args.push_back(out_flag.data());
      args.push_back(fmt_flag.data());
    } else {
      args.push_back(argv[i]);
    }
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::AddCustomContext("jigsaw_build_type", jigsaw::bench::build_type());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
