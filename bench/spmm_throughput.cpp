// SpMM baseline (google-benchmark): the kernel ablation V0..V4 (§4.4)
// across the sparsity sweep, in two series over one {v} x {sp} grid.
//
//   bench_spmm       jigsaw_run with values, host wall-clock. The plan
//                    memoizes its BLOCK_TILE choice per RHS width, so only
//                    the first iteration walks the candidates: this times
//                    the functional SpMM through the chosen format. The
//                    cost model's simulated A100 duration is a counter.
//   bench_cost_walk  the simulator alone: one jigsaw_cost per candidate
//                    (three under V4), what a plan's first run at a width
//                    pays before it computes.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/kernel.hpp"
#include "dlmc/suite.hpp"
#include "gpusim/cost_model.hpp"

namespace jigsaw {
namespace {

constexpr std::size_t kN = 256;
const dlmc::Shape kShape{512, 1024};

/// The planned operand of one grid point; preprocessing is amortized
/// (§3.1), so it happens outside every timed loop.
core::JigsawPlan plan_for(const benchmark::State& state) {
  core::EngineOptions::Compile popts;
  popts.version = static_cast<core::KernelVersion>(state.range(0));
  const auto sparsity = static_cast<double>(state.range(1)) / 100.0;
  return core::jigsaw_plan(dlmc::make_lhs(kShape, sparsity, 4).values(),
                           popts);
}

void bench_spmm(benchmark::State& state) {
  const auto plan = plan_for(state);
  DenseMatrix<fp16_t> b(kShape.k, kN);
  Rng rng(mix_seed(7, 0xb0b));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = fp16_t(rng.uniform(-1.0f, 1.0f));
  }

  const gpusim::CostModel cm;
  core::EngineOptions::Run ropts;
  ropts.compute_values = true;
  core::JigsawRunResult last;
  for (auto _ : state) {
    last = core::jigsaw_run(plan, b, cm, ropts);
    benchmark::DoNotOptimize(last.c->data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kShape.m * kN));
  state.counters["sim_us"] = last.report.duration_us;
  state.counters["block_tile"] =
      static_cast<double>(last.selected_block_tile);
}

void bench_cost_walk(benchmark::State& state) {
  const auto plan = plan_for(state);
  const gpusim::CostModel cm;
  for (auto _ : state) {
    for (const core::JigsawFormat& f : plan.formats) {
      gpusim::KernelReport report = core::jigsaw_cost(f, kN, plan.version, cm);
      benchmark::DoNotOptimize(report.duration_cycles);
    }
  }
  state.counters["candidates"] = static_cast<double>(plan.formats.size());
}

}  // namespace
}  // namespace jigsaw

BENCHMARK(jigsaw::bench_spmm)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {80, 90, 95, 98}})
    ->ArgNames({"v", "sp"})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(jigsaw::bench_cost_walk)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {80, 90, 95, 98}})
    ->ArgNames({"v", "sp"})
    ->Unit(benchmark::kMillisecond);

// Custom main mirroring reorder_throughput: `--json` writes the tracked
// baseline BENCH_spmm.json via google-benchmark's own output flags. Unlike
// the warn-only reorder bench, recording the SpMM baseline from a debug
// build is refused outright: the file is committed, so a non-Release
// number would silently poison the tracked history.
int main(int argc, char** argv) {
  bool json = false;
  for (int i = 0; i < argc; ++i) json |= std::strcmp(argv[i], "--json") == 0;
#if !defined(NDEBUG)
  if (json) {
    std::fprintf(stderr,
                 "error: refusing to write BENCH_spmm.json from a build "
                 "without NDEBUG; rebuild with -DCMAKE_BUILD_TYPE=Release\n");
    return 1;
  }
#endif
  jigsaw::bench::warn_if_debug_build();
  std::vector<char*> args;
  std::string out_flag = "--benchmark_out=BENCH_spmm.json";
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
