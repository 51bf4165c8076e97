// Differential harness: every executable SpMM route must agree on the
// same randomized inputs. For a sparsity sweep (70–98%) across vector
// widths, seeds, and ragged shapes, the plain kernel (V0..V4), both
// metadata layouts, the checked tier, and the hybrid router are all
// compared against the double-precision dense reference — and against
// each other, bitwise where the routes share the functional path. Unlike
// the per-module tests this file exercises whole-pipeline disagreement:
// a bug anywhere in reorder -> format -> kernel shows up as two routes
// answering differently.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/hybrid.hpp"
#include "core/kernel.hpp"
#include "dlmc/suite.hpp"
#include "engine/engine.hpp"
#include "matrix/reference.hpp"

namespace jigsaw::core {
namespace {

struct SweepCase {
  std::size_t m, k;
  int sparsity_pct;
  std::size_t v;
  std::uint64_t seed;
};

/// Sparsity ladder 70..98 crossed with the paper's vector widths, plus a
/// ragged non-multiple-of-tile shape per rung. Seeds vary per case so two
/// rungs never see the same pattern.
const std::vector<SweepCase>& sweep_cases() {
  static const std::vector<SweepCase> kCases = {
      {64, 128, 70, 2, 11},  {64, 128, 70, 4, 12},
      {64, 128, 80, 2, 21},  {128, 256, 80, 4, 22},
      {64, 128, 90, 8, 31},  {128, 256, 90, 4, 32},
      {64, 128, 95, 2, 41},  {128, 256, 98, 8, 42},
      {56, 100, 85, 2, 51},  {100, 130, 92, 4, 52},
  };
  return kCases;
}

constexpr std::size_t kN = 32;

DenseMatrix<fp16_t> lhs_for(const SweepCase& c) {
  return dlmc::make_lhs({c.m, c.k}, c.sparsity_pct / 100.0, c.v, c.seed)
      .values();
}

std::string describe(const SweepCase& c) {
  return std::to_string(c.m) + "x" + std::to_string(c.k) +
         " sp=" + std::to_string(c.sparsity_pct) + " v=" +
         std::to_string(c.v) + " seed=" + std::to_string(c.seed);
}

TEST(Differential, EveryKernelVersionMatchesDenseReference) {
  const gpusim::CostModel cm;
  for (const SweepCase& c : sweep_cases()) {
    const auto a = lhs_for(c);
    const auto b = dlmc::make_rhs(c.k, kN, c.seed);
    const auto ref = reference_gemm(a, b);
    for (const auto version :
         {KernelVersion::kV0, KernelVersion::kV1, KernelVersion::kV2,
          KernelVersion::kV3, KernelVersion::kV4}) {
      EngineOptions::Compile po;
      po.version = version;
      const auto run = jigsaw_run(jigsaw_plan(a, po), b, cm);
      ASSERT_TRUE(run.c.has_value());
      EXPECT_TRUE(allclose(*run.c, ref, c.k))
          << describe(c) << " " << to_string(version) << " max diff "
          << max_abs_diff(*run.c, ref);
    }
  }
}

TEST(Differential, MetadataLayoutsAreBitwiseEquivalent) {
  // The layout only changes how metadata words are stored, never which
  // values multiply: the two functional results must be identical to the
  // bit, and both within tolerance of the reference.
  for (const SweepCase& c : sweep_cases()) {
    const auto a = lhs_for(c);
    const auto b = dlmc::make_rhs(c.k, kN, c.seed + 1000);
    const auto ref = reference_gemm(a, b);
    const auto reorder = multi_granularity_reorder(a);
    const auto naive =
        JigsawFormat::build(a, reorder, MetadataLayout::kNaive);
    const auto interleaved =
        JigsawFormat::build(a, reorder, MetadataLayout::kInterleaved);
    const auto c_naive = jigsaw_compute(naive, b);
    const auto c_interleaved = jigsaw_compute(interleaved, b);
    EXPECT_TRUE(c_naive == c_interleaved) << describe(c);
    EXPECT_TRUE(allclose(c_naive, ref, c.k))
        << describe(c) << " max diff " << max_abs_diff(c_naive, ref);
  }
}

TEST(Differential, CheckedTierMatchesDenseReference) {
  // The engine's default checked route may reroute failed panels through
  // the hybrid pipes (common at the dense end of the sweep); whatever it
  // absorbed, the answer must stay exact to within accumulation
  // tolerance.
  engine::Engine engine({.worker_threads = 1});
  for (const SweepCase& c : sweep_cases()) {
    const auto a = lhs_for(c);
    const auto b = dlmc::make_rhs(c.k, kN, c.seed + 2000);
    const auto ref = reference_gemm(a, b);
    const auto compiled = engine.compile(a);
    ASSERT_TRUE(compiled.ok()) << describe(c) << ": "
                               << compiled.status().to_string();
    const engine::CompiledMatrix& handle = *compiled.value();
    ASSERT_EQ(handle.policy, ExecutionPolicy::kChecked);
    const auto result = engine.execute(handle, b);
    ASSERT_TRUE(result.ok()) << describe(c) << ": "
                             << result.status().to_string();
    EXPECT_TRUE(allclose(result.value(), ref, c.k))
        << describe(c) << " max diff " << max_abs_diff(result.value(), ref);
    EXPECT_LE(handle.degradation.panels_degraded,
              handle.degradation.panels_total);
  }
}

TEST(Differential, HybridRouteMatchesReferenceAndIsThreadCountInvariant) {
  // The hybrid router splits work across three pipes and the planner runs
  // panel-parallel; neither the routing nor the accumulated C may depend
  // on how many threads did the planning.
  for (const SweepCase& c : sweep_cases()) {
    const auto a = lhs_for(c);
    const auto b = dlmc::make_rhs(c.k, kN, c.seed + 4000);
    const auto ref = reference_gemm(a, b);

    EngineOptions::Compile serial_opts{.block_tile = 16};
    serial_opts.reorder.max_threads = 1;
    const auto serial_plan = hybrid_plan(a, serial_opts);
    const auto serial = hybrid_compute(serial_plan, a, b);

    EngineOptions::Compile parallel_opts{.block_tile = 16};
    parallel_opts.reorder.max_threads = 0;  // all available workers
    const auto parallel_plan = hybrid_plan(a, parallel_opts);
    const auto parallel = hybrid_compute(parallel_plan, a, b);

    EXPECT_TRUE(allclose(serial, ref, c.k))
        << describe(c) << " max diff " << max_abs_diff(serial, ref);
    EXPECT_TRUE(serial == parallel) << describe(c);
    EXPECT_EQ(serial_plan.total_dense_columns(),
              parallel_plan.total_dense_columns());
    EXPECT_EQ(serial_plan.total_cuda_columns(),
              parallel_plan.total_cuda_columns());
  }
}

TEST(Differential, ComputeIntoIsPanelWidthInvariantBitwise) {
  // The batched execute path blocks the RHS into column panels; output
  // columns are independent sums, so every width — including widths that
  // straddle or undershoot the SIMD chunks — must reproduce the default
  // result exactly, for both metadata layouts.
  for (const SweepCase& c : sweep_cases()) {
    const auto a = lhs_for(c);
    const auto b = dlmc::make_rhs(c.k, kN, c.seed + 5000);
    const auto ref = reference_gemm(a, b);
    const auto reorder = multi_granularity_reorder(a);
    for (const auto layout :
         {MetadataLayout::kNaive, MetadataLayout::kInterleaved}) {
      const auto f = JigsawFormat::build(a, reorder, layout);
      const auto base = jigsaw_compute(f, b);
      EXPECT_TRUE(allclose(base, ref, c.k))
          << describe(c) << " max diff " << max_abs_diff(base, ref);
      for (const std::size_t pc : {std::size_t{1}, std::size_t{7},
                                   std::size_t{8}, std::size_t{24},
                                   std::size_t{64}, std::size_t{1024}}) {
        DenseMatrix<float> out(a.rows(), kN);
        jigsaw_compute_into(f, b, out, {}, pc);
        EXPECT_TRUE(out == base) << describe(c) << " panel_cols=" << pc;
      }
    }
  }
}

TEST(Differential, FusedEpilogueIsPanelWidthInvariantBitwise) {
  // Bias + ReLU applied at write-back must not observe the panel blocking
  // either: apply() sees one finished accumulator per element regardless
  // of how columns were chunked.
  const SweepCase c{100, 130, 92, 4, 52};
  const auto a = lhs_for(c);
  const auto b = dlmc::make_rhs(c.k, kN, c.seed + 6000);
  std::vector<float> bias(c.m);
  for (std::size_t r = 0; r < c.m; ++r) {
    bias[r] = 0.25f * static_cast<float>(r % 7) - 0.5f;
  }
  Epilogue ep;
  ep.activation = Epilogue::Activation::kRelu;
  ep.bias = &bias;
  const auto format = JigsawFormat::build(a, multi_granularity_reorder(a));
  const auto base = jigsaw_compute(format, b, ep);
  for (const std::size_t pc : {std::size_t{1}, std::size_t{24},
                               std::size_t{64}}) {
    DenseMatrix<float> out(a.rows(), kN);
    jigsaw_compute_into(format, b, out, ep, pc);
    EXPECT_TRUE(out == base) << "panel_cols=" << pc;
  }
}

TEST(Differential, PlanIsReproducibleAcrossRepeatedCalls) {
  // Same input, same options -> bit-identical plan and result, twice in a
  // row (guards against hidden global state leaking between runs).
  const gpusim::CostModel cm;
  const SweepCase c{128, 256, 90, 4, 77};
  const auto a = lhs_for(c);
  const auto b = dlmc::make_rhs(c.k, kN, c.seed);
  const auto first = jigsaw_run(jigsaw_plan(a, {}), b, cm);
  const auto second = jigsaw_run(jigsaw_plan(a, {}), b, cm);
  ASSERT_TRUE(first.c.has_value() && second.c.has_value());
  EXPECT_TRUE(*first.c == *second.c);
  EXPECT_EQ(first.selected_block_tile, second.selected_block_tile);
}

}  // namespace
}  // namespace jigsaw::core
