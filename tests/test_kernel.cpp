// Jigsaw kernel tests: numeric agreement with the reference GEMM across
// sparsities/widths/shapes/versions, cost-walk structure, and the ablation
// direction (v0 -> v4 must not get slower).
#include "core/kernel.hpp"

#include <gtest/gtest.h>

#include "matrix/reference.hpp"
#include "matrix/vector_sparse.hpp"

namespace jigsaw::core {
namespace {

DenseMatrix<fp16_t> vector_sparse(std::size_t m, std::size_t k, double s,
                                  std::size_t v, std::uint64_t seed) {
  VectorSparseOptions o;
  o.rows = m;
  o.cols = k;
  o.vector_width = v;
  o.sparsity = s;
  o.seed = seed;
  return VectorSparseGenerator::generate(o).values();
}

DenseMatrix<fp16_t> random_b(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  DenseMatrix<fp16_t> b(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = fp16_t(rng.uniform(-1.0f, 1.0f));
  }
  return b;
}

TEST(JigsawKernel, MatchesReferenceAcrossVersions) {
  const auto a = vector_sparse(64, 128, 0.9, 4, 1);
  const auto b = random_b(128, 40, 2);
  const auto ref = reference_gemm(a, b);
  gpusim::CostModel cm;
  for (const auto version :
       {KernelVersion::kV0, KernelVersion::kV1, KernelVersion::kV2,
        KernelVersion::kV3, KernelVersion::kV4}) {
    EngineOptions::Compile po;
    po.version = version;
    const auto plan = jigsaw_plan(a, po);
    const auto run = jigsaw_run(plan, b, cm);
    ASSERT_TRUE(run.c.has_value());
    EXPECT_TRUE(allclose(*run.c, ref, a.cols()))
        << to_string(version) << " max diff " << max_abs_diff(*run.c, ref);
  }
}

TEST(JigsawKernel, MatchesReferenceAcrossSparsitiesAndWidths) {
  gpusim::CostModel cm;
  for (const double s : {0.8, 0.95}) {
    for (const std::size_t v : {2u, 8u}) {
      const auto a = vector_sparse(96, 160, s, v, 3 + v);
      const auto b = random_b(160, 24, 4);
      const auto ref = reference_gemm(a, b);
      const auto plan = jigsaw_plan(a, {});
      const auto run = jigsaw_run(plan, b, cm);
      EXPECT_TRUE(allclose(*run.c, ref, a.cols()))
          << "s=" << s << " v=" << v;
    }
  }
}

TEST(JigsawKernel, RaggedShapes) {
  gpusim::CostModel cm;
  const auto a = vector_sparse(56, 100, 0.85, 2, 5);
  const auto b = random_b(100, 13, 6);
  const auto ref = reference_gemm(a, b);
  const auto plan = jigsaw_plan(a, {});
  const auto run = jigsaw_run(plan, b, cm);
  EXPECT_TRUE(allclose(*run.c, ref, a.cols()));
}

TEST(JigsawKernel, DenseInputStillCorrectViaSplitting) {
  // Fully dense A defeats the reorder (split fallback widens K) but the
  // kernel must stay numerically correct.
  DenseMatrix<fp16_t> a(32, 48);
  Rng rng(7);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = fp16_t(rng.uniform(0.25f, 1.0f));
  }
  const auto b = random_b(48, 16, 8);
  const auto ref = reference_gemm(a, b);
  gpusim::CostModel cm;
  EngineOptions::Compile po;
  po.version = KernelVersion::kV1;
  po.block_tile = 32;
  const auto plan = jigsaw_plan(a, po);
  EXPECT_FALSE(plan.reorders[0].success());
  const auto run = jigsaw_run(plan, b, cm);
  EXPECT_TRUE(allclose(*run.c, ref, a.cols()));
}

TEST(JigsawKernel, AllZeroMatrix) {
  DenseMatrix<fp16_t> a(32, 64);
  const auto b = random_b(64, 8, 9);
  gpusim::CostModel cm;
  const auto plan = jigsaw_plan(a, {});
  const auto run = jigsaw_run(plan, b, cm);
  for (std::size_t i = 0; i < run.c->size(); ++i) {
    EXPECT_EQ(run.c->data()[i], 0.0f);
  }
}

TEST(JigsawKernel, PlanBuildsThreeCandidatesForV4) {
  const auto a = vector_sparse(64, 128, 0.9, 4, 10);
  const auto plan = jigsaw_plan(a, {});
  EXPECT_EQ(plan.formats.size(), 3u);
  EngineOptions::Compile po;
  po.version = KernelVersion::kV2;
  EXPECT_EQ(jigsaw_plan(a, po).formats.size(), 1u);
}

TEST(JigsawKernel, V4SelectsSomeCandidate) {
  const auto a = vector_sparse(128, 256, 0.95, 8, 11);
  const auto b = random_b(256, 64, 12);
  gpusim::CostModel cm;
  const auto run = jigsaw_run(jigsaw_plan(a, {}), b, cm, {.compute_values = false});
  EXPECT_TRUE(run.selected_block_tile == 16 || run.selected_block_tile == 32 ||
              run.selected_block_tile == 64);
  EXPECT_FALSE(run.c.has_value());
}

TEST(JigsawKernel, V4PrefersSmallTilesAtHighSparsity) {
  // §4.4's explanation of the v4 jump: BLOCK_TILE 16/32 skip more zero
  // columns. At 98% sparsity with v=8 the planner should never pick 64;
  // at 80% with v=2 (few zero columns at any BT) the bigger tile's reuse
  // usually wins. We assert the high-sparsity half, which is the robust
  // statistical statement.
  gpusim::CostModel cm;
  const auto a = vector_sparse(512, 512, 0.98, 8, 77);
  const auto b = random_b(512, 256, 78);
  const auto run = jigsaw_run(jigsaw_plan(a, {}), b, cm,
                              {.compute_values = false});
  EXPECT_LT(run.selected_block_tile, 64);
}

TEST(JigsawKernel, PlanReportsPreprocessingTime) {
  const auto a = vector_sparse(128, 128, 0.9, 4, 79);
  const auto plan = jigsaw_plan(a, {});
  EXPECT_GT(plan.preprocess_seconds, 0.0);
  EXPECT_LT(plan.preprocess_seconds, 60.0);
  EXPECT_EQ(plan.reorders.size(), plan.formats.size());
}

TEST(JigsawKernel, BankConflictsEliminatedByV1) {
  // The v0 cost walk must measure massive conflicts on the unpadded
  // layout; v1 must remove (nearly) all of them — §4.4 reports 99.48%.
  const auto a = vector_sparse(256, 512, 0.95, 8, 13);
  gpusim::CostModel cm;
  EngineOptions::Compile po;
  po.version = KernelVersion::kV0;
  po.block_tile = 64;
  const auto p0 = jigsaw_plan(a, po);
  const auto r0 = jigsaw_cost(p0.formats[0], 512, KernelVersion::kV0, cm);
  po.version = KernelVersion::kV1;
  const auto p1 = jigsaw_plan(a, po);
  const auto r1 = jigsaw_cost(p1.formats[0], 512, KernelVersion::kV1, cm);
  ASSERT_GT(r0.counters.smem_bank_conflicts, 0.0);
  const double reduction =
      1.0 - r1.counters.smem_bank_conflicts / r0.counters.smem_bank_conflicts;
  EXPECT_GT(reduction, 0.95);
}

TEST(JigsawKernel, AblationMonotoneSpeedup) {
  const auto a = vector_sparse(256, 512, 0.95, 8, 14);
  gpusim::CostModel cm;
  double prev = 1e300;
  for (const auto version :
       {KernelVersion::kV0, KernelVersion::kV1, KernelVersion::kV2,
        KernelVersion::kV3, KernelVersion::kV4}) {
    EngineOptions::Compile po;
    po.version = version;
    po.block_tile = 64;
    const auto plan = jigsaw_plan(a, po);
    const auto b = random_b(512, 256, 15);
    const auto run = jigsaw_run(plan, b, cm, {.compute_values = false});
    EXPECT_LE(run.report.duration_cycles, prev * 1.02)
        << to_string(version) << " regressed";
    prev = run.report.duration_cycles;
  }
}

TEST(JigsawKernel, DeepPipelineReducesLongScoreboard) {
  const auto a = vector_sparse(256, 512, 0.95, 8, 16);
  gpusim::CostModel cm;
  EngineOptions::Compile po;
  po.version = KernelVersion::kV1;
  po.block_tile = 64;
  const auto f1 = jigsaw_plan(a, po).formats[0];
  const auto r1 = jigsaw_cost(f1, 512, KernelVersion::kV1, cm);
  const auto r2 = jigsaw_cost(f1, 512, KernelVersion::kV2, cm);
  EXPECT_LT(r2.warp_long_scoreboard(), r1.warp_long_scoreboard());
}

TEST(JigsawKernel, InterleavedMetadataReducesInstructionsAndSmem) {
  const auto a = vector_sparse(256, 512, 0.95, 8, 17);
  gpusim::CostModel cm;
  EngineOptions::Compile po;
  po.version = KernelVersion::kV2;
  po.block_tile = 64;
  const auto f = jigsaw_plan(a, po).formats[0];
  const auto r2 = jigsaw_cost(f, 512, KernelVersion::kV2, cm);
  const auto r3 = jigsaw_cost(f, 512, KernelVersion::kV3, cm);
  EXPECT_LT(r3.counters.instructions, r2.counters.instructions);
  EXPECT_LT(r3.counters.smem_load_transactions,
            r2.counters.smem_load_transactions);
}

TEST(JigsawKernel, SparserIsFaster) {
  gpusim::CostModel cm;
  double prev = 1e300;
  for (const double s : {0.8, 0.9, 0.95, 0.98}) {
    const auto a = vector_sparse(256, 512, s, 8, 18);
    const auto b = random_b(512, 128, 19);
    const auto run = jigsaw_run(jigsaw_plan(a, {}), b, cm,
                                {.compute_values = false});
    EXPECT_LT(run.report.duration_cycles, prev) << s;
    prev = run.report.duration_cycles;
  }
}

TEST(JigsawKernel, ReportHasSaneStructure) {
  const auto a = vector_sparse(128, 256, 0.9, 4, 20);
  gpusim::CostModel cm;
  const auto run = jigsaw_run(jigsaw_plan(a, {}), random_b(256, 64, 21), cm,
                              {.compute_values = false});
  const auto& r = run.report;
  EXPECT_GT(r.duration_cycles, 0.0);
  EXPECT_GT(r.counters.sptc_macs, 0.0);
  EXPECT_EQ(r.counters.tc_fp16_macs, 0.0);  // Jigsaw uses only SpTC
  EXPECT_GT(r.counters.dram_read_bytes, 0.0);
  EXPECT_GT(r.launch.blocks, 0u);
  EXPECT_EQ(r.launch.threads_per_block, kThreadsPerBlock);
  EXPECT_GT(r.occupancy.blocks_per_sm, 0);
}

}  // namespace
}  // namespace jigsaw::core
