// Hybrid-execution extension tests (§4.7): routing decisions, numeric
// equivalence with the reference, and the low-sparsity benefit over the
// pure-SpTC kernel.
#include "core/hybrid.hpp"

#include <gtest/gtest.h>

#include "common/alloc_count.hpp"
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

TEST(Hybrid, RoutesDenseAndThinColumns) {
  // Build a matrix with three clearly distinct column populations.
  DenseMatrix<fp16_t> a(32, 64);
  for (std::size_t r = 0; r < 32; ++r) a(r, 0) = fp16_t(1.0f);  // dense
  for (std::size_t r = 0; r < 32; ++r) a(r, 1) = fp16_t(1.0f);  // dense
  a(3, 10) = fp16_t(1.0f);                                      // thin
  a(17, 11) = fp16_t(1.0f);                                     // thin
  for (std::size_t c = 20; c < 40; ++c) {                       // medium
    for (std::size_t r = c % 4; r < 32; r += 5) a(r, c) = fp16_t(0.5f);
  }
  const auto plan = hybrid_plan(a, {.block_tile = 32});
  ASSERT_EQ(plan.routing.size(), 1u);
  const auto& r = plan.routing[0];
  EXPECT_EQ(r.dense_columns, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(r.cuda_columns, (std::vector<std::uint32_t>{10, 11}));
  EXPECT_EQ(r.cuda_nnz, 2u);
  // Medium columns stay on the SpTC path.
  EXPECT_EQ(plan.format.panels()[0].col_count, 20u);
}

TEST(Hybrid, MatchesReferenceAcrossSparsities) {
  for (const double s : {0.5, 0.7, 0.9}) {
    const auto a = vector_sparse(64, 128, s, 4, 7);
    const auto b = random_b(128, 40, 8);
    const auto plan = hybrid_plan(a, {.block_tile = 16});
    const auto c = hybrid_compute(plan, a, b);
    EXPECT_TRUE(allclose(c, reference_gemm(a, b), a.cols()))
        << "sparsity " << s
        << " max diff " << max_abs_diff(c, reference_gemm(a, b));
  }
}

TEST(Hybrid, MatchesReferenceOnPathologicalMix) {
  // Dense rows + dense columns + singletons in one matrix.
  DenseMatrix<fp16_t> a(48, 96);
  Rng rng(21);
  for (std::size_t c = 0; c < 6; ++c) {  // dense columns
    for (std::size_t r = 0; r < 48; ++r) {
      a(r, c) = fp16_t(rng.uniform(0.1f, 1.0f));
    }
  }
  for (std::size_t c = 6; c < 90; c += 3) {  // medium columns
    for (std::size_t r = c % 7; r < 48; r += 4) {
      a(r, c) = fp16_t(rng.uniform(-1.0f, -0.1f));
    }
  }
  a(5, 95) = fp16_t(2.0f);  // singleton
  const auto b = random_b(96, 17, 22);
  const auto plan = hybrid_plan(a, {.block_tile = 16});
  EXPECT_GT(plan.total_dense_columns(), 0u);
  EXPECT_GT(plan.total_cuda_columns(), 0u);
  const auto c = hybrid_compute(plan, a, b);
  EXPECT_TRUE(allclose(c, reference_gemm(a, b), a.cols()));
}

TEST(Hybrid, AllZeroAndAllDenseEdges) {
  DenseMatrix<fp16_t> zeros(32, 64);
  const auto bz = random_b(64, 8, 1);
  const auto plan_z = hybrid_plan(zeros, {.block_tile = 16});
  const auto c_z = hybrid_compute(plan_z, zeros, bz);
  for (std::size_t i = 0; i < c_z.size(); ++i) {
    EXPECT_EQ(c_z.data()[i], 0.0f);
  }

  DenseMatrix<fp16_t> dense(32, 64, fp16_t(0.25f));
  const auto plan_d = hybrid_plan(dense, {.block_tile = 16});
  // Every column routes to the dense tensor core; the SpTC format is empty.
  // 64 dense columns per 16-row panel, 2 panels.
  EXPECT_EQ(plan_d.total_dense_columns(), 64u * plan_d.routing.size());
  EXPECT_TRUE(plan_d.format.values().empty());
  const auto bd = random_b(64, 8, 2);
  const auto c_d = hybrid_compute(plan_d, dense, bd);
  EXPECT_TRUE(allclose(c_d, reference_gemm(dense, bd), dense.cols()));
}

TEST(Hybrid, BeatsPureJigsawAtLowSparsity) {
  // The whole point of §4.7: below ~70% sparsity the pure-SpTC kernel
  // wastes work on dense tiles; the hybrid routes them to dense TCs.
  gpusim::CostModel cm;
  const auto a = vector_sparse(512, 1024, 0.5, 8, 9);
  const auto pure = jigsaw_select(jigsaw_plan(a, {}), 256, cm);
  const auto hybrid =
      hybrid_cost(hybrid_plan(a, {.block_tile = 16}), 256, cm);
  EXPECT_LT(hybrid.duration_cycles, pure.report.duration_cycles);
}

TEST(Hybrid, NoRoutingAtHighSparsityMatchesJigsawStructure) {
  // At 95% with v=8 almost everything stays on the SpTC path.
  const auto a = vector_sparse(128, 256, 0.95, 8, 11);
  const auto plan = hybrid_plan(a, {.block_tile = 64});
  // Only columns with two dense vector slots in one slice route away
  // (~0.25% odds each at 95%): a marginal fraction.
  EXPECT_LT(static_cast<double>(plan.total_dense_columns()),
            0.02 * static_cast<double>(a.cols() * plan.routing.size()));
  const double cuda_fraction =
      static_cast<double>(plan.total_cuda_columns()) /
      static_cast<double>(a.cols() * plan.routing.size());
  EXPECT_LT(cuda_fraction, 0.35);
}

TEST(Hybrid, ReportChargesAllPipes) {
  gpusim::CostModel cm;
  DenseMatrix<fp16_t> a(64, 128);
  Rng rng(31);
  for (std::size_t c = 0; c < 4; ++c) {  // dense columns
    for (std::size_t r = 0; r < 64; ++r) a(r, c) = fp16_t(1.0f);
  }
  a(9, 100) = fp16_t(1.0f);  // cuda singleton
  for (std::size_t c = 10; c < 90; c += 2) {  // sptc columns
    for (std::size_t r = c % 5; r < 64; r += 6) a(r, c) = fp16_t(0.5f);
  }
  const auto plan = hybrid_plan(a, {.block_tile = 16});
  const auto report = hybrid_cost(plan, 64, cm);
  EXPECT_GT(report.counters.sptc_macs, 0.0);
  EXPECT_GT(report.counters.tc_fp16_macs, 0.0);
  EXPECT_GT(report.counters.cuda_macs, 0.0);
}

TEST(Hybrid, ComputeHeapTrafficIsIndependentOfDenseTiles) {
  // The dense-TC route stages its tiles on the stack: a warm call makes
  // the same heap allocations (the output) however many dense-routed
  // tile-slices it runs.
  const auto b = random_b(256, 32, 41);
  std::vector<std::uint64_t> allocations;
  std::vector<std::size_t> dense_columns;
  for (const double s : {0.9, 0.5, 0.2}) {
    const auto a = vector_sparse(256, 256, s, 4, 40);
    const auto plan = hybrid_plan(a, {.block_tile = 16});
    (void)hybrid_compute(plan, a, b);  // warm the kernel scratch
    const std::uint64_t before = heap_allocation_count();
    const auto c = hybrid_compute(plan, a, b);
    allocations.push_back(heap_allocation_count() - before);
    dense_columns.push_back(plan.total_dense_columns());
    EXPECT_EQ(c.rows(), a.rows());
  }
  EXPECT_LT(dense_columns.front(), dense_columns.back());
  EXPECT_EQ(allocations[0], allocations[1]);
  EXPECT_EQ(allocations[0], allocations[2]);
}

}  // namespace
}  // namespace jigsaw::core
