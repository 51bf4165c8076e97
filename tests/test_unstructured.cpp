// The paper claims Jigsaw "can directly apply to any fine-grained sparse
// matrix". These tests run the full pipeline on sparsity structures far
// from the vector-pruned family — element-wise Bernoulli, banded, block
// diagonal, power-law rows, single dense row/column — and require exact
// numeric agreement plus valid layouts everywhere.
#include <gtest/gtest.h>

#include "core/hybrid.hpp"
#include "core/kernel.hpp"
#include "matrix/reference.hpp"

namespace jigsaw::core {
namespace {

DenseMatrix<fp16_t> random_b(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  DenseMatrix<fp16_t> b(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = fp16_t(rng.uniform(-1.0f, 1.0f));
  }
  return b;
}

void expect_pipeline_correct(const DenseMatrix<fp16_t>& a,
                             const std::string& label) {
  const auto b = random_b(a.cols(), 24, 77);
  const auto ref = reference_gemm(a, b);
  gpusim::CostModel cm;
  const auto run = jigsaw_run(jigsaw_plan(a, {}), b, cm);
  ASSERT_TRUE(run.c.has_value()) << label;
  EXPECT_TRUE(allclose(*run.c, ref, a.cols()))
      << label << " max diff " << max_abs_diff(*run.c, ref);
  const auto hyb = hybrid_compute(hybrid_plan(a, {.block_tile = 16}), a, b);
  EXPECT_TRUE(allclose(hyb, ref, a.cols())) << label << " (hybrid)";
}

TEST(Unstructured, ElementwiseBernoulli) {
  for (const double density : {0.05, 0.15, 0.3}) {
    DenseMatrix<fp16_t> a(64, 96);
    Rng rng(static_cast<std::uint64_t>(density * 1000));
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (rng.bernoulli(density)) {
        a.data()[i] = fp16_t(rng.uniform(0.1f, 1.0f));
      }
    }
    expect_pipeline_correct(a, "bernoulli d=" + std::to_string(density));
  }
}

TEST(Unstructured, BandedMatrix) {
  DenseMatrix<fp16_t> a(96, 96);
  Rng rng(5);
  for (std::size_t r = 0; r < 96; ++r) {
    for (std::size_t c = (r > 3 ? r - 3 : 0); c < std::min<std::size_t>(96, r + 4);
         ++c) {
      a(r, c) = fp16_t(rng.uniform(0.5f, 1.0f));
    }
  }
  expect_pipeline_correct(a, "banded");
}

TEST(Unstructured, BlockDiagonal) {
  DenseMatrix<fp16_t> a(96, 96);
  Rng rng(6);
  for (std::size_t blk = 0; blk < 96; blk += 12) {
    for (std::size_t r = blk; r < blk + 12; ++r) {
      for (std::size_t c = blk; c < blk + 12; ++c) {
        a(r, c) = fp16_t(rng.uniform(-1.0f, -0.1f));
      }
    }
  }
  expect_pipeline_correct(a, "block diagonal");
}

TEST(Unstructured, PowerLawRows) {
  // A few very long rows, many nearly-empty ones (graph-like degree
  // distribution) — the load-imbalance stressor.
  DenseMatrix<fp16_t> a(64, 128);
  Rng rng(7);
  for (std::size_t r = 0; r < 64; ++r) {
    const std::size_t nnz = r < 4 ? 96 : (r < 16 ? 12 : 2);
    for (const auto c : rng.sample_without_replacement(
             128, static_cast<std::uint32_t>(nnz))) {
      a(r, c) = fp16_t(rng.uniform(0.2f, 1.0f));
    }
  }
  expect_pipeline_correct(a, "power law");
}

TEST(Unstructured, SingleDenseRowAndColumn) {
  DenseMatrix<fp16_t> a(64, 96);
  Rng rng(8);
  for (std::size_t c = 0; c < 96; ++c) a(17, c) = fp16_t(rng.uniform(0.1f, 1.0f));
  for (std::size_t r = 0; r < 64; ++r) a(r, 40) = fp16_t(rng.uniform(0.1f, 1.0f));
  expect_pipeline_correct(a, "cross");
}

TEST(Unstructured, CheckerboardWorstCase) {
  // Alternating pattern: every aligned 4-group holds exactly 2 nonzeros —
  // already 2:4, the identity fast path should dominate.
  DenseMatrix<fp16_t> a(32, 64);
  for (std::size_t r = 0; r < 32; ++r) {
    for (std::size_t c = r % 2; c < 64; c += 2) {
      a(r, c) = fp16_t(0.5f);
    }
  }
  ReorderOptions opts;
  opts.tile.block_tile_m = 32;
  const auto reorder = multi_granularity_reorder(a, opts);
  EXPECT_TRUE(reorder.success());
  EXPECT_EQ(reorder.identity_fraction(), 1.0);
  expect_pipeline_correct(a, "checkerboard");
}

TEST(Unstructured, TinyMatrices) {
  for (const auto& [m, k] : {std::pair<std::size_t, std::size_t>{1, 1},
                            {1, 16},
                            {16, 1},
                            {7, 5},
                            {16, 16}}) {
    DenseMatrix<fp16_t> a(m, k);
    Rng rng(m * 100 + k);
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (rng.bernoulli(0.5)) a.data()[i] = fp16_t(rng.uniform(0.2f, 1.0f));
    }
    if (count_nonzeros(a) == 0) a(0, 0) = fp16_t(1.0f);
    expect_pipeline_correct(a, std::to_string(m) + "x" + std::to_string(k));
  }
}

}  // namespace
}  // namespace jigsaw::core
