// Parameterized property sweeps across the whole pipeline.
//
// Each suite instantiates a grid of configurations (sparsity x vector
// width x shape x BLOCK_TILE) and asserts the end-to-end invariants:
// reorder layouts are valid 2:4 permutations, formats reconstruct the
// matrix, every kernel agrees with the fp64 reference, and structural
// metrics behave monotonically.
#include <gtest/gtest.h>

#include "baselines/jigsaw_adapter.hpp"
#include "baselines/spmm_kernel.hpp"
#include "core/hybrid.hpp"
#include "core/kernel.hpp"
#include "matrix/reference.hpp"
#include "matrix/two_four.hpp"
#include "matrix/vector_sparse.hpp"

namespace jigsaw {
namespace {

struct Config {
  std::size_t m, k, n;
  double sparsity;
  std::size_t v;
  std::uint64_t seed;
};

std::ostream& operator<<(std::ostream& os, const Config& c) {
  return os << c.m << "x" << c.k << "n" << c.n << "_s"
            << static_cast<int>(c.sparsity * 100) << "_v" << c.v << "_seed"
            << c.seed;
}

VectorSparseMatrix make_lhs(const Config& c) {
  VectorSparseOptions o;
  o.rows = c.m;
  o.cols = c.k;
  o.vector_width = c.v;
  o.sparsity = c.sparsity;
  o.seed = c.seed;
  return VectorSparseGenerator::generate(o);
}

DenseMatrix<fp16_t> make_rhs(const Config& c) {
  DenseMatrix<fp16_t> b(c.k, c.n);
  Rng rng(mix_seed(c.seed, 0xb));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = fp16_t(rng.uniform(-1.0f, 1.0f));
  }
  return b;
}

class PipelineProperty : public ::testing::TestWithParam<Config> {};

TEST_P(PipelineProperty, FormatDecompressesToTwoFourTiles) {
  const Config cfg = GetParam();
  const auto a = make_lhs(cfg);
  for (const int bt : {16, 64}) {
    core::ReorderOptions opts;
    opts.tile.block_tile_m = bt;
    const auto reorder = core::multi_granularity_reorder(a.values(), opts);
    const auto format = core::JigsawFormat::build(a.values(), reorder);
    // Every stored compressed tile decompresses to a 2:4-compliant tile.
    const int slices = format.row_slices_per_panel();
    for (std::uint32_t p = 0; p < format.panels().size(); ++p) {
      for (int s = 0; s < slices; ++s) {
        for (std::uint32_t pair = 0; pair < format.panels()[p].mma_pairs();
             ++pair) {
          const auto tile = format.load_compressed_tile(
              p, static_cast<std::uint32_t>(s), pair);
          DenseMatrix<fp16_t> logical(sptc::kTileRows,
                                      sptc::kTileLogicalCols);
          sptc::decompress_tile(tile, logical.view());
          EXPECT_TRUE(satisfies_two_four(logical))
              << "panel " << p << " slice " << s << " pair " << pair;
        }
      }
    }
  }
}

TEST_P(PipelineProperty, JigsawMatchesReference) {
  const Config cfg = GetParam();
  const auto a = make_lhs(cfg);
  const auto b = make_rhs(cfg);
  const auto ref = reference_gemm(a.values(), b);
  gpusim::CostModel cm;
  const auto run = core::jigsaw_run(core::jigsaw_plan(a.values(), {}), b, cm);
  ASSERT_TRUE(run.c.has_value());
  EXPECT_TRUE(allclose(*run.c, ref, a.cols()))
      << "max diff " << max_abs_diff(*run.c, ref);
}

TEST_P(PipelineProperty, HybridMatchesReference) {
  const Config cfg = GetParam();
  const auto a = make_lhs(cfg);
  const auto b = make_rhs(cfg);
  const auto c = core::hybrid_compute(
      core::hybrid_plan(a.values(), {.block_tile = 16}), a.values(), b);
  EXPECT_TRUE(allclose(c, reference_gemm(a.values(), b), a.cols()));
}

TEST_P(PipelineProperty, EveryBaselineMatchesReference) {
  const Config cfg = GetParam();
  const auto a = make_lhs(cfg);
  const auto b = make_rhs(cfg);
  const auto ref = reference_gemm(a.values(), b);
  gpusim::CostModel cm;
  for (const auto& kernel : baselines::make_baselines()) {
    const auto result = kernel->run(a, b, cm);
    EXPECT_TRUE(allclose(*result.c, ref, a.cols())) << kernel->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelineProperty,
    ::testing::Values(
        Config{64, 96, 24, 0.80, 2, 101}, Config{64, 96, 24, 0.80, 8, 102},
        Config{96, 160, 17, 0.90, 4, 103}, Config{64, 64, 8, 0.95, 2, 104},
        Config{128, 64, 40, 0.95, 8, 105}, Config{48, 112, 9, 0.98, 4, 106},
        Config{80, 240, 33, 0.85, 4, 107}, Config{64, 128, 16, 0.70, 2, 108}),
    [](const ::testing::TestParamInfo<Config>& param_info) {
      std::ostringstream os;
      os << param_info.param;
      return os.str();
    });

// ---- Structural monotonicity properties over the sparsity axis ----------

class SparsityAxis : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SparsityAxis, ZeroColumnsGrowWithSparsity) {
  const std::size_t v = GetParam();
  std::uint64_t prev = 0;
  for (const double s : {0.80, 0.90, 0.95, 0.98}) {
    VectorSparseOptions o;
    o.rows = 128;
    o.cols = 256;
    o.vector_width = v;
    o.sparsity = s;
    o.seed = 200 + v;
    const auto a = VectorSparseGenerator::generate(o);
    core::ReorderOptions opts;
    opts.tile.block_tile_m = 32;
    const auto r = core::multi_granularity_reorder(a.values(), opts);
    EXPECT_GE(r.total_zero_columns(), prev) << "sparsity " << s;
    prev = r.total_zero_columns();
  }
}

TEST_P(SparsityAxis, WiderVectorsNeverHurtZeroColumns) {
  // At fixed sparsity, wider vectors concentrate nonzeros: a v-wide
  // matrix has no fewer zero columns per panel than v/2 on average.
  const std::size_t v = GetParam();
  if (v == 2) GTEST_SKIP() << "needs a narrower comparator";
  double wide = 0, narrow = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    for (const auto& [width, acc] :
         {std::pair<std::size_t, double*>{v, &wide},
          std::pair<std::size_t, double*>{v / 2, &narrow}}) {
      VectorSparseOptions o;
      o.rows = 128;
      o.cols = 256;
      o.vector_width = width;
      o.sparsity = 0.9;
      o.seed = 300 + seed;
      const auto a = VectorSparseGenerator::generate(o);
      core::ReorderOptions opts;
      opts.tile.block_tile_m = 32;
      *acc += static_cast<double>(
          core::multi_granularity_reorder(a.values(), opts)
              .total_zero_columns());
    }
  }
  EXPECT_GE(wide, narrow * 0.99);
}

INSTANTIATE_TEST_SUITE_P(VectorWidths, SparsityAxis,
                         ::testing::Values(2, 4, 8),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           std::string name = "v";
                           name += std::to_string(i.param);
                           return name;
                         });

}  // namespace
}  // namespace jigsaw
