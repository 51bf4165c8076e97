// Multi-granularity reorder tests: zero-column extraction, col_idx
// bookkeeping, retry eviction, tail splitting, success accounting, and the
// end-to-end invariant that every reordered tile satisfies 2:4.
#include "core/reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

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

ReorderOptions with_block_tile(int bt) {
  ReorderOptions o;
  o.tile.block_tile_m = bt;
  return o;
}

/// Checks the core invariant: in every panel, applying the recorded
/// permutations to the recorded columns yields 2:4-compliant tiles, and
/// col_idx holds each live column exactly once.
void check_reorder_invariants(const DenseMatrix<fp16_t>& a,
                              const ReorderResult& result) {
  const int bt = result.tile.block_tile_m;
  const int slices = result.tile.row_tiles_per_panel();
  ASSERT_EQ(result.panels.size(), (a.rows() + bt - 1) / bt);

  for (std::size_t p = 0; p < result.panels.size(); ++p) {
    const PanelReorder& panel = result.panels[p];

    // col_idx holds distinct, in-range columns; together with
    // zero_columns it covers the whole K dimension.
    std::set<std::uint32_t> seen(panel.col_idx.begin(), panel.col_idx.end());
    EXPECT_EQ(seen.size(), panel.col_idx.size()) << "duplicate col_idx";
    EXPECT_EQ(panel.col_idx.size() + panel.zero_columns, a.cols());
    for (const auto c : panel.col_idx) EXPECT_LT(c, a.cols());

    // Every column in col_idx is genuinely nonzero in the panel, and all
    // skipped columns are genuinely zero.
    const std::size_t row_begin = p * static_cast<std::size_t>(bt);
    const std::size_t row_end =
        std::min(row_begin + static_cast<std::size_t>(bt), a.rows());
    for (std::size_t c = 0; c < a.cols(); ++c) {
      bool any = false;
      for (std::size_t r = row_begin; r < row_end; ++r) {
        any |= !a(r, c).is_zero();
      }
      EXPECT_EQ(any, seen.count(static_cast<std::uint32_t>(c)) > 0)
          << "panel " << p << " column " << c;
    }

    // Tiles partition the live columns in order.
    std::uint32_t next = 0;
    for (const ColumnTileReorder& t : panel.tiles) {
      EXPECT_EQ(t.col_begin, next);
      EXPECT_LE(t.col_count, static_cast<std::uint32_t>(kMmaTile));
      EXPECT_GT(t.col_count, 0u);
      next += t.col_count;
      ASSERT_EQ(t.row_slices.size(), static_cast<std::size_t>(slices));
    }
    EXPECT_EQ(next, panel.col_idx.size());

    // The permuted masks of every slice of every tile satisfy 2:4.
    for (const ColumnTileReorder& t : panel.tiles) {
      for (int s = 0; s < slices; ++s) {
        const std::size_t slice_row =
            row_begin + static_cast<std::size_t>(s) * kMmaTile;
        const auto masks = slice_column_masks(
            a, slice_row,
            std::span<const std::uint32_t>(panel.col_idx.data() + t.col_begin,
                                           t.col_count));
        const auto permuted =
            apply_permutation(masks, t.row_slices[static_cast<std::size_t>(s)]);
        EXPECT_TRUE(tile_satisfies_two_four(permuted))
            << "panel " << p << " tile@" << t.col_begin << " slice " << s;
      }
    }
  }
}

TEST(Reorder, ZeroColumnsAreSkipped) {
  // Columns 3, 5, 6, 9 are all-zero (like Figure 6's example).
  DenseMatrix<fp16_t> a(16, 12);
  for (std::size_t c : {0u, 1u, 2u, 4u, 7u, 8u, 10u, 11u}) {
    a(c % 16, c) = fp16_t(1.0f);
  }
  const auto result = multi_granularity_reorder(a, with_block_tile(16));
  ASSERT_EQ(result.panels.size(), 1u);
  EXPECT_EQ(result.panels[0].zero_columns, 4u);
  const std::vector<std::uint32_t> expected{0, 1, 2, 4, 7, 8, 10, 11};
  EXPECT_EQ(result.panels[0].col_idx, expected);
  check_reorder_invariants(a, result);
}

TEST(Reorder, AllZeroMatrixHasNoTiles) {
  DenseMatrix<fp16_t> a(32, 32);
  const auto result = multi_granularity_reorder(a, with_block_tile(32));
  ASSERT_EQ(result.panels.size(), 1u);
  EXPECT_TRUE(result.panels[0].tiles.empty());
  EXPECT_EQ(result.panels[0].zero_columns, 32u);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(result.max_padded_cols(), 0u);
}

TEST(Reorder, DenseMatrixNeedsSplitting) {
  // A fully dense matrix can never satisfy 2:4 without doubling K: the
  // reorder must fall back to splitting and report failure, while still
  // producing a valid (2x wider) layout.
  DenseMatrix<fp16_t> a(16, 32);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = fp16_t(1.0f);
  const auto result = multi_granularity_reorder(a, with_block_tile(16));
  EXPECT_FALSE(result.success());
  EXPECT_TRUE(result.panels[0].used_split_fallback);
  EXPECT_EQ(result.max_padded_cols(), 64u);  // 32 cols / 8 per tile * 16
  check_reorder_invariants(a, result);
}

TEST(Reorder, PanelsAreIndependent) {
  // Two panels with different sparsity structure: the dense panel's
  // splitting must not affect the sparse panel.
  DenseMatrix<fp16_t> a(32, 32);
  for (std::size_t c = 0; c < 32; ++c) a(0, c) = fp16_t(1.0f);  // dense row
  a(16, 0) = fp16_t(1.0f);  // panel 1: single nonzero
  const auto result = multi_granularity_reorder(a, with_block_tile(16));
  ASSERT_EQ(result.panels.size(), 2u);
  EXPECT_EQ(result.panels[1].col_idx.size(), 1u);
  EXPECT_EQ(result.panels[1].tiles.size(), 1u);
  check_reorder_invariants(a, result);
}

TEST(Reorder, RetryEvictsAndRecords) {
  // Nine dense columns at the front cannot share a 16-column tile with
  // live sparse columns (a group holding two dense columns tolerates no
  // other nonzero), so the retry must evict them toward the end, where
  // the all-zero columns 52..63 leave enough virtual-padding slack for a
  // two-dense-per-group tail tile. Success without splitting.
  DenseMatrix<fp16_t> a(16, 64);
  for (std::size_t c = 0; c < 9; ++c) {
    for (std::size_t r = 0; r < 16; ++r) a(r, c) = fp16_t(1.0f);
  }
  for (std::size_t c = 9; c < 52; ++c) a(c % 16, c) = fp16_t(1.0f);
  const auto result = multi_granularity_reorder(a, with_block_tile(16));
  EXPECT_GT(result.total_evictions(), 0u);
  EXPECT_TRUE(result.success());
  EXPECT_FALSE(result.panels[0].used_split_fallback);
  check_reorder_invariants(a, result);
}

TEST(Reorder, SuccessDefinitionHonorsKBound) {
  const auto a = vector_sparse(64, 256, 0.95, 8, 42);
  const auto result = multi_granularity_reorder(a, with_block_tile(64));
  // At 95% sparsity with v=8, most columns vanish per panel: success.
  EXPECT_TRUE(result.success());
  EXPECT_LE(result.max_padded_cols(), 256u);
  EXPECT_GT(result.total_zero_columns(), 0u);
  check_reorder_invariants(a, result);
}

TEST(Reorder, RaggedRowsAndColumns) {
  // M and K not multiples of the tile sizes exercise the clamped edges.
  const auto a = vector_sparse(56, 100, 0.9, 2, 7);  // 56 = 28 v-rows * 2
  for (const int bt : {16, 32, 64}) {
    const auto result = multi_granularity_reorder(a, with_block_tile(bt));
    check_reorder_invariants(a, result);
  }
}

TEST(Reorder, DeterministicAcrossRuns) {
  const auto a = vector_sparse(128, 256, 0.85, 4, 9);
  const auto r1 = multi_granularity_reorder(a, with_block_tile(32));
  const auto r2 = multi_granularity_reorder(a, with_block_tile(32));
  ASSERT_EQ(r1.panels.size(), r2.panels.size());
  for (std::size_t p = 0; p < r1.panels.size(); ++p) {
    EXPECT_EQ(r1.panels[p].col_idx, r2.panels[p].col_idx);
    ASSERT_EQ(r1.panels[p].tiles.size(), r2.panels[p].tiles.size());
    for (std::size_t t = 0; t < r1.panels[p].tiles.size(); ++t) {
      for (std::size_t s = 0; s < r1.panels[p].tiles[t].row_slices.size();
           ++s) {
        EXPECT_EQ(r1.panels[p].tiles[t].row_slices[s].perm,
                  r2.panels[p].tiles[t].row_slices[s].perm);
      }
    }
  }
}

TEST(Reorder, PropertySweepAcrossSparsitiesAndWidths) {
  for (const double s : {0.8, 0.9, 0.98}) {
    for (const std::size_t v : {2u, 4u, 8u}) {
      const auto a = vector_sparse(64, 128, s, v, 17 + v);
      for (const int bt : {16, 64}) {
        const auto result = multi_granularity_reorder(a, with_block_tile(bt));
        check_reorder_invariants(a, result);
      }
    }
  }
}

TEST(Reorder, HigherSparsityNeverWidensWork) {
  // More sparsity -> no more padded columns on average (monotone skip).
  const std::size_t v = 4;
  double prev = 1e18;
  for (const double s : {0.8, 0.9, 0.95, 0.98}) {
    const auto a = vector_sparse(128, 512, s, v, 23);
    const auto result = multi_granularity_reorder(a, with_block_tile(32));
    const double mean = result.mean_padded_cols();
    EXPECT_LE(mean, prev) << "sparsity " << s;
    prev = mean;
  }
}

TEST(Reorder, BlockTile16SkipsMoreThan64) {
  // §4.4: smaller BLOCK_TILE forms more all-zero columns per panel.
  const auto a = vector_sparse(128, 512, 0.95, 8, 31);
  const auto r16 = multi_granularity_reorder(a, with_block_tile(16));
  const auto r64 = multi_granularity_reorder(a, with_block_tile(64));
  EXPECT_LT(r16.mean_padded_cols(), r64.mean_padded_cols());
}

TEST(Reorder, ColumnFilterExcludesColumns) {
  // The hybrid extension's hook: filtered-out columns must be treated as
  // zero columns (not reordered, not stored), per panel.
  const auto a = vector_sparse(64, 128, 0.85, 4, 41);
  const auto result = multi_granularity_reorder(
      a, with_block_tile(32), [](std::size_t panel, std::uint32_t col) {
        return (col + panel) % 2 == 0;  // drop alternating columns, per panel
      });
  for (std::size_t p = 0; p < result.panels.size(); ++p) {
    for (const auto c : result.panels[p].col_idx) {
      EXPECT_EQ((c + p) % 2, 0u) << "panel " << p << " column " << c;
    }
  }
  // Unfiltered reorder keeps strictly more columns.
  const auto full = multi_granularity_reorder(a, with_block_tile(32));
  std::size_t filtered_cols = 0, full_cols = 0;
  for (const auto& panel : result.panels) filtered_cols += panel.col_idx.size();
  for (const auto& panel : full.panels) full_cols += panel.col_idx.size();
  EXPECT_LT(filtered_cols, full_cols);
}

TEST(Reorder, ColumnFilterAllExcludedYieldsEmptyPanels) {
  const auto a = vector_sparse(32, 64, 0.9, 2, 43);
  const auto result = multi_granularity_reorder(
      a, with_block_tile(16), [](std::size_t, std::uint32_t) { return false; });
  for (const auto& panel : result.panels) {
    EXPECT_TRUE(panel.col_idx.empty());
    EXPECT_TRUE(panel.tiles.empty());
  }
}

TEST(Reorder, RejectsEmptyMatrix) {
  DenseMatrix<fp16_t> empty;
  EXPECT_THROW(multi_granularity_reorder(empty, with_block_tile(16)), Error);
}

TEST(Reorder, RejectsBadBlockTile) {
  const auto a = vector_sparse(32, 32, 0.9, 2, 1);
  EXPECT_THROW(multi_granularity_reorder(a, with_block_tile(48)), Error);
}

}  // namespace
}  // namespace jigsaw::core
