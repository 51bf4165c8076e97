// Reorder-aware storage format tests: index hierarchy consistency,
// compressed payload round trip, metadata layouts, and memory accounting
// (§3.3, §4.6).
#include "core/format.hpp"

#include <gtest/gtest.h>

#include <string>

#include "matrix/vector_sparse.hpp"
#include "testing/fault_injection.hpp"

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

JigsawFormat build(const DenseMatrix<fp16_t>& a, int bt,
                   MetadataLayout layout = MetadataLayout::kInterleaved) {
  ReorderOptions o;
  o.tile.block_tile_m = bt;
  return JigsawFormat::build(a, multi_granularity_reorder(a, o), layout);
}

/// Reconstructs the full dense matrix from the format: decompress every
/// (panel, slice, pair) tile and scatter values back through the index
/// hierarchy. Any mis-stored value, index, or metadata bit breaks this.
DenseMatrix<fp16_t> reconstruct(const JigsawFormat& f) {
  DenseMatrix<fp16_t> out(f.rows(), f.cols());
  const int bt = f.tile_config().block_tile_m;
  const int slices = f.row_slices_per_panel();
  for (std::uint32_t p = 0; p < f.panels().size(); ++p) {
    const auto& panel = f.panels()[p];
    for (int s = 0; s < slices; ++s) {
      const std::size_t row0 = static_cast<std::size_t>(p) * bt +
                               static_cast<std::size_t>(s) * kMmaTile;
      if (row0 >= f.rows()) break;
      for (std::uint32_t pair = 0; pair < panel.mma_pairs(); ++pair) {
        const auto ct =
            f.load_compressed_tile(p, static_cast<std::uint32_t>(s), pair);
        DenseMatrix<fp16_t> logical(sptc::kTileRows, sptc::kTileLogicalCols);
        sptc::decompress_tile(ct, logical.view());
        for (int l = 0; l < sptc::kTileLogicalCols; ++l) {
          const std::uint32_t t =
              2 * pair + static_cast<std::uint32_t>(l / kMmaTile);
          if (t >= panel.tile_count) continue;
          const std::uint32_t pos = f.block_col_idx(
              p, static_cast<std::uint32_t>(s), t,
              static_cast<std::uint32_t>(l % kMmaTile));
          const std::int64_t col = f.original_column(p, t, pos);
          for (int r = 0; r < sptc::kTileRows; ++r) {
            const std::size_t row = row0 + static_cast<std::size_t>(r);
            if (row >= f.rows()) break;
            const fp16_t v =
                logical(static_cast<std::size_t>(r), static_cast<std::size_t>(l));
            if (v.is_zero()) continue;
            EXPECT_GE(col, 0) << "value stored in a virtual column";
            if (col < 0) continue;
            out(row, static_cast<std::size_t>(col)) = v;
          }
        }
      }
    }
  }
  return out;
}

TEST(Format, ReconstructsMatrixExactly) {
  for (const int bt : {16, 32, 64}) {
    const auto a = vector_sparse(128, 192, 0.9, 4, 3);
    const auto f = build(a, bt);
    DenseMatrix<fp16_t> back(1, 1);
    {
      SCOPED_TRACE(bt);
      back = reconstruct(f);
    }
    EXPECT_EQ(back, a) << "BLOCK_TILE " << bt;
  }
}

TEST(Format, ReconstructsWithNaiveMetadata) {
  const auto a = vector_sparse(64, 160, 0.85, 2, 5);
  const auto f = build(a, 32, MetadataLayout::kNaive);
  EXPECT_EQ(reconstruct(f), a);
}

TEST(Format, InterleavedAndNaiveAgree) {
  const auto a = vector_sparse(64, 256, 0.9, 4, 7);
  const auto fn = build(a, 64, MetadataLayout::kNaive);
  const auto fi = build(a, 64, MetadataLayout::kInterleaved);
  // Same logical content through different physical metadata layouts.
  for (std::uint32_t p = 0; p < fn.panels().size(); ++p) {
    for (int s = 0; s < fn.row_slices_per_panel(); ++s) {
      for (std::uint32_t pair = 0; pair < fn.panels()[p].mma_pairs(); ++pair) {
        const auto tn =
            fn.load_compressed_tile(p, static_cast<std::uint32_t>(s), pair);
        const auto ti =
            fi.load_compressed_tile(p, static_cast<std::uint32_t>(s), pair);
        EXPECT_EQ(tn.metadata, ti.metadata);
        EXPECT_TRUE(std::equal(tn.values.begin(), tn.values.end(),
                               ti.values.begin()));
      }
    }
  }
  // And the raw word order differs (the interleave actually happened).
  EXPECT_NE(fn.metadata(), fi.metadata());
}

TEST(Format, RaggedEdges) {
  const auto a = vector_sparse(56, 100, 0.85, 2, 11);
  for (const int bt : {16, 32, 64}) {
    const auto f = build(a, bt);
    EXPECT_EQ(reconstruct(f), a) << bt;
  }
}

TEST(Format, HandlesAllZeroMatrix) {
  DenseMatrix<fp16_t> zeros(32, 64);
  const auto f = build(zeros, 32);
  EXPECT_TRUE(f.values().empty());
  EXPECT_EQ(reconstruct(f), zeros);
}

TEST(Format, OriginalColumnVirtualPaddingIsNegative) {
  // A panel with 5 live columns: positions >= 5 of tile 0 are virtual.
  DenseMatrix<fp16_t> a(16, 64);
  for (std::size_t c = 0; c < 5; ++c) a(0, c * 7) = fp16_t(1.0f);
  const auto f = build(a, 16);
  ASSERT_EQ(f.panels().size(), 1u);
  ASSERT_EQ(f.panels()[0].tile_count, 1u);
  EXPECT_GE(f.original_column(0, 0, 0), 0);
  EXPECT_EQ(f.original_column(0, 0, 5), -1);
  EXPECT_EQ(f.original_column(0, 0, 15), -1);
}

TEST(Format, ArraySizesMatchStructure) {
  const auto a = vector_sparse(128, 256, 0.9, 4, 13);
  const auto f = build(a, 32);
  const int slices = f.row_slices_per_panel();
  std::size_t tiles = 0, pairs = 0, live = 0;
  for (const auto& p : f.panels()) {
    tiles += p.tile_count;
    pairs += p.mma_pairs();
    live += p.col_count;
  }
  EXPECT_EQ(f.col_idx_array().size(), live);
  EXPECT_EQ(f.block_col_idx_array().size(),
            tiles * static_cast<std::size_t>(slices) * 16u);
  EXPECT_EQ(f.values().size(),
            pairs * static_cast<std::size_t>(slices) * 256u);
  EXPECT_EQ(f.metadata().size(),
            pairs * static_cast<std::size_t>(slices) * 16u);
}

TEST(Format, MemoryFootprintComponents) {
  const auto a = vector_sparse(128, 256, 0.9, 4, 13);
  const auto f = build(a, 32);
  const auto fp = f.memory_footprint();
  EXPECT_EQ(fp.values, f.values().size() * 2);
  EXPECT_EQ(fp.metadata, f.metadata().size() * 4);
  EXPECT_EQ(fp.col_idx, f.col_idx_array().size() * 4);
  EXPECT_EQ(fp.block_col_idx, f.block_col_idx_array().size() * 4);
  EXPECT_EQ(fp.total(),
            fp.values + fp.metadata + fp.col_idx + fp.block_col_idx +
                fp.headers);
}

TEST(Format, PaperFormulaRatios) {
  // §4.6: total/(2MK) = 56.25%, 50%, 46.87% for BLOCK_TILE 16/32/64.
  const double dense = 2.0 * 1024 * 1024;
  EXPECT_NEAR(JigsawFormat::paper_formula_bytes(1024, 1024, 16) / dense,
              0.5625, 1e-4);
  EXPECT_NEAR(JigsawFormat::paper_formula_bytes(1024, 1024, 32) / dense,
              0.5000, 1e-4);
  EXPECT_NEAR(JigsawFormat::paper_formula_bytes(1024, 1024, 64) / dense,
              0.46875, 1e-4);
}

TEST(Format, CompressionShrinksDenseStorage) {
  // Even measured honestly (fp16 values at full width), the format is far
  // smaller than dense once zero columns are skipped at high sparsity.
  const auto a = vector_sparse(256, 512, 0.95, 8, 17);
  const auto f = build(a, 16);
  const double dense_bytes = 2.0 * 256 * 512;
  EXPECT_LT(static_cast<double>(f.memory_footprint().total()),
            0.6 * dense_bytes);
}

/// Every row holds two of every four consecutive columns, so 2:4 holds in
/// the identity order and each panel keeps all `cols` columns: its pair
/// count is ceil(cols / 32).
DenseMatrix<fp16_t> checkerboard(std::size_t rows, std::size_t cols) {
  DenseMatrix<fp16_t> a(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = r % 2; c < cols; c += 2) a(r, c) = fp16_t(1.5f);
  }
  return a;
}

TEST(FormatValidate, NamesABadMetadataWordInTheLastPanelByItsFlatIndex) {
  // 256 rows at BLOCK_TILE 32 are eight panels of two slices. With 96
  // columns a panel has three pairs, so its last pair is an orphan; with
  // 64 it has two, and the last pair is interleaved with the one before.
  using jigsaw::testing::FormatSurgeon;
  for (const std::size_t cols : {std::size_t{96}, std::size_t{64}}) {
    const DenseMatrix<fp16_t> a = checkerboard(256, cols);
    for (const MetadataLayout layout :
         {MetadataLayout::kNaive, MetadataLayout::kInterleaved}) {
      SCOPED_TRACE("cols " + std::to_string(cols) + ", layout " +
                   std::to_string(static_cast<int>(layout)));
      const FormatSurgeon surgeon(a, 32, layout);
      const JigsawFormat& f = surgeon.format();
      ASSERT_TRUE(f.validate().ok());
      ASSERT_EQ(f.panels().size(), 8u);
      const std::size_t slices = f.row_slices_per_panel();
      const std::size_t words = f.metadata_words_per_pair();
      // The naive-layout flat index of (last panel, last slice, last
      // pair, row r), from the panel headers alone.
      std::size_t panel_base = 0;
      for (std::size_t p = 0; p + 1 < f.panels().size(); ++p) {
        panel_base += f.panels()[p].mma_pairs() * slices * words;
      }
      const std::uint32_t pairs = f.panels().back().mma_pairs();
      ASSERT_EQ(pairs, cols == 96 ? 3u : 2u);
      const std::uint32_t pair = pairs - 1;
      const bool interleaved =
          layout == MetadataLayout::kInterleaved && pairs % 2 == 0;
      const std::size_t slice_base =
          panel_base + (slices - 1) * pairs * words;
      for (const int r : {0, 9, 15}) {
        const std::size_t where =
            slice_base + pair * words + static_cast<std::size_t>(r);
        // Where row r's word of that pair is stored (§3.4.3).
        const std::size_t stored =
            interleaved
                ? slice_base + (pair & ~1u) * words +
                      static_cast<std::size_t>(
                          sptc::metadata_owner_lane(r, pair & 1u))
                : where;
        const Status s = surgeon.with_metadata_word(stored, 0).validate();
        EXPECT_EQ(s.code(), StatusCode::kInvalidFormat);
        EXPECT_NE(s.message().find("metadata word " + std::to_string(where) +
                                   " group 0 "),
                  std::string::npos)
            << "row " << r << ": " << s.message();
      }
    }
  }
}

}  // namespace
}  // namespace jigsaw::core
