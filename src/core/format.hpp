// Reorder-aware storage format (§3.3 of the paper).
//
// Three index levels plus the compressed payload:
//   * col_idx_array        — per BLOCK_TILE panel, the original column ids
//                            of the surviving (nonzero) columns in final
//                            post-retry order.
//   * block_col_idx_array  — per (panel, 16-row slice, column tile), the
//                            16-entry permutation mapping each post-reorder
//                            position to its pre-reorder position.
//   * sptc metadata        — the 2-bit in-group indices consumed by
//                            mma.sp, 16 uint32 per 16x32 logical tile,
//                            stored either naively (one mma after another)
//                            or in the two-mma interleaved layout of
//                            §3.4.3.
// The compressed values are stored per 16x32 logical tile as two 16x8
// blocks in a Z-shaped swizzle, mirroring the fragment-friendly layout the
// paper describes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "core/reorder.hpp"
#include "sptc/metadata.hpp"

namespace jigsaw::testing {
class FormatSurgeon;  // test-only fault injection (src/testing)
}

namespace jigsaw::core {

/// Per-tile metadata layout selection (§3.4.3).
enum class MetadataLayout : std::uint8_t {
  kNaive,        ///< 16 words per mma, consecutive; half-warp loads + branch
  kInterleaved,  ///< 32 words per two mmas, one lane-indexed ldmatrix load
};

class serialize_detail;

/// Compressed, reordered sparse operand ready for the Jigsaw kernel.
class JigsawFormat {
 public:
  struct PanelHeader {
    std::uint32_t col_idx_offset = 0;  ///< into col_idx_array()
    std::uint32_t col_count = 0;       ///< live columns in this panel
    std::uint32_t tile_offset = 0;     ///< into tile headers
    std::uint32_t tile_count = 0;      ///< 16-column tiles (padded)
    std::uint32_t mma_pairs() const { return (tile_count + 1) / 2; }
  };

  struct TileHeader {
    std::uint32_t col_begin = 0;  ///< into the panel's col_idx segment
    std::uint32_t col_count = 0;  ///< real columns (<= 16)
  };

  /// Builds the format from a reordered matrix. The reorder result must
  /// have been produced from the same matrix.
  static JigsawFormat build(const DenseMatrix<fp16_t>& a,
                            const ReorderResult& reorder,
                            MetadataLayout layout = MetadataLayout::kInterleaved);

  /// Splices a successor format out of this one: panels listed in `dirty`
  /// are rebuilt from `a` + `reorder` (both describing the mutated
  /// matrix), every other panel's array segments are copied verbatim.
  /// Provided the clean panels' rows and plan are unchanged, the result is
  /// bit-identical to build(a, reorder, metadata_layout()) at a fraction
  /// of the cost — the panel-scoped path behind Engine::update.
  [[nodiscard]] JigsawFormat rebuild_panels(
      const DenseMatrix<fp16_t>& a, const ReorderResult& reorder,
      std::span<const std::size_t> dirty) const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const TileConfig& tile_config() const { return tile_; }
  MetadataLayout metadata_layout() const { return layout_; }
  int row_slices_per_panel() const { return tile_.row_tiles_per_panel(); }

  const std::vector<PanelHeader>& panels() const { return panels_; }
  const std::vector<TileHeader>& tiles() const { return tiles_; }
  const std::vector<std::uint32_t>& col_idx_array() const { return col_idx_; }
  const std::vector<std::uint32_t>& block_col_idx_array() const {
    return block_col_idx_;
  }
  const std::vector<fp16_t>& values() const { return values_; }
  const std::vector<std::uint32_t>& metadata() const { return metadata_; }

  /// Original column id at post-reorder position `pos` of `tile` in
  /// `panel`, or -1 when the position is virtual padding.
  std::int64_t original_column(std::uint32_t panel, std::uint32_t tile_in_panel,
                               std::uint32_t pos) const;

  /// Permutation entry: pre-reorder position of the column at post-reorder
  /// position `pos` of (panel, slice, tile).
  std::uint32_t block_col_idx(std::uint32_t panel, std::uint32_t slice,
                              std::uint32_t tile_in_panel,
                              std::uint32_t pos) const;

  /// Flat-array bases of one panel's segments. The plain accessors walk
  /// the panel headers on every call (O(panel)); the execute hot path
  /// computes the bases once per panel and uses the O(1) overloads below.
  struct PanelBases {
    std::size_t values = 0;         ///< into values()
    std::size_t metadata = 0;       ///< into metadata()
    std::size_t block_col_idx = 0;  ///< into block_col_idx_array()
  };
  PanelBases panel_bases(std::uint32_t panel) const;  ///< O(panel) walk

  /// O(1) variant of block_col_idx given the panel's precomputed bases.
  std::uint32_t block_col_idx(std::uint32_t panel, std::uint32_t slice,
                              std::uint32_t tile_in_panel, std::uint32_t pos,
                              const PanelBases& bases) const;

  /// Reconstructs the compressed tile (values + metadata) for one
  /// (panel, 16-row slice, mma pair) — exactly what a warp's fragment
  /// registers would hold before issuing mma.sp.
  sptc::CompressedTile load_compressed_tile(std::uint32_t panel,
                                            std::uint32_t slice,
                                            std::uint32_t pair) const;

  /// O(1) variant given the panel's precomputed bases (see PanelBases).
  sptc::CompressedTile load_compressed_tile(std::uint32_t panel,
                                            std::uint32_t slice,
                                            std::uint32_t pair,
                                            const PanelBases& bases) const;

  /// Measured footprint of every component, in bytes.
  struct Footprint {
    std::size_t values = 0;
    std::size_t metadata = 0;
    std::size_t col_idx = 0;
    std::size_t block_col_idx = 0;
    std::size_t headers = 0;
    std::size_t total() const {
      return values + metadata + col_idx + block_col_idx + headers;
    }
  };
  Footprint memory_footprint() const;

  /// Deep cross-array invariant check, the gate of the checked execution
  /// tier (docs/ROBUSTNESS.md). Verifies everything an accessor or the
  /// kernel would otherwise trust: header/shape consistency, contiguous
  /// panel offsets, tile coverage, col_idx_array bounds and per-panel
  /// uniqueness, per-(slice, tile) block_col_idx bijectivity over 0..15,
  /// payload/metadata array sizes implied by the headers, and 2-bit sptc
  /// metadata words whose per-group indices are strictly increasing (the
  /// ≤2-per-4-group hardware encoding), de-interleaving the §3.4.3 layout
  /// first. Returns kInvalidFormat (with detail) on the first violation.
  [[nodiscard]] Status validate() const;

  /// The paper's §4.6 closed-form estimate, 5MK/8 + 4MK/BLOCK_TILE +
  /// 4MK/MMA_TILE bytes, returned alongside the dense baseline (2MK) so
  /// callers can reproduce the quoted 56.25% / 50% / 46.87% ratios. Note
  /// the formula's value term (MK/2 bytes) undercounts fp16 storage by 2x;
  /// see EXPERIMENTS.md.
  static double paper_formula_bytes(std::size_t m, std::size_t k,
                                    int block_tile);

  // Flat-array strides, exposed for the kernel's cost walk.
  std::size_t values_per_pair() const {
    return static_cast<std::size_t>(sptc::kTileRows) *
           sptc::kTileCompressedCols;
  }
  std::size_t metadata_words_per_pair() const { return sptc::kTileRows; }

 private:
  friend class serialize_detail;            // v1/v2 codec (serialize.cpp)
  friend class ::jigsaw::testing::FormatSurgeon;  // fault injection

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  TileConfig tile_{};
  MetadataLayout layout_ = MetadataLayout::kInterleaved;

  std::vector<PanelHeader> panels_;
  std::vector<TileHeader> tiles_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<std::uint32_t> block_col_idx_;  // 16 per (panel,slice,tile)
  std::vector<fp16_t> values_;                // Z-swizzled 16x8 blocks
  std::vector<std::uint32_t> metadata_;       // naive or interleaved

  std::size_t pair_value_offset(std::uint32_t panel, std::uint32_t slice,
                                std::uint32_t pair) const;
  std::size_t pair_metadata_index(std::uint32_t panel, std::uint32_t slice,
                                  std::uint32_t pair) const;

  /// Appends one panel's header, indices, compressed values, and metadata
  /// (interleaving the metadata in place under kInterleaved). Shared by
  /// build() and rebuild_panels(); panels must be appended in order.
  void append_panel(const DenseMatrix<fp16_t>& a, const PanelReorder& panel,
                    std::size_t p);
};

}  // namespace jigsaw::core
