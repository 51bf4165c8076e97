#include "core/format.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace jigsaw::core {

namespace {

constexpr std::size_t kPermEntries = kMmaTile;  // 16 per (slice, tile)
constexpr std::size_t kValuesPerPair =
    static_cast<std::size_t>(sptc::kTileRows) * sptc::kTileCompressedCols;
constexpr std::size_t kMetaWordsPerPair = sptc::kTileRows;

/// Appends `n` value-initialized entries to `v` and returns where they
/// start.
template <typename T>
T* grow(std::vector<T>& v, std::size_t n) {
  const std::size_t old = v.size();
  v.resize(old + n);
  return v.data() + old;
}

}  // namespace

void JigsawFormat::append_panel(const DenseMatrix<fp16_t>& a,
                                const PanelReorder& panel, std::size_t p) {
  const int slices = row_slices_per_panel();
  const std::size_t bt = static_cast<std::size_t>(tile_.block_tile_m);

  PanelHeader header;
  header.col_idx_offset = static_cast<std::uint32_t>(col_idx_.size());
  header.col_count = static_cast<std::uint32_t>(panel.col_idx.size());
  header.tile_offset = static_cast<std::uint32_t>(tiles_.size());
  header.tile_count = static_cast<std::uint32_t>(panel.tiles.size());
  col_idx_.insert(col_idx_.end(), panel.col_idx.begin(), panel.col_idx.end());
  for (const ColumnTileReorder& t : panel.tiles) {
    tiles_.push_back(TileHeader{t.col_begin, t.col_count});
  }
  panels_.push_back(header);

  const std::uint32_t pairs = header.mma_pairs();
  const std::size_t slice_pairs = static_cast<std::size_t>(slices) * pairs;
  std::uint32_t* bci = grow(block_col_idx_, static_cast<std::size_t>(slices) *
                                                header.tile_count *
                                                kPermEntries);
  fp16_t* values = grow(values_, slice_pairs * kValuesPerPair);
  const std::size_t meta_base = metadata_.size();
  std::uint32_t* meta = grow(metadata_, slice_pairs * kMetaWordsPerPair);

  // block_col_idx_array: slice-major, tile-minor, 16 entries each. The
  // paper stores these as 4-byte integers (§4.6); we match.
  for (int s = 0; s < slices; ++s) {
    for (const ColumnTileReorder& t : panel.tiles) {
      const MmaTilePermutation& perm =
          t.row_slices[static_cast<std::size_t>(s)];
      bci = std::copy(perm.perm.begin(), perm.perm.end(), bci);
    }
  }

  // Compressed values + metadata per (slice, mma pair).
  const std::size_t cols = a.cols();
  for (int s = 0; s < slices; ++s) {
    const std::size_t slice_row =
        p * bt + static_cast<std::size_t>(s) * kMmaTile;
    const std::size_t rows =
        slice_row < a.rows()
            ? std::min<std::size_t>(sptc::kTileRows, a.rows() - slice_row)
            : 0;
    for (std::uint32_t pair = 0; pair < pairs; ++pair) {
      // The source column of each logical column of the 16x32 tile, in
      // post-reorder order. A zero-pad tile or a virtual padding position
      // has none and stays +0.
      std::array<std::uint8_t, sptc::kTileLogicalCols> dst;
      std::array<std::uint32_t, sptc::kTileLogicalCols> src;
      int present = 0;
      for (int l = 0; l < sptc::kTileLogicalCols; ++l) {
        const std::uint32_t tile_in_panel =
            2 * pair + static_cast<std::uint32_t>(l / kMmaTile);
        if (tile_in_panel >= header.tile_count) break;
        const ColumnTileReorder& t =
            panel.tiles[static_cast<std::size_t>(tile_in_panel)];
        const std::uint32_t pos =
            t.row_slices[static_cast<std::size_t>(s)]
                .perm[static_cast<std::size_t>(l % kMmaTile)];
        if (pos >= t.col_count) continue;
        dst[static_cast<std::size_t>(present)] = static_cast<std::uint8_t>(l);
        src[static_cast<std::size_t>(present)] =
            panel.col_idx[t.col_begin + pos];
        ++present;
      }
      // Gather the tile row by row from A's rows; rows past a.rows() stay
      // zero.
      std::array<fp16_t, sptc::kTileRows * sptc::kTileLogicalCols> logical{};
      for (std::size_t r = 0; r < rows; ++r) {
        const fp16_t* a_row = a.data() + (slice_row + r) * cols;
        fp16_t* tile_row = logical.data() + r * sptc::kTileLogicalCols;
        for (int k = 0; k < present; ++k) {
          tile_row[dst[static_cast<std::size_t>(k)]] =
              a_row[src[static_cast<std::size_t>(k)]];
        }
      }
      sptc::CompressedTile compressed;
      const bool ok = sptc::compress_tile(
          ConstSpan2d<fp16_t>(logical.data(), sptc::kTileRows,
                              sptc::kTileLogicalCols, sptc::kTileLogicalCols),
          compressed);
      JIGSAW_CHECK_MSG(ok,
                       "reordered tile violates 2:4 — reorder bug (panel "
                           << p << ", slice " << s << ", pair " << pair
                           << ", planner failure=" << to_string(panel.failure)
                           << (panel.rescued ? ", rescued" : "") << ")");
      // Z-shaped swizzle: the two 16x8 halves of the compressed tile are
      // stored contiguously, row-major within each half.
      for (int blk = 0; blk < 2; ++blk) {
        for (int r = 0; r < sptc::kTileRows; ++r) {
          values = std::copy_n(
              compressed.values.begin() + r * sptc::kTileCompressedCols +
                  blk * 8,
              8, values);
        }
      }
      meta = std::copy(compressed.metadata.begin(), compressed.metadata.end(),
                       meta);
    }
  }

  // Re-arrange this panel's metadata into the interleaved two-mma layout
  // (§3.4.3): each aligned group of two pairs becomes 32 lane-indexed
  // words. An orphan final pair keeps the naive layout. The pass is local
  // to (panel, slice, pair group), so doing it per appended panel is
  // bit-identical to a whole-format pass.
  if (layout_ == MetadataLayout::kInterleaved) {
    for (int s = 0; s < slices; ++s) {
      for (std::uint32_t g = 0; g + 1 < pairs; g += 2) {
        const std::size_t i0 =
            meta_base + (static_cast<std::size_t>(s) * pairs + g) *
                            kMetaWordsPerPair;
        std::array<std::uint32_t, 16> m0{}, m1{};
        std::copy_n(metadata_.begin() + static_cast<std::ptrdiff_t>(i0), 16,
                    m0.begin());
        std::copy_n(metadata_.begin() + static_cast<std::ptrdiff_t>(i0 + 16),
                    16, m1.begin());
        const auto interleaved = sptc::interleave_metadata(m0, m1);
        std::copy(interleaved.begin(), interleaved.end(),
                  metadata_.begin() + static_cast<std::ptrdiff_t>(i0));
      }
    }
  }
}

JigsawFormat JigsawFormat::build(const DenseMatrix<fp16_t>& a,
                                 const ReorderResult& reorder,
                                 MetadataLayout layout) {
  JIGSAW_TRACE_SCOPE("format", "format.build");
  const auto t_start = std::chrono::steady_clock::now();
  JIGSAW_CHECK_MSG(a.rows() == reorder.rows && a.cols() == reorder.cols,
                   "reorder result does not match the matrix shape");
  JigsawFormat f;
  f.rows_ = a.rows();
  f.cols_ = a.cols();
  f.tile_ = reorder.tile;
  f.layout_ = layout;

  // The plan fixes every array's length, so each is sized once.
  std::size_t tiles = 0, cols = 0, pairs = 0;
  for (const PanelReorder& panel : reorder.panels) {
    tiles += panel.tiles.size();
    cols += panel.col_idx.size();
    pairs += (panel.tiles.size() + 1) / 2;
  }
  const auto slices = static_cast<std::size_t>(f.row_slices_per_panel());
  f.panels_.reserve(reorder.panels.size());
  f.tiles_.reserve(tiles);
  f.col_idx_.reserve(cols);
  f.block_col_idx_.reserve(tiles * slices * kPermEntries);
  f.values_.reserve(pairs * slices * kValuesPerPair);
  f.metadata_.reserve(pairs * slices * kMetaWordsPerPair);

  for (std::size_t p = 0; p < reorder.panels.size(); ++p) {
    f.append_panel(a, reorder.panels[p], p);
  }

  if (obs::metrics_enabled()) {
    const Footprint fp = f.memory_footprint();
    obs::add("format.builds");
    obs::add("format.bytes_total", static_cast<double>(fp.total()));
    obs::add("format.value_bytes", static_cast<double>(fp.values));
    obs::add("format.metadata_bytes", static_cast<double>(fp.metadata));
    obs::add("format.index_bytes",
             static_cast<double>(fp.col_idx + fp.block_col_idx + fp.headers));
    obs::observe("format.build_seconds",
                 std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t_start)
                     .count());
  }
  return f;
}

JigsawFormat JigsawFormat::rebuild_panels(
    const DenseMatrix<fp16_t>& a, const ReorderResult& reorder,
    std::span<const std::size_t> dirty) const {
  JIGSAW_TRACE_SCOPE("format", "format.rebuild_panels");
  const auto t_start = std::chrono::steady_clock::now();
  JIGSAW_CHECK_MSG(a.rows() == rows_ && a.cols() == cols_,
                   "mutated matrix does not match the format shape");
  JIGSAW_CHECK_MSG(a.rows() == reorder.rows && a.cols() == reorder.cols,
                   "reorder result does not match the matrix shape");
  JIGSAW_CHECK_MSG(reorder.tile.block_tile_m == tile_.block_tile_m,
                   "reorder BLOCK_TILE differs from the format being spliced");
  JIGSAW_CHECK_MSG(reorder.panels.size() == panels_.size(),
                   "reorder panel count differs from the format being spliced");

  std::vector<bool> is_dirty(panels_.size(), false);
  for (const std::size_t p : dirty) {
    JIGSAW_CHECK_MSG(p < panels_.size(), "dirty panel index out of range");
    is_dirty[p] = true;
  }

  JigsawFormat f;
  f.rows_ = rows_;
  f.cols_ = cols_;
  f.tile_ = tile_;
  f.layout_ = layout_;
  // A splice keeps most panels, so the successor is about this size.
  f.panels_.reserve(panels_.size());
  f.tiles_.reserve(tiles_.size());
  f.col_idx_.reserve(col_idx_.size());
  f.block_col_idx_.reserve(block_col_idx_.size());
  f.values_.reserve(values_.size());
  f.metadata_.reserve(metadata_.size());

  // Running cursors into this (old) format's flat arrays: clean panels'
  // segments are copied verbatim, dirty panels' old segments are skipped
  // and rebuilt from the mutated matrix. Segment sizes derive from the old
  // headers, so the walk is exact even when a dirty panel's tile count
  // changed.
  const auto slices = static_cast<std::size_t>(row_slices_per_panel());
  std::size_t old_col = 0;
  std::size_t old_tile = 0;
  std::size_t old_bci = 0;
  std::size_t old_val = 0;
  std::size_t old_meta = 0;
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    const PanelHeader& oh = panels_[p];
    const std::size_t n_col = oh.col_count;
    const std::size_t n_tile = oh.tile_count;
    const std::size_t n_bci =
        static_cast<std::size_t>(oh.tile_count) * slices * kPermEntries;
    const std::size_t n_val =
        static_cast<std::size_t>(oh.mma_pairs()) * slices * kValuesPerPair;
    const std::size_t n_meta =
        static_cast<std::size_t>(oh.mma_pairs()) * slices * kMetaWordsPerPair;

    if (is_dirty[p]) {
      f.append_panel(a, reorder.panels[p], p);
    } else {
      PanelHeader nh;
      nh.col_idx_offset = static_cast<std::uint32_t>(f.col_idx_.size());
      nh.col_count = oh.col_count;
      nh.tile_offset = static_cast<std::uint32_t>(f.tiles_.size());
      nh.tile_count = oh.tile_count;
      f.panels_.push_back(nh);
      const auto off = [](std::size_t v) {
        return static_cast<std::ptrdiff_t>(v);
      };
      f.col_idx_.insert(f.col_idx_.end(), col_idx_.begin() + off(old_col),
                        col_idx_.begin() + off(old_col + n_col));
      f.tiles_.insert(f.tiles_.end(), tiles_.begin() + off(old_tile),
                      tiles_.begin() + off(old_tile + n_tile));
      f.block_col_idx_.insert(f.block_col_idx_.end(),
                              block_col_idx_.begin() + off(old_bci),
                              block_col_idx_.begin() + off(old_bci + n_bci));
      f.values_.insert(f.values_.end(), values_.begin() + off(old_val),
                       values_.begin() + off(old_val + n_val));
      f.metadata_.insert(f.metadata_.end(), metadata_.begin() + off(old_meta),
                         metadata_.begin() + off(old_meta + n_meta));
    }

    old_col += n_col;
    old_tile += n_tile;
    old_bci += n_bci;
    old_val += n_val;
    old_meta += n_meta;
  }

  if (obs::metrics_enabled()) {
    obs::add("format.panel_rebuilds", static_cast<double>(dirty.size()));
    obs::observe("format.rebuild_seconds",
                 std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t_start)
                     .count());
  }
  return f;
}

std::int64_t JigsawFormat::original_column(std::uint32_t panel,
                                           std::uint32_t tile_in_panel,
                                           std::uint32_t pos) const {
  const PanelHeader& ph = panels_[panel];
  JIGSAW_ASSERT(tile_in_panel < ph.tile_count);
  const TileHeader& th = tiles_[ph.tile_offset + tile_in_panel];
  if (pos >= th.col_count) return -1;
  return col_idx_[ph.col_idx_offset + th.col_begin + pos];
}

void JigsawFormat::skip_panel(std::uint32_t panel, PanelBases& bases) const {
  const auto slices = static_cast<std::size_t>(row_slices_per_panel());
  const std::size_t pairs = panels_[panel].mma_pairs();
  bases.values += pairs * slices * kValuesPerPair;
  bases.metadata += pairs * slices * kMetaWordsPerPair;
  bases.block_col_idx +=
      static_cast<std::size_t>(panels_[panel].tile_count) * slices *
      kPermEntries;
}

JigsawFormat::PanelBases JigsawFormat::bases_of(std::uint32_t panel) const {
  PanelBases bases;
  for (std::uint32_t p = 0; p < panel; ++p) skip_panel(p, bases);
  return bases;
}

void JigsawFormat::panel_bases(std::span<PanelBases> out) const {
  JIGSAW_ASSERT(out.size() == panels_.size());
  PanelBases next;
  for (std::uint32_t p = 0; p < panels_.size(); ++p) {
    out[p] = next;
    skip_panel(p, next);
  }
}

std::uint32_t JigsawFormat::block_col_idx(std::uint32_t panel,
                                          std::uint32_t slice,
                                          std::uint32_t tile_in_panel,
                                          std::uint32_t pos) const {
  const PanelHeader& ph = panels_[panel];
  JIGSAW_ASSERT(tile_in_panel < ph.tile_count && pos < kPermEntries);
  return block_col_idx_[bases_of(panel).block_col_idx +
                        (static_cast<std::size_t>(slice) * ph.tile_count +
                         tile_in_panel) *
                            kPermEntries +
                        pos];
}

std::uint32_t JigsawFormat::pair_metadata_word(const std::uint32_t* slice_meta,
                                               MetadataLayout layout,
                                               std::uint32_t pairs,
                                               std::uint32_t pair, int r) {
  if (layout == MetadataLayout::kNaive || (pair == pairs - 1 && pairs % 2)) {
    return slice_meta[pair * kMetaWordsPerPair + static_cast<std::size_t>(r)];
  }
  const int lane = sptc::metadata_owner_lane(r, static_cast<int>(pair & 1u));
  return slice_meta[(pair & ~1u) * kMetaWordsPerPair +
                    static_cast<std::size_t>(lane)];
}

sptc::CompressedTile JigsawFormat::load_compressed_tile(
    std::uint32_t panel, std::uint32_t slice, std::uint32_t pair) const {
  sptc::CompressedTile tile;
  const PanelBases bases = bases_of(panel);
  const std::uint32_t pairs = panels_[panel].mma_pairs();
  JIGSAW_ASSERT(pair < pairs);
  // Undo the Z-swizzle: the two 16x8 halves are stored one after the
  // other, row-major within each half.
  std::size_t src =
      bases.values +
      (static_cast<std::size_t>(slice) * pairs + pair) * kValuesPerPair;
  for (int blk = 0; blk < 2; ++blk) {
    for (int r = 0; r < sptc::kTileRows; ++r) {
      for (int c = 0; c < 8; ++c) {
        tile.values[static_cast<std::size_t>(r * sptc::kTileCompressedCols +
                                             blk * 8 + c)] = values_[src++];
      }
    }
  }
  const std::uint32_t* slice_meta =
      metadata_.data() + bases.metadata +
      static_cast<std::size_t>(slice) * pairs * kMetaWordsPerPair;
  for (int r = 0; r < sptc::kTileRows; ++r) {
    tile.metadata[static_cast<std::size_t>(r)] =
        pair_metadata_word(slice_meta, layout_, pairs, pair, r);
  }
  return tile;
}

void JigsawFormat::decode_nonzero_slots(std::uint32_t panel,
                                        std::uint32_t slice,
                                        std::uint32_t pair,
                                        const PanelBases& bases,
                                        NonzeroSlots& out) const {
  const PanelHeader& ph = panels_[panel];
  const std::uint32_t pairs = ph.mma_pairs();
  JIGSAW_ASSERT(pair < pairs);
  const auto zero_row = static_cast<std::uint32_t>(cols_);

  // B row of each of the pair's 32 logical columns: position -> pre-reorder
  // position (block_col_idx) -> original column (col_idx). Virtual
  // positions, and the missing second tile of an odd pair, hit the zero
  // row.
  std::array<std::uint32_t, sptc::kTileLogicalCols> b_row_of;
  for (std::uint32_t half = 0; half < 2; ++half) {
    std::uint32_t* dst = b_row_of.data() + half * kPermEntries;
    const std::uint32_t t = 2 * pair + half;
    if (t >= ph.tile_count) {
      std::fill_n(dst, kPermEntries, zero_row);
      continue;
    }
    const TileHeader& th = tiles_[ph.tile_offset + t];
    const std::uint32_t* perm =
        block_col_idx_.data() + bases.block_col_idx +
        (static_cast<std::size_t>(slice) * ph.tile_count + t) * kPermEntries;
    const std::uint32_t* columns =
        col_idx_.data() + ph.col_idx_offset + th.col_begin;
    for (std::size_t l = 0; l < kPermEntries; ++l) {
      dst[l] = perm[l] < th.col_count ? columns[perm[l]] : zero_row;
    }
  }

  // Z-swizzled values: row r's compressed columns 0-7 sit in the first
  // 16x8 half, 8-15 in the second.
  const fp16_t* tile_values =
      values_.data() + bases.values +
      (static_cast<std::size_t>(slice) * pairs + pair) * kValuesPerPair;
  const std::uint32_t* slice_meta =
      metadata_.data() + bases.metadata +
      static_cast<std::size_t>(slice) * pairs * kMetaWordsPerPair;
  constexpr std::size_t kHalf = kValuesPerPair / 2;
  // Bit i of the result: half i of the four at `h` is not ±0. Adding
  // 0x7fff to a lane's magnitude carries into its bit 15 exactly when the
  // magnitude is nonzero (never into the next lane), and the multiply
  // gathers bits 0, 16, 32 and 48 of the shifted word into bits 48-51.
  static_assert(std::endian::native == std::endian::little);
  const auto nonzero4 = [](const fp16_t* h) {
    std::uint64_t w;
    std::memcpy(&w, h, sizeof(w));
    w = ((w & 0x7fff7fff7fff7fffull) + 0x7fff7fff7fff7fffull) &
        0x8000800080008000ull;
    return static_cast<std::uint32_t>(((w >> 15) * 0x0001000200040008ull) >>
                                      48);
  };
  std::uint16_t n = 0;
  for (int r = 0; r < sptc::kTileRows; ++r) {
    out.row_begin[static_cast<std::size_t>(r)] = n;
    const fp16_t* row = tile_values + static_cast<std::size_t>(r) * 8;
    // Bit cc: slot cc is not ±0.
    std::uint32_t mask = nonzero4(row) | nonzero4(row + 4) << 4 |
                         nonzero4(row + kHalf) << 8 |
                         nonzero4(row + kHalf + 4) << 12;
    if (mask == 0) continue;
    const std::uint32_t word =
        pair_metadata_word(slice_meta, layout_, pairs, pair, r);
    // Ascending compressed column: the per-element term order of mma.sp.
    for (; mask != 0; mask &= mask - 1) {
      const auto cc = static_cast<std::uint32_t>(std::countr_zero(mask));
      const std::uint32_t logical = 4 * (cc / 2) + ((word >> (2 * cc)) & 3u);
      out.value[n] = static_cast<float>(row[(cc / 8) * kHalf + cc % 8]);
      out.b_row[n] = b_row_of[logical];
      ++n;
    }
  }
  out.row_begin[sptc::kTileRows] = n;
}

JigsawFormat::Footprint JigsawFormat::memory_footprint() const {
  Footprint fp;
  fp.values = values_.size() * sizeof(fp16_t);
  fp.metadata = metadata_.size() * sizeof(std::uint32_t);
  fp.col_idx = col_idx_.size() * sizeof(std::uint32_t);
  fp.block_col_idx = block_col_idx_.size() * sizeof(std::uint32_t);
  fp.headers = panels_.size() * sizeof(PanelHeader) +
               tiles_.size() * sizeof(TileHeader);
  return fp;
}

double JigsawFormat::paper_formula_bytes(std::size_t m, std::size_t k,
                                         int block_tile) {
  const double mk = static_cast<double>(m) * static_cast<double>(k);
  return 5.0 * mk / 8.0 + 4.0 * mk / block_tile + 4.0 * mk / kMmaTile;
}

}  // namespace jigsaw::core
