// JigsawFormat::validate(): the deep invariant checker of the checked
// execution tier. Every rule here mirrors an assumption some accessor or
// the kernel makes implicitly; a format that passes cannot make
// load_compressed_tile, block_col_idx or jigsaw_compute read out of
// bounds or feed mma.sp an illegal metadata encoding. Each check is one
// sweep over the arrays it reads, so validate() is linear in the format's
// size.
#include <sstream>
#include <vector>

#include "core/format.hpp"
#include "core/format_limits.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace jigsaw::core {

namespace {

Status invalid(const std::ostringstream& os) {
  return Status(StatusCode::kInvalidFormat, os.str());
}

#define JIGSAW_VALIDATE(expr, msg_stream)         \
  do {                                            \
    if (!(expr)) {                                \
      std::ostringstream os__;                    \
      os__ << msg_stream;                         \
      return invalid(os__);                       \
    }                                             \
  } while (0)

/// The two 2-bit in-group indices of every 4-wide group must be strictly
/// increasing — the hardware metadata encoding compress_tile emits.
Status check_metadata_word(std::uint32_t word, std::size_t where) {
  for (int group = 0; group < sptc::kGroupsPerRow; ++group) {
    const std::uint32_t lo = (word >> (4 * group)) & 0x3u;
    const std::uint32_t hi = (word >> (4 * group + 2)) & 0x3u;
    JIGSAW_VALIDATE(lo < hi, "metadata word " << where << " group " << group
                                              << " indices not strictly "
                                                 "increasing ("
                                              << lo << ", " << hi
                                              << "): violates the 2-per-4 "
                                                 "group encoding");
  }
  return Status::Ok();
}

/// Fast accept of the metadata check: true when every word satisfies the
/// 2-per-4 group encoding. Per 4-bit group, with lo its low and hi its
/// high 2-bit index, (hi | 4) - lo - 1 = 3 + hi - lo lies in 0..6: it
/// never borrows from the next group, and its bit 2 is set exactly when
/// lo < hi. So the word is valid when all eight bit-2s are set.
bool metadata_words_valid(const std::vector<std::uint32_t>& words) {
  std::uint32_t bad = 0;
  for (const std::uint32_t w : words) {
    const std::uint32_t lo = w & 0x33333333u;
    const std::uint32_t hi = (w >> 2) & 0x33333333u;
    bad |= ~((hi | 0x44444444u) - lo - 0x11111111u) & 0x44444444u;
  }
  return bad == 0;
}

/// Fast accept of the block_col_idx check: true when each 16-entry group
/// of `perm` (whose size is a multiple of 16) holds only entries below 16
/// that together set all 16 bits, that is, a permutation of 0..15.
bool permutations_valid(const std::vector<std::uint32_t>& perm) {
  std::uint32_t bad = 0;
  for (std::size_t g = 0; g < perm.size(); g += kMmaTile) {
    std::uint32_t any = 0, mask = 0;
    for (std::size_t j = 0; j < kMmaTile; ++j) {
      any |= perm[g + j];
      mask |= 1u << (perm[g + j] & 15u);
    }
    bad |= (any & ~15u) | (mask ^ 0xFFFFu);
  }
  return bad == 0;
}

}  // namespace

Status JigsawFormat::validate() const {
  JIGSAW_TRACE_SCOPE("format", "format.validate");
  static obs::Histogram& seconds = obs::histogram("format.validate_seconds");
  const obs::ScopedTimer timer(seconds);
  // ---- Shape and configuration.
  JIGSAW_VALIDATE(rows_ > 0 && cols_ > 0,
                  "empty shape " << rows_ << "x" << cols_);
  JIGSAW_VALIDATE(rows_ <= kMaxFormatDimension && cols_ <= kMaxFormatDimension,
                  "shape " << rows_ << "x" << cols_ << " exceeds the "
                           << kMaxFormatDimension
                           << " dimension limit: refused before any "
                              "shape-derived allocation below");
  JIGSAW_VALIDATE(block_tile_valid(tile_.block_tile_m),
                  "BLOCK_TILE must be 16, 32 or 64, got "
                      << tile_.block_tile_m);
  JIGSAW_VALIDATE(layout_ == MetadataLayout::kNaive ||
                      layout_ == MetadataLayout::kInterleaved,
                  "bad metadata layout tag "
                      << static_cast<int>(layout_));

  const std::size_t bt = static_cast<std::size_t>(tile_.block_tile_m);
  const auto slices = static_cast<std::size_t>(row_slices_per_panel());
  JIGSAW_VALIDATE(panels_.size() == (rows_ + bt - 1) / bt,
                  "panel count " << panels_.size()
                                 << " does not match M=" << rows_
                                 << " at BLOCK_TILE " << bt);

  // ---- Panel headers: contiguous offsets, sane counts.
  std::size_t tiles = 0, pairs = 0, cols = 0;
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    const PanelHeader& ph = panels_[p];
    JIGSAW_VALIDATE(ph.col_idx_offset == cols && ph.tile_offset == tiles,
                    "panel " << p << " offsets are not contiguous");
    JIGSAW_VALIDATE(ph.col_count <= cols_,
                    "panel " << p << " col_count " << ph.col_count
                             << " exceeds K=" << cols_);
    cols += ph.col_count;
    tiles += ph.tile_count;
    pairs += ph.mma_pairs();
  }
  JIGSAW_VALIDATE(col_idx_.size() == cols,
                  "col_idx_array holds " << col_idx_.size() << " entries, "
                                         << "headers imply " << cols);
  JIGSAW_VALIDATE(tiles_.size() == tiles,
                  "tile header count " << tiles_.size() << ", headers imply "
                                       << tiles);

  // ---- Tile headers cover each panel's columns exactly once.
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    const PanelHeader& ph = panels_[p];
    std::uint32_t next = 0;
    for (std::uint32_t t = 0; t < ph.tile_count; ++t) {
      const TileHeader& th = tiles_[ph.tile_offset + t];
      JIGSAW_VALIDATE(th.col_begin == next && th.col_count >= 1 &&
                          th.col_count <= kMmaTile,
                      "panel " << p << " tile " << t
                               << " header out of range (begin "
                               << th.col_begin << ", count " << th.col_count
                               << ")");
      next += th.col_count;
    }
    JIGSAW_VALIDATE(next == ph.col_count,
                    "panel " << p << " tiles cover " << next << " of "
                             << ph.col_count << " columns");
  }

  // ---- col_idx_array: in-range original ids, unique within each panel
  // (a duplicate would double-count one B row into two tile slots).
  // jigsaw-lint: allow(bounded-alloc): cols_ was bounded by
  // kMaxFormatDimension before this shape-derived scratch is sized.
  std::vector<std::uint32_t> seen_at(cols_,
                                     static_cast<std::uint32_t>(-1));
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    const PanelHeader& ph = panels_[p];
    for (std::uint32_t i = 0; i < ph.col_count; ++i) {
      const std::uint32_t c = col_idx_[ph.col_idx_offset + i];
      JIGSAW_VALIDATE(c < cols_, "panel " << p << " col_idx entry " << i
                                          << " = " << c
                                          << " out of range (K=" << cols_
                                          << ")");
      JIGSAW_VALIDATE(seen_at[c] != static_cast<std::uint32_t>(p),
                      "panel " << p << " lists column " << c << " twice");
      seen_at[c] = static_cast<std::uint32_t>(p);
    }
  }

  // ---- block_col_idx_array: one 16-entry bijection over 0..15 per
  // (panel, slice, tile). The loop runs only when the branch-free sweep
  // finds a bad group, to report the first one.
  JIGSAW_VALIDATE(block_col_idx_.size() == tiles * slices * kMmaTile,
                  "block_col_idx_array holds "
                      << block_col_idx_.size() << " entries, headers imply "
                      << tiles * slices * kMmaTile);
  if (!permutations_valid(block_col_idx_)) {
    for (std::size_t g = 0; g * kMmaTile < block_col_idx_.size(); ++g) {
      std::uint32_t mask = 0;
      for (int j = 0; j < kMmaTile; ++j) {
        const std::uint32_t pos =
            block_col_idx_[g * kMmaTile + static_cast<std::size_t>(j)];
        JIGSAW_VALIDATE(pos < kMmaTile, "block_col_idx group "
                                            << g << " entry " << j << " = "
                                            << pos << " out of range");
        mask |= 1u << pos;
      }
      JIGSAW_VALIDATE(mask == 0xFFFFu,
                      "block_col_idx group " << g
                                             << " is not a permutation of "
                                                "0..15");
    }
  }

  // ---- Payload and metadata sizes implied by the headers: the values
  // array is the Z-swizzled sequence of 16 x 16 compressed halves (the
  // M x K/2 payload), the metadata one word per compressed row.
  JIGSAW_VALIDATE(values_.size() == pairs * slices * values_per_pair(),
                  "values array holds " << values_.size()
                                        << " halves, headers imply "
                                        << pairs * slices * values_per_pair());
  JIGSAW_VALIDATE(
      metadata_.size() == pairs * slices * metadata_words_per_pair(),
      "metadata array holds " << metadata_.size() << " words, headers imply "
                              << pairs * slices * metadata_words_per_pair());

  // ---- Metadata words: the per-group encoding of every word. The walk
  // below decodes through the same path the kernel uses (undoing the
  // §3.4.3 interleaved layout where it applies) and reports a word by its
  // naive-layout flat index: the panel's base, then (slice, pair, row).
  // The base runs across panels; the size check above keeps every read in
  // bounds. The walk reads every word of metadata_ exactly once (the
  // interleave permutes the 32 words of each aligned pair group), so the
  // branch-free sweep over the flat array checks the same words, and the
  // walk runs only when the sweep finds a bad one, to report the first.
  if (metadata_words_valid(metadata_)) return Status::Ok();
  const std::size_t words_per_pair = metadata_words_per_pair();
  std::size_t panel_base = 0;
  for (const PanelHeader& ph : panels_) {
    const std::uint32_t panel_pairs = ph.mma_pairs();
    for (std::size_t s = 0; s < slices; ++s) {
      const std::size_t slice_base =
          panel_base + s * panel_pairs * words_per_pair;
      for (std::uint32_t pair = 0; pair < panel_pairs; ++pair) {
        for (int r = 0; r < sptc::kTileRows; ++r) {
          const std::uint32_t word = pair_metadata_word(
              metadata_.data() + slice_base, layout_, panel_pairs, pair, r);
          JIGSAW_RETURN_IF_ERROR(check_metadata_word(
              word, slice_base + pair * words_per_pair +
                        static_cast<std::size_t>(r)));
        }
      }
    }
    panel_base += slices * panel_pairs * words_per_pair;
  }
  return Status::Ok();
}

#undef JIGSAW_VALIDATE

}  // namespace jigsaw::core
