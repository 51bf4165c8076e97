#include "sptc/metadata.hpp"

#include <bit>
#include <utility>

#include "common/error.hpp"

namespace jigsaw::sptc {

namespace {

/// Marks a group mask with three or more nonzeros in kGroupRule.
constexpr std::uint8_t kViolates = 0xff;

/// Group rule, indexed by a 4-group's nonzero mask (bit j: in-group index
/// j is not ±0): the group's metadata nibble, idx0 | idx1 << 2, or
/// kViolates. The kept indices are the nonzeros ascending, padded with the
/// lowest unused indices, so idx0 < idx1 always holds.
constexpr std::array<std::uint8_t, 16> kGroupRule = [] {
  std::array<std::uint8_t, 16> rule{};
  for (unsigned mask = 0; mask < 16; ++mask) {
    if (std::popcount(mask) > 2) {
      rule[mask] = kViolates;
      continue;
    }
    int idx[2] = {0, 0};
    int kept = 0;
    for (int j = 0; j < 4; ++j) {
      if (mask & (1u << j)) idx[kept++] = j;
    }
    for (int j = 0; kept < 2; ++j) {
      if (!(mask & (1u << j))) idx[kept++] = j;
    }
    if (idx[0] > idx[1]) std::swap(idx[0], idx[1]);
    rule[mask] = static_cast<std::uint8_t>(idx[0] | idx[1] << 2);
  }
  return rule;
}();

}  // namespace

bool compress_tile(ConstSpan2d<fp16_t> logical, CompressedTile& out) {
  JIGSAW_CHECK(logical.rows() == kTileRows &&
               logical.cols() == kTileLogicalCols);
  for (int r = 0; r < kTileRows; ++r) {
    const fp16_t* row = logical.row(static_cast<std::size_t>(r));
    fp16_t* values = out.values.data() + r * kTileCompressedCols;
    std::uint32_t meta = 0;
    for (int g = 0; g < kGroupsPerRow; ++g) {
      const fp16_t* group = row + 4 * g;
      const unsigned mask = (group[0].is_zero() ? 0u : 1u) |
                            (group[1].is_zero() ? 0u : 2u) |
                            (group[2].is_zero() ? 0u : 4u) |
                            (group[3].is_zero() ? 0u : 8u);
      const std::uint8_t rule = kGroupRule[mask];
      if (rule == kViolates) return false;
      // The padded slots copy their ±0 as they are, so the MAC result is
      // unaffected.
      values[2 * g] = group[rule & 3u];
      values[2 * g + 1] = group[rule >> 2];
      meta |= static_cast<std::uint32_t>(rule) << (4 * g);
    }
    out.metadata[static_cast<std::size_t>(r)] = meta;
  }
  return true;
}

void decompress_tile(const CompressedTile& in, Span2d<fp16_t> logical) {
  JIGSAW_CHECK(logical.rows() == kTileRows &&
               logical.cols() == kTileLogicalCols);
  for (int r = 0; r < kTileRows; ++r) {
    for (int c = 0; c < kTileLogicalCols; ++c) logical(r, c) = fp16_t{};
    for (int c = 0; c < kTileCompressedCols; ++c) {
      logical(r, in.logical_col(r, c)) = in.value(r, c);
    }
  }
}

std::array<std::uint32_t, 32> interleave_metadata(
    const std::array<std::uint32_t, 16>& mma0,
    const std::array<std::uint32_t, 16>& mma1) {
  std::array<std::uint32_t, 32> out{};
  for (int i = 0; i < 32; ++i) {
    const InterleavedSlot slot = interleaved_slot(i);
    out[i] = (slot.tile == 0 ? mma0 : mma1)[slot.word];
  }
  return out;
}

}  // namespace jigsaw::sptc
