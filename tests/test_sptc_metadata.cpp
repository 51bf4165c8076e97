// SpTC metadata tests: compression/decompression round trips, metadata
// bit layout, thread ownership maps, and the interleaved two-MMA layout.
#include "sptc/metadata.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <utility>

#include "common/rng.hpp"
#include "matrix/dense.hpp"
#include "sptc/shapes.hpp"

namespace jigsaw::sptc {
namespace {

/// Builds a random 16x32 tile with exactly `per_group` nonzeros per group.
DenseMatrix<fp16_t> random_structured_tile(int per_group, std::uint64_t seed) {
  DenseMatrix<fp16_t> tile(kTileRows, kTileLogicalCols);
  Rng rng(seed);
  for (int r = 0; r < kTileRows; ++r) {
    for (int g = 0; g < kGroupsPerRow; ++g) {
      const auto picks = rng.sample_without_replacement(
          4, static_cast<std::uint32_t>(per_group));
      for (const auto p : picks) {
        tile(static_cast<std::size_t>(r), static_cast<std::size_t>(4 * g + p)) =
            fp16_t(rng.uniform(0.5f, 2.0f));
      }
    }
  }
  return tile;
}

TEST(Metadata, CompressRoundTripFull24) {
  const auto tile = random_structured_tile(2, 11);
  CompressedTile ct;
  ASSERT_TRUE(compress_tile(tile.view(), ct));
  DenseMatrix<fp16_t> back(kTileRows, kTileLogicalCols);
  decompress_tile(ct, back.view());
  EXPECT_EQ(back, tile);
}

TEST(Metadata, CompressRoundTripSparserThan24) {
  for (const int per_group : {0, 1}) {
    const auto tile = random_structured_tile(per_group, 13 + per_group);
    CompressedTile ct;
    ASSERT_TRUE(compress_tile(tile.view(), ct));
    DenseMatrix<fp16_t> back(kTileRows, kTileLogicalCols);
    decompress_tile(ct, back.view());
    EXPECT_EQ(back, tile) << "per_group=" << per_group;
  }
}

TEST(Metadata, RejectsViolatingTile) {
  auto tile = random_structured_tile(2, 17);
  // Make the first group of row 0 hold three nonzeros.
  for (int j = 0; j < 3; ++j) tile(0, static_cast<std::size_t>(j)) = fp16_t(1.0f);
  tile(0, 3) = fp16_t{};
  CompressedTile ct;
  EXPECT_FALSE(compress_tile(tile.view(), ct));
}

TEST(Metadata, IndicesStrictlyIncreasingPerGroup) {
  const auto tile = random_structured_tile(2, 19);
  CompressedTile ct;
  ASSERT_TRUE(compress_tile(tile.view(), ct));
  for (int r = 0; r < kTileRows; ++r) {
    for (int g = 0; g < kGroupsPerRow; ++g) {
      EXPECT_LT(ct.index(r, 2 * g), ct.index(r, 2 * g + 1))
          << "row " << r << " group " << g;
    }
  }
}

TEST(Metadata, MetadataBitPacking) {
  // Hand-build a tile whose row 0 keeps positions (0,3) in group 0 and
  // (1,2) in group 1 — the exact example of Figure 3.
  DenseMatrix<fp16_t> tile(kTileRows, kTileLogicalCols);
  tile(0, 0) = fp16_t(1.0f);
  tile(0, 3) = fp16_t(2.0f);
  tile(0, 5) = fp16_t(3.0f);
  tile(0, 6) = fp16_t(4.0f);
  CompressedTile ct;
  ASSERT_TRUE(compress_tile(tile.view(), ct));
  // Group 0 indices (0,3) -> bits 0b1100; group 1 indices (1,2) -> 0b1001.
  EXPECT_EQ(ct.metadata[0] & 0xfu, 0b1100u);
  EXPECT_EQ((ct.metadata[0] >> 4) & 0xfu, 0b1001u);
  EXPECT_EQ(static_cast<float>(ct.value(0, 0)), 1.0f);
  EXPECT_EQ(static_cast<float>(ct.value(0, 1)), 2.0f);
  EXPECT_EQ(static_cast<float>(ct.value(0, 2)), 3.0f);
  EXPECT_EQ(static_cast<float>(ct.value(0, 3)), 4.0f);
  EXPECT_EQ(ct.logical_col(0, 1), 3);
  EXPECT_EQ(ct.logical_col(0, 2), 5);
}

TEST(Metadata, CompressFollowsTheGroupRuleOnEveryPattern) {
  // The documented rule, per 4-group: the kept indices are the nonzeros
  // ascending, padded with the lowest unused indices; the kept values,
  // ±0 padding slots included, are copied bit for bit; three or more
  // nonzeros reject the tile. Every nonzero pattern, with +0 and -0.
  for (const std::uint16_t zero_bits : {0x0000, 0x8000}) {
    const fp16_t zero = fp16_t::from_bits(zero_bits);
    for (unsigned pattern = 0; pattern < 16; ++pattern) {
      SCOPED_TRACE(::testing::Message() << "pattern " << pattern << " zero 0x"
                                        << std::hex << zero_bits);
      const auto value_at = [&](std::size_t r, std::size_t c) {
        return (pattern >> (c % 4)) & 1u
                   ? fp16_t(1.0f + static_cast<float>(r * 32 + c) / 1024.0f)
                   : zero;
      };
      DenseMatrix<fp16_t> tile(kTileRows, kTileLogicalCols);
      for (std::size_t r = 0; r < kTileRows; ++r) {
        for (std::size_t c = 0; c < kTileLogicalCols; ++c) {
          tile(r, c) = value_at(r, c);
        }
      }
      CompressedTile ct;
      if (std::popcount(pattern) > 2) {
        EXPECT_FALSE(compress_tile(tile.view(), ct));
        // One such group among all-zero ones rejects the tile too.
        DenseMatrix<fp16_t> lone(kTileRows, kTileLogicalCols);
        for (std::size_t c = 20; c < 24; ++c) lone(7, c) = value_at(7, c);
        EXPECT_FALSE(compress_tile(lone.view(), ct));
        continue;
      }
      int kept[2] = {0, 0};
      int n = 0;
      for (int j = 0; j < 4; ++j) {
        if ((pattern >> j) & 1u) kept[n++] = j;
      }
      for (int j = 0; n < 2; ++j) {
        if (!((pattern >> j) & 1u)) kept[n++] = j;
      }
      if (kept[0] > kept[1]) std::swap(kept[0], kept[1]);

      ASSERT_TRUE(compress_tile(tile.view(), ct));
      for (int r = 0; r < kTileRows; ++r) {
        for (int g = 0; g < kGroupsPerRow; ++g) {
          for (int slot = 0; slot < 2; ++slot) {
            const int c = 2 * g + slot;
            EXPECT_EQ(ct.index(r, c), kept[slot]);
            EXPECT_EQ(ct.value(r, c).bits(),
                      tile(static_cast<std::size_t>(r),
                           static_cast<std::size_t>(4 * g + kept[slot]))
                          .bits());
          }
        }
      }
    }
  }
}

TEST(Metadata, CompressedSizeMatchesPaper) {
  // §3.4.3: m16n8k32 metadata = 16x16 2-bit indices = 16 uint32 words.
  CompressedTile ct;
  EXPECT_EQ(ct.metadata.size(), 16u);
  EXPECT_EQ(ct.values.size(), 16u * 16u);
}

TEST(MetadataThreads, F0LanesMatchFigure9) {
  // With F=0, lanes 0,1,4,5,...,28,29 supply metadata.
  for (int lane = 0; lane < 32; ++lane) {
    const bool expected = (lane % 4) < 2;
    EXPECT_EQ(lane_supplies_metadata(lane, 0), expected) << lane;
    EXPECT_EQ(lane_supplies_metadata(lane, 1), !expected) << lane;
  }
}

TEST(MetadataThreads, OwnerMapRoundTrip) {
  for (int f = 0; f < 2; ++f) {
    bool word_seen[16] = {};
    for (int w = 0; w < 16; ++w) {
      const int lane = metadata_owner_lane(w, f);
      ASSERT_GE(lane, 0);
      ASSERT_LT(lane, 32);
      EXPECT_TRUE(lane_supplies_metadata(lane, f));
      EXPECT_EQ(lane_metadata_word(lane, f), w);
      EXPECT_FALSE(word_seen[w]);
      word_seen[w] = true;
    }
  }
}

TEST(MetadataThreads, EveryLaneServesExactlyOneSlot) {
  // In the interleaved layout all 32 lanes are used, half per selector.
  int tile_count[2] = {0, 0};
  bool seen[2][16] = {};
  for (int i = 0; i < 32; ++i) {
    const auto slot = interleaved_slot(i);
    ASSERT_GE(slot.word, 0);
    ASSERT_LT(slot.word, 16);
    EXPECT_FALSE(seen[slot.tile][slot.word]);
    seen[slot.tile][slot.word] = true;
    ++tile_count[slot.tile];
  }
  EXPECT_EQ(tile_count[0], 16);
  EXPECT_EQ(tile_count[1], 16);
}

TEST(MetadataThreads, InterleaveRoundTrip) {
  std::array<std::uint32_t, 16> m0{}, m1{};
  for (int i = 0; i < 16; ++i) {
    m0[static_cast<std::size_t>(i)] = 0x1000u + static_cast<std::uint32_t>(i);
    m1[static_cast<std::size_t>(i)] = 0x2000u + static_cast<std::uint32_t>(i);
  }
  const auto inter = interleave_metadata(m0, m1);
  for (int w = 0; w < 16; ++w) {
    EXPECT_EQ(inter[static_cast<std::size_t>(metadata_owner_lane(w, 0))],
              m0[static_cast<std::size_t>(w)]);
    EXPECT_EQ(inter[static_cast<std::size_t>(metadata_owner_lane(w, 1))],
              m1[static_cast<std::size_t>(w)]);
  }
}

TEST(Shapes, Table1) {
  EXPECT_TRUE(is_supported(Precision::kFp16, MmaShape{16, 8, 32}));
  EXPECT_TRUE(is_supported(Precision::kFp16, MmaShape{16, 8, 16}));
  EXPECT_FALSE(is_supported(Precision::kFp16, MmaShape{16, 8, 64}));
  EXPECT_TRUE(is_supported(Precision::kTf32, MmaShape{16, 8, 8}));
  EXPECT_TRUE(is_supported(Precision::kS8, MmaShape{16, 8, 64}));
  EXPECT_TRUE(is_supported(Precision::kU4, MmaShape{16, 8, 128}));
  EXPECT_FALSE(is_supported(Precision::kU4, MmaShape{16, 8, 32}));
  EXPECT_EQ(kJigsawMma.macs(), 16u * 8u * 32u);
}

}  // namespace
}  // namespace jigsaw::sptc
