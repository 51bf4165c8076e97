// Algorithm 1 tests: compatibility predicate, fast paths, permutation
// validity, bank-conflict preference, eviction hints, and a randomized
// property sweep (every returned permutation must make the tile 2:4).
#include "core/mma_tile_reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

namespace jigsaw::core {
namespace {

using Masks = std::array<std::uint16_t, kMmaTile>;

bool is_valid_permutation(const MmaTilePermutation& p) {
  std::array<bool, kMmaTile> seen{};
  for (const auto v : p.perm) {
    if (v >= kMmaTile || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

MmaTileSearchOptions defaults() { return {}; }

TEST(QuadCompatible, CountsPerRow) {
  // Three columns sharing row 0 violate; spread rows comply.
  EXPECT_FALSE(quad_compatible(0x1, 0x1, 0x1, 0x0));
  EXPECT_TRUE(quad_compatible(0x1, 0x1, 0x2, 0x2));
  EXPECT_TRUE(quad_compatible(0x1, 0x2, 0x4, 0x8));
  EXPECT_FALSE(quad_compatible(0xffff, 0xffff, 0xffff, 0x0));
  EXPECT_TRUE(quad_compatible(0xffff, 0xffff, 0x0, 0x0));
  EXPECT_TRUE(quad_compatible(0, 0, 0, 0));
}

TEST(QuadCompatible, ExactlyThreeInOneRowRejected) {
  // Row 5 set in three masks, everything else empty.
  const std::uint16_t m = 1u << 5;
  EXPECT_FALSE(quad_compatible(m, m, m, 0));
  EXPECT_FALSE(quad_compatible(m, m, m, m));
  EXPECT_TRUE(quad_compatible(m, m, 0, 0));
}

TEST(TileSatisfiesTwoFour, AlignedGroups) {
  Masks masks{};
  masks[0] = masks[1] = 0xffff;  // two dense columns in group 0: fine
  EXPECT_TRUE(tile_satisfies_two_four(masks));
  masks[2] = 0x1;  // third nonzero column in group 0 violates row 0
  EXPECT_FALSE(tile_satisfies_two_four(masks));
}

TEST(ReorderMmaTile, IdentityFastPath) {
  Masks masks{};
  masks[0] = 0x00ff;
  masks[1] = 0xff00;
  Rng rng(1);
  const auto res = reorder_mma_tile(masks, 16, defaults(), rng);
  ASSERT_TRUE(res.permutation.has_value());
  EXPECT_TRUE(res.permutation->is_identity);
  EXPECT_TRUE(res.permutation->bank_conflict_free);
}

TEST(ReorderMmaTile, SolvableByPermutation) {
  // Three dense columns at positions 0,1,2 violate group 0; spreading them
  // across groups fixes it. Plenty of empty columns make it solvable.
  Masks masks{};
  masks[0] = masks[1] = masks[2] = 0xffff;
  Rng rng(2);
  const auto res = reorder_mma_tile(masks, 16, defaults(), rng);
  ASSERT_TRUE(res.permutation.has_value());
  ASSERT_TRUE(is_valid_permutation(*res.permutation));
  const auto permuted = apply_permutation(masks, *res.permutation);
  EXPECT_TRUE(tile_satisfies_two_four(permuted));
  EXPECT_FALSE(res.permutation->is_identity);
}

TEST(ReorderMmaTile, UnsolvableNineDenseColumns) {
  // Nine dense columns can never satisfy 2:4 in 16 columns (max 8) — the
  // search must fail and nominate an eviction victim.
  Masks masks{};
  for (int j = 0; j < 9; ++j) masks[static_cast<std::size_t>(j)] = 0xffff;
  Rng rng(3);
  const auto res = reorder_mma_tile(masks, 16, defaults(), rng);
  EXPECT_FALSE(res.permutation.has_value());
  EXPECT_GE(res.evict_position, 0);
  EXPECT_LT(res.evict_position, 16);
}

TEST(ReorderMmaTile, EightDenseColumnsSolvable) {
  // Exactly eight dense columns: the unique solution packs two per group.
  Masks masks{};
  for (int j = 0; j < 8; ++j) masks[static_cast<std::size_t>(j)] = 0xffff;
  Rng rng(4);
  const auto res = reorder_mma_tile(masks, 16, defaults(), rng);
  ASSERT_TRUE(res.permutation.has_value());
  const auto permuted = apply_permutation(masks, *res.permutation);
  EXPECT_TRUE(tile_satisfies_two_four(permuted));
}

TEST(ReorderMmaTile, EvictionHintIsLeastFrequent) {
  // A column that collides with everything (dense) while others are empty
  // appears in fewer compatible quads; with nine dense columns the victim
  // must be one of them.
  Masks masks{};
  for (int j = 0; j < 9; ++j) masks[static_cast<std::size_t>(j)] = 0xffff;
  Rng rng(5);
  const auto res = reorder_mma_tile(masks, 16, defaults(), rng);
  ASSERT_FALSE(res.permutation.has_value());
  EXPECT_LT(res.evict_position, 9);
}

TEST(ReorderMmaTile, RespectsRealColumnsForEviction) {
  Masks masks{};
  for (int j = 0; j < 9; ++j) masks[static_cast<std::size_t>(j)] = 0xffff;
  Rng rng(6);
  const auto res = reorder_mma_tile(masks, 9, defaults(), rng);
  ASSERT_FALSE(res.permutation.has_value());
  EXPECT_LT(res.evict_position, 9);  // never evicts a virtual column
}

TEST(ReorderMmaTile, BankConflictPreference) {
  // Random solvable tiles: with the preference on, the solver should
  // mostly return residue-complete permutations.
  Rng gen(7);
  int conflict_free = 0, total = 0;
  for (int t = 0; t < 50; ++t) {
    Masks masks{};
    for (int j = 0; j < kMmaTile; ++j) {
      // ~3 nonzero rows per column: solvable but usually not identity.
      std::uint16_t m = 0;
      for (int b = 0; b < 3; ++b) {
        m |= static_cast<std::uint16_t>(1u << gen.next_below(16));
      }
      masks[static_cast<std::size_t>(j)] = m;
    }
    Rng rng(100 + static_cast<std::uint64_t>(t));
    const auto res = reorder_mma_tile(masks, 16, defaults(), rng);
    if (!res.permutation) continue;
    ++total;
    conflict_free += res.permutation->bank_conflict_free;
    const auto permuted = apply_permutation(masks, *res.permutation);
    EXPECT_TRUE(tile_satisfies_two_four(permuted));
  }
  ASSERT_GT(total, 30);
  EXPECT_GT(conflict_free, total * 7 / 10);
}

TEST(ReorderMmaTile, PropertyRandomSweep) {
  // Property: whenever the search succeeds, the permutation is a real
  // permutation and the permuted tile satisfies 2:4. Sweep densities.
  Rng gen(8);
  int successes = 0;
  for (int t = 0; t < 200; ++t) {
    const int bits = 1 + static_cast<int>(gen.next_below(6));
    Masks masks{};
    for (int j = 0; j < kMmaTile; ++j) {
      std::uint16_t m = 0;
      for (int b = 0; b < bits; ++b) {
        m |= static_cast<std::uint16_t>(1u << gen.next_below(16));
      }
      masks[static_cast<std::size_t>(j)] = m;
    }
    Rng rng(1000 + static_cast<std::uint64_t>(t));
    const auto res = reorder_mma_tile(masks, 16, defaults(), rng);
    if (res.permutation) {
      ++successes;
      EXPECT_TRUE(is_valid_permutation(*res.permutation));
      EXPECT_TRUE(
          tile_satisfies_two_four(apply_permutation(masks, *res.permutation)));
    } else {
      EXPECT_GE(res.evict_position, 0);
    }
  }
  EXPECT_GT(successes, 50);  // sparse tiles are usually solvable
}

TEST(ReorderMmaTile, NoCoverBeforeThePositionZeroBound) {
  // The lemma behind the search's early return from the pair scan: in
  // enumeration order the first n0 quads hold position 0, and the plain
  // (i < j) scan cannot meet a complement it has already formed before
  // its first pair with i = n0, ordinal n0(n-1) - n0(n0-1)/2 + 1. Walk
  // that scan by brute force over seeded row-blocked tiles that reach it
  // (neither 2:4 as they stand nor with a row over eight nonzeros).
  Rng gen(27);
  int tiles = 0, hits = 0, past_budget = 0;
  std::vector<std::uint8_t> formed(1u << 16);
  MmaTileQuadList quads;
  for (const int v : {1, 2, 4, 8}) {
    for (const int pct : {10, 20, 30, 40, 50}) {
      for (int t = 0; t < 25; ++t) {
        Masks masks{};
        for (auto& m : masks) {
          for (int b = 0; b < kMmaTile / v; ++b) {
            if (static_cast<int>(gen.next_below(100)) < pct) {
              m |= static_cast<std::uint16_t>(((1u << v) - 1) << (b * v));
            }
          }
        }
        bool infeasible = false;
        for (int r = 0; r < kMmaTile; ++r) {
          int row_count = 0;
          for (const auto m : masks) row_count += (m >> r) & 1;
          infeasible |= row_count > 8;
        }
        if (infeasible || tile_satisfies_two_four(masks)) continue;
        ++tiles;

        enumerate_compatible_quads(masks, quads);
        const std::uint64_t n = quads.size();
        std::uint64_t n0 = 0;
        while (n0 < n && quads[n0].pos[0] == 0) ++n0;
        for (std::uint64_t i = n0; i < n; ++i) ASSERT_NE(quads[i].pos[0], 0);
        if (n0 == 0) continue;
        const std::uint64_t bound = n0 * (n - 1) - n0 * (n0 - 1) / 2 + 1;
        past_budget += bound > 150000;  // the search's pair budget

        std::fill(formed.begin(), formed.end(), 0);
        std::uint64_t ord = 0, first_hit = 0;
        for (std::uint64_t i = 0; i < n && first_hit == 0; ++i) {
          for (std::uint64_t j = i + 1; j < n; ++j) {
            ++ord;
            if (quads[i].set & quads[j].set) continue;
            const auto octet =
                static_cast<std::uint16_t>(quads[i].set | quads[j].set);
            if (formed[octet ^ 0xffffu]) {
              first_hit = ord;
              break;
            }
            formed[octet] = 1;
          }
        }
        if (first_hit == 0) continue;
        ++hits;
        EXPECT_GE(first_hit, bound)
            << "v=" << v << " density=" << pct << "% n=" << n << " n0=" << n0;
      }
    }
  }
  EXPECT_GT(tiles, 100);
  EXPECT_GT(hits, 100);
  EXPECT_GT(past_budget, 50);
}

TEST(TwoPerGroupPermutation, AlwaysValidAndSafe) {
  for (int real = 0; real <= 8; ++real) {
    const auto p = two_per_group_permutation(real);
    EXPECT_TRUE(is_valid_permutation(p)) << real;
    EXPECT_TRUE(p.bank_conflict_free);
    // Even fully dense real columns satisfy 2:4 in this layout.
    Masks masks{};
    for (int j = 0; j < real; ++j) masks[static_cast<std::size_t>(j)] = 0xffff;
    EXPECT_TRUE(tile_satisfies_two_four(apply_permutation(masks, p))) << real;
  }
  EXPECT_THROW(two_per_group_permutation(9), Error);
}

TEST(ApplyPermutation, MovesColumns) {
  Masks masks{};
  for (int j = 0; j < kMmaTile; ++j) {
    masks[static_cast<std::size_t>(j)] = static_cast<std::uint16_t>(j + 1);
  }
  MmaTilePermutation p;
  for (int j = 0; j < kMmaTile; ++j) {
    p.perm[static_cast<std::size_t>(j)] =
        static_cast<std::uint8_t>(kMmaTile - 1 - j);
  }
  const auto out = apply_permutation(masks, p);
  for (int j = 0; j < kMmaTile; ++j) {
    EXPECT_EQ(out[static_cast<std::size_t>(j)], kMmaTile - j);
  }
}

}  // namespace
}  // namespace jigsaw::core
