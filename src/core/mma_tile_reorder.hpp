// MMA_TILE-granularity column reorder (Algorithm 1 of the paper).
//
// Input: one 16-row x 16-column tile of the sparse operand, described by a
// 16-bit nonzero row mask per column position (virtual padding columns have
// an empty mask). Output: a column permutation such that every aligned
// group of four permuted columns has at most two nonzeros per row — the 2:4
// pattern the sparse tensor core requires — or failure plus the eviction
// hint used by the reorder-retry of §3.2.
//
// The search follows the paper's bidirectional scheme: enumerate all
// "compatible column groups" of four columns, combine disjoint pairs into
// eight-column groups, and look for two disjoint eight-column groups that
// cover the tile. Two engineering additions keep the cost bounded without
// changing outcomes: an identity fast path (most tiles at high sparsity
// already comply), and randomized greedy cover attempts that find a
// solution quickly when compatible groups are plentiful (the exhaustive
// search still runs when greedy fails). Among valid solutions, schemes
// whose eight-column groups span all eight shared-memory bank residues are
// preferred, implementing the conflict-aware selection of §3.4.1.
//
// Every search that gets past the two fast paths enumerates its quads
// afresh into thread-local scratch. The enumeration is a pruned loop over
// 16-bit row masks, cheaper than any lookup that would replay a stored
// list; only the greedy and pair phases consume the rng.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/tile_config.hpp"

namespace jigsaw::core {

/// Column permutation of one 16x16 MMA_TILE for one 16-row slice.
/// perm[j] is the pre-reorder position of the column placed at position j.
struct MmaTilePermutation {
  std::array<std::uint8_t, kMmaTile> perm{};
  bool is_identity = false;
  /// True when each 8-column half of the permutation covers all eight bank
  /// residues (mod 8) among real columns, so ldmatrix stages are
  /// conflict-free in the padded shared-memory layout.
  bool bank_conflict_free = false;
};

/// Tuning knob of the tile search: prefer bank-conflict-free schemes
/// (§3.4.1). The search budgets are fixed constants in the .cpp.
struct MmaTileSearchOptions {
  bool bank_conflict_aware = true;

  bool operator==(const MmaTileSearchOptions&) const = default;
};

/// Outcome of one tile search.
struct MmaTileSearchResult {
  std::optional<MmaTilePermutation> permutation;
  /// On failure: the position (0..15) of the column that appears least
  /// frequently in all compatible four-column groups — the reorder-retry
  /// eviction candidate of §3.2.
  int evict_position = -1;
  /// Number of compatible four-column groups found (diagnostic).
  std::uint32_t compatible_quads = 0;
  /// True when the failure is structural: some row carries more than eight
  /// nonzeros across the 16 columns, so no permutation of this window can
  /// comply (at most two per aligned group times four groups).
  bool infeasible_row = false;
};

/// One compatible column group of four tile positions. `pos` holds the four
/// positions ascending; `set` is the same information as a bitmask.
struct MmaTileQuad {
  std::uint16_t set = 0;
  std::array<std::uint8_t, 4> pos{};
};

/// Compatible quads of one tile, in enumeration order (ascending
/// lexicographic (i,j,k,w) position tuples).
using MmaTileQuadList = std::vector<MmaTileQuad>;

/// Aggregate counters of the search phases (filled by reorder_mma_tile
/// when a stats sink is provided; all counters are cumulative adds).
struct MmaTileSearchStats {
  std::uint64_t searches = 0;
  std::uint64_t identity_hits = 0;
  std::uint64_t infeasible_rows = 0;
  std::uint64_t fresh_enumerations = 0;
  std::uint64_t quads_enumerated = 0;
  std::uint64_t greedy_attempts = 0;
  std::uint64_t pair_iterations = 0;
};

/// Checks whether four column masks form a compatible column group: no row
/// with three or more nonzeros across the four columns.
bool quad_compatible(std::uint16_t a, std::uint16_t b, std::uint16_t c,
                     std::uint16_t d);

/// Enumerates every compatible four-column group of the tile in ascending
/// lexicographic position order. Clears `out` first.
void enumerate_compatible_quads(std::span<const std::uint16_t> col_masks,
                                MmaTileQuadList& out);

/// Runs Algorithm 1 on one slice. `col_masks` holds exactly 16 entries
/// (bit r = nonzero in row r); virtual padding columns must be 0.
/// `real_columns` is the number of leading entries that are real (used by
/// the bank-conflict preference and the eviction hint). Phase counters are
/// added to `*stats` when it is given.
MmaTileSearchResult reorder_mma_tile(std::span<const std::uint16_t> col_masks,
                                     int real_columns,
                                     const MmaTileSearchOptions& options,
                                     Rng& rng,
                                     MmaTileSearchStats* stats = nullptr);

/// Builds the guaranteed-success permutation that places at most two real
/// columns in each four-column group (used by the tail-splitting fallback;
/// requires real_columns <= 8). Any two columns per group satisfy 2:4
/// regardless of content.
MmaTilePermutation two_per_group_permutation(int real_columns);

/// Applies a permutation: permuted_masks[j] = col_masks[perm[j]].
/// Exposed for tests and for the format builder.
std::array<std::uint16_t, kMmaTile> apply_permutation(
    std::span<const std::uint16_t> col_masks, const MmaTilePermutation& p);

/// True when the aligned four-column groups of `masks` all satisfy 2:4.
bool tile_satisfies_two_four(std::span<const std::uint16_t> masks);

}  // namespace jigsaw::core
