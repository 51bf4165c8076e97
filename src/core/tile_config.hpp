// Tiling configuration of the Jigsaw kernel.
//
// Each thread block computes a BLOCK_TILE_M x BLOCK_TILE_N tile of C. The
// sparse LHS is reordered per BLOCK_TILE_M-row panel (zero columns of the
// panel are skipped) and per 16x16 MMA_TILE (column permutation to reach
// 2:4). Four warps split the 64-wide N tile; each warp owns 16 columns of
// C and every row tile of the panel, issuing mma.sp.m16n8k32 ops.
#pragma once

#include <cstddef>

#include "common/error.hpp"
#include "core/format_limits.hpp"

namespace jigsaw::core {

inline constexpr int kMmaTile = 16;       ///< MMA_TILE: 16 x 16 (paper §3.2)
inline constexpr int kMmaM = 16;          ///< mma.sp m
inline constexpr int kMmaN = 8;           ///< mma.sp n
inline constexpr int kMmaK = 32;          ///< mma.sp logical k (two MMA_TILEs)
inline constexpr int kBlockTileN = 64;    ///< C tile width per thread block
inline constexpr int kWarpsPerBlock = 4;  ///< warps split the N dimension
inline constexpr int kWarpTileN = kBlockTileN / kWarpsPerBlock;  // 16
inline constexpr int kThreadsPerBlock = kWarpsPerBlock * 32;

/// Shared-memory padding appended to each row of the B tile: 4 banks
/// (16 bytes = 8 halfs), which staggers consecutive rows across banks so an
/// ldmatrix 8x8 stage covers all 32 banks (§3.4.1).
inline constexpr int kSmemRowPadHalfs = 8;

struct TileConfig {
  int block_tile_m = 64;  ///< BLOCK_TILE: 16, 32 or 64

  int row_tiles_per_panel() const { return block_tile_m / kMmaTile; }

  /// Shared memory per thread block. The per-configuration footprints are
  /// those reported in §4.1 of the paper (21.25 / 24.83 / 27.65 KB for
  /// BLOCK_TILE 16 / 32 / 64): double-buffered B tile + compressed A tile
  /// + metadata + col_idx staging.
  std::size_t smem_bytes() const {
    switch (block_tile_m) {
      case 16:
        return static_cast<std::size_t>(21.25 * 1024.0);
      case 32:
        return static_cast<std::size_t>(24.83 * 1024.0);
      case 64:
        return static_cast<std::size_t>(27.65 * 1024.0);
      default:
        JIGSAW_CHECK_MSG(false, "BLOCK_TILE must be 16, 32 or 64, got "
                                    << block_tile_m);
        return 0;
    }
  }

  void validate() const {
    JIGSAW_CHECK_MSG(block_tile_valid(block_tile_m),
                     "BLOCK_TILE must be 16, 32 or 64, got " << block_tile_m);
  }

  bool operator==(const TileConfig&) const = default;
};

/// Rounds x up to a multiple of m.
constexpr std::size_t round_up(std::size_t x, std::size_t m) {
  return (x + m - 1) / m * m;
}

}  // namespace jigsaw::core
