// Multi-granularity sparsity reorder (§3.2 of the paper).
//
// The sparse LHS is processed in BLOCK_TILE-row panels. Within each panel:
//   1. BLOCK_TILE granularity: all-zero columns are moved to the end and
//      skipped; the surviving original column ids form col_idx_array.
//   2. MMA_TILE granularity: each run of 16 surviving columns is reordered
//      per 16-row slice (Algorithm 1) so every aligned group of four
//      columns satisfies 2:4. When a tile cannot be reordered, the
//      reorder-retry evicts the least-compatible column to the end of the
//      panel and tries again; a guaranteed two-columns-per-group splitting
//      handles the tail so preprocessing always terminates with a valid
//      (possibly wider-than-K) layout.
//
// A matrix "reorders successfully" in the paper's §4.3 sense when no panel
// grew beyond the original (16-aligned) column count and no severe retry
// (tail splitting) was needed.
//
// Planner fast path: per-panel column bitmasks are extracted once from a
// CSR pass (instead of rescanning the dense array per window and retry),
// and every tile search enumerates its quads from those masks. Nothing is
// memoized across tile searches or plans; for a fixed seed the plans are
// bit-identical to the pre-fast-path planner's.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/fp16.hpp"
#include "core/mma_tile_reorder.hpp"
#include "core/tile_config.hpp"
#include "matrix/dense.hpp"

namespace jigsaw::core {

struct ReorderOptions {
  TileConfig tile{};                 ///< BLOCK_TILE selection
  MmaTileSearchOptions search{};     ///< Algorithm 1 knobs
  int eviction_limit_per_tile = 64;  ///< retries before tail splitting
  std::uint64_t seed = 0x517cc1b727220a95ull;  ///< greedy-shuffle seed

  /// When a panel's layout grows past the original K, re-plan it up to
  /// this many times from deterministically shuffled live-column orders
  /// and keep the first order that fits (panels that planned fine are
  /// never touched, so successful plans stay bit-identical). 0 disables.
  int rescue_attempts = 6;
  /// Cap on planning worker threads (0 = the OpenMP default). Plans are
  /// identical for every thread count; the cap exists for tests and for
  /// embedding the planner in already-parallel callers.
  int max_threads = 0;

  bool operator==(const ReorderOptions&) const = default;
};

/// Per-phase planning counters and timings, aggregated over all panels
/// (seconds are summed across workers, i.e. CPU-time-like).
struct PlanStats {
  std::uint64_t panels_planned = 0;
  std::uint64_t mask_words_built = 0;     ///< per-column slice masks extracted
  std::uint64_t tile_searches = 0;        ///< Algorithm 1 invocations
  std::uint64_t identity_tiles = 0;       ///< identity fast-path hits
  std::uint64_t infeasible_rows = 0;      ///< row-overload early-outs
  std::uint64_t fresh_enumerations = 0;   ///< C(16,4) quad enumerations
  std::uint64_t quads_enumerated = 0;     ///< quads those enumerations found
  std::uint64_t greedy_attempts = 0;      ///< randomized exact-cover tries
  std::uint64_t pair_iterations = 0;      ///< bidirectional-search iterations
  std::uint64_t evictions = 0;            ///< reorder-retry column moves
  std::uint64_t rescued_panels = 0;       ///< failing panels fixed by rescue
  std::uint64_t rescue_attempts_run = 0;  ///< shuffled re-plans executed
  double mask_seconds = 0.0;    ///< time extracting panel mask tables
  double search_seconds = 0.0;  ///< time in the per-window searches
  double total_seconds = 0.0;   ///< end-to-end wall time of the plan

  /// Accumulates `other` into this (timings add; used per panel).
  void merge(const PlanStats& other);
};

/// Why a panel left the fast SpTC layout (diagnostic; kNone on success).
enum class PanelFailure : std::uint8_t {
  kNone = 0,
  /// Some 16-row slice had a row with > 8 nonzeros in every tried window:
  /// structurally impossible to satisfy 2:4, whatever the permutation.
  kInfeasibleRow,
  /// The per-tile eviction budget ran out before a feasible window formed.
  kRetryExhausted,
  /// The trailing < 16-column window could not be reordered (no eviction
  /// possible there) and fell back to splitting.
  kTailSplit,
};

const char* to_string(PanelFailure f);

/// One reordered column tile of a panel: 16 column slots, the leading
/// `col_count` of which are real columns col_idx[col_begin .. col_begin +
/// col_count); the rest are virtual all-zero padding. Each 16-row slice of
/// the panel has its own permutation.
struct ColumnTileReorder {
  std::uint32_t col_begin = 0;
  std::uint32_t col_count = 0;
  std::vector<MmaTilePermutation> row_slices;  ///< BLOCK_TILE/16 entries
};

/// Reorder outcome for one BLOCK_TILE-row panel.
struct PanelReorder {
  /// Original column ids of the panel's nonzero columns, in final
  /// (post-retry) order — the top-level col_idx_array of the format.
  std::vector<std::uint32_t> col_idx;
  std::vector<ColumnTileReorder> tiles;
  std::uint32_t zero_columns = 0;  ///< all-zero columns skipped
  std::uint32_t evictions = 0;     ///< reorder-retry column moves
  bool used_split_fallback = false;
  /// First failure cause observed while planning this panel (kNone when
  /// the panel reordered cleanly or was rescued).
  PanelFailure failure = PanelFailure::kNone;
  /// True when the panel initially grew past the original K but a
  /// shuffled re-plan (ReorderOptions::rescue_attempts) fixed it.
  bool rescued = false;

  /// Columns after padding every tile to 16 — the panel's effective K.
  std::uint32_t padded_cols() const {
    return static_cast<std::uint32_t>(tiles.size()) * kMmaTile;
  }
};

/// Whole-matrix reorder outcome.
struct ReorderResult {
  TileConfig tile{};
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<PanelReorder> panels;
  PlanStats stats;

  /// §4.3 success: every panel kept K no bigger than the (16-aligned)
  /// original and no tail splitting was required.
  bool success() const;
  std::uint32_t max_padded_cols() const;
  double mean_padded_cols() const;
  std::uint64_t total_evictions() const;
  std::uint64_t total_zero_columns() const;
  /// Fraction of MMA-tile slices solved by the identity fast path.
  double identity_fraction() const;
  /// Fraction of slices whose permutation is bank-conflict-free.
  double conflict_free_fraction() const;
  /// Panels whose final layout exceeds the 16-aligned original K.
  std::uint64_t failed_panels() const;
  /// Panels whose recorded failure cause is `f` (kNone counts successes).
  std::uint64_t failure_count(PanelFailure f) const;
};

/// Per-panel column filter: only columns for which filter(panel, column)
/// is true participate in the reorder; the rest are treated like zero
/// columns. The hybrid extension (§4.7) and the checked tier's degradation
/// step use it to route columns to other compute units.
using ColumnFilter =
    std::function<bool(std::size_t panel, std::uint32_t column)>;

/// Runs the multi-granularity sparsity reorder. Rows are processed in
/// BLOCK_TILE panels (the final panel may be shorter; it is handled as a
/// zero-padded full panel). Deterministic for a fixed seed and independent
/// of the thread count. Panels are processed in parallel. An empty
/// `column_filter` keeps every column.
ReorderResult multi_granularity_reorder(const DenseMatrix<fp16_t>& a,
                                        const ReorderOptions& options = {},
                                        const ColumnFilter& column_filter = {});

/// Re-plans only `panels` (indices into result.panels) of an existing plan
/// of a same-shaped matrix whose content has since changed inside those
/// panels' rows. Per-panel RNG seeds derive from the true panel index, so
/// the spliced result is bit-identical to a from-scratch
/// multi_granularity_reorder(a, options) — provided every panel whose rows
/// changed is listed and `options` matches the original plan's options.
/// Stats of the re-planned panels are merged into result.stats (timings
/// accumulate across generations; the fingerprint ignores stats). A
/// `column_filter` applies to the re-planned panels only, so re-planning
/// exactly the panels it changes reproduces
/// multi_granularity_reorder(a, options, column_filter).
void reorder_panels(const DenseMatrix<fp16_t>& a,
                    const ReorderOptions& options,
                    std::span<const std::size_t> panels,
                    ReorderResult& result,
                    const ColumnFilter& column_filter = {});

/// Extracts the nonzero row-mask of each of the 16 columns of a tile for
/// one 16-row slice. Exposed for tests.
std::array<std::uint16_t, kMmaTile> slice_column_masks(
    const DenseMatrix<fp16_t>& a, std::size_t row_begin,
    std::span<const std::uint32_t> columns);

/// Order-sensitive FNV-1a fingerprint of the plan content: shape, tile
/// config, per-panel col_idx / eviction / split bookkeeping, and every
/// slice permutation. Diagnostic fields (stats, failure reasons, rescue
/// flags) are excluded, so the fingerprint is comparable across planner
/// generations; the equivalence tests pin plans against golden values
/// captured from the pre-fast-path planner.
std::uint64_t plan_fingerprint(const ReorderResult& r);

}  // namespace jigsaw::core
