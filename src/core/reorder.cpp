#include "core/reorder.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace jigsaw::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-panel column bitmask table: one 16-bit nonzero-row mask per
/// (original column, 16-row slice), extracted once from the panel's rows.
/// Indexed by original column id, so reorder-retry moves never invalidate
/// it — this replaces the dense-array rescans the planner used to do per
/// window attempt.
struct PanelMasks {
  int slices = 1;
  std::vector<std::uint16_t> words;  ///< cols * slices entries

  std::uint16_t mask(std::uint32_t c, int s) const {
    return words[static_cast<std::size_t>(c) * static_cast<std::size_t>(slices) +
                 static_cast<std::size_t>(s)];
  }
};

/// Reads only rows [row_begin, row_end) of `a`. An entry is live when it
/// is not ±0 (fp16_t::is_zero), the predicate the format build and the
/// kernel use too.
void build_panel_masks(const DenseMatrix<fp16_t>& a, std::size_t row_begin,
                       std::size_t row_end, int slices, PanelMasks& pm) {
  // Four entries per 64-bit word; a word whose entries are all ±0 is
  // skipped without testing them one by one.
  constexpr std::size_t kWord = sizeof(std::uint64_t) / sizeof(fp16_t);
  constexpr std::uint64_t kMagnitudeBits = 0x7fff7fff7fff7fffull;
  const std::size_t cols = a.cols();
  const auto stride = static_cast<std::size_t>(slices);
  pm.slices = slices;
  pm.words.assign(cols * stride, 0);
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const std::size_t local_row = r - row_begin;
    const std::uint16_t bit =
        static_cast<std::uint16_t>(1u << (local_row % kMmaTile));
    std::uint16_t* masks = pm.words.data() + local_row / kMmaTile;
    const fp16_t* row = a.data() + r * cols;
    std::size_t c = 0;
    for (; c + kWord <= cols; c += kWord) {
      std::uint64_t w;
      std::memcpy(&w, row + c, sizeof w);
      if ((w & kMagnitudeBits) == 0) continue;
      // Adding 0x7fff to a lane's magnitude carries into the lane's bit 15
      // exactly when the entry is not ±0, so the four ORs need no branch.
      const std::uint64_t live =
          ((w & kMagnitudeBits) + kMagnitudeBits) & ~kMagnitudeBits;
      for (std::size_t j = 0; j < kWord; ++j) {
        const auto on = static_cast<std::uint16_t>((live >> (16 * j + 15)) & 1);
        masks[(c + j) * stride] |= static_cast<std::uint16_t>(bit * on);
      }
    }
    for (; c < cols; ++c) {
      if (!row[c].is_zero()) masks[c * stride] |= bit;
    }
  }
}

void fold_search_stats(PlanStats& stats, const MmaTileSearchStats& s) {
  stats.tile_searches += s.searches;
  stats.identity_tiles += s.identity_hits;
  stats.infeasible_rows += s.infeasible_rows;
  stats.fresh_enumerations += s.fresh_enumerations;
  stats.quads_enumerated += s.quads_enumerated;
  stats.greedy_attempts += s.greedy_attempts;
  stats.pair_iterations += s.pair_iterations;
}

/// Plans one panel over an explicit initial column order. Bit-identical to
/// the pre-fast-path planner for the ascending live order: the rng stream,
/// eviction decisions, and emitted permutations are byte-for-byte the same.
PanelReorder plan_panel(const PanelMasks& pm, std::size_t total_cols,
                        std::vector<std::uint32_t> order, int row_slices,
                        const ReorderOptions& options, Rng rng,
                        PlanStats& stats) {
  PanelReorder panel;
  panel.col_idx = std::move(order);
  panel.zero_columns =
      static_cast<std::uint32_t>(total_cols - panel.col_idx.size());

  MmaTileSearchStats search_stats;

  std::size_t i = 0;
  while (i < panel.col_idx.size()) {
    std::uint32_t count = static_cast<std::uint32_t>(
        std::min<std::size_t>(kMmaTile, panel.col_idx.size() - i));
    int evictions_this_tile = 0;

    for (;;) {
      // Attempt Algorithm 1 on every 16-row slice of the panel for the
      // current window of columns.
      std::vector<MmaTilePermutation> slices;
      slices.reserve(static_cast<std::size_t>(row_slices));
      int evict_position = -1;
      bool infeasible = false;
      for (int s = 0; s < row_slices; ++s) {
        std::array<std::uint16_t, kMmaTile> masks{};
        for (std::uint32_t j = 0; j < count; ++j) {
          masks[j] = pm.mask(panel.col_idx[i + j], s);
        }
        const MmaTileSearchResult res =
            reorder_mma_tile(masks, static_cast<int>(count), options.search,
                             rng, &search_stats);
        if (!res.permutation) {
          evict_position = res.evict_position;
          infeasible = res.infeasible_row;
          break;
        }
        slices.push_back(*res.permutation);
      }

      if (evict_position < 0) {
        ColumnTileReorder t;
        t.col_begin = static_cast<std::uint32_t>(i);
        t.col_count = count;
        t.row_slices = std::move(slices);
        panel.tiles.push_back(std::move(t));
        i += count;
        break;
      }

      if (panel.col_idx.size() - i > kMmaTile &&
          evictions_this_tile < options.eviction_limit_per_tile) {
        // Reorder-retry (§3.2): move the least-compatible column to the
        // end of the panel; the window pulls in the next column. The
        // rotation is the erase+push_back of the original planner in one
        // pass.
        const std::size_t victim = i + static_cast<std::size_t>(evict_position);
        std::rotate(panel.col_idx.begin() +
                        static_cast<std::ptrdiff_t>(victim),
                    panel.col_idx.begin() +
                        static_cast<std::ptrdiff_t>(victim) + 1,
                    panel.col_idx.end());
        ++panel.evictions;
        ++evictions_this_tile;
        count = static_cast<std::uint32_t>(
            std::min<std::size_t>(kMmaTile, panel.col_idx.size() - i));
        continue;
      }

      // Tail (or retry-exhausted) fallback: place at most two columns per
      // aligned group, which satisfies 2:4 unconditionally. Consumes up to
      // eight columns per tile, so the panel may grow past K/16 tiles —
      // counted as a reorder failure but still a correct layout.
      if (panel.failure == PanelFailure::kNone) {
        panel.failure = infeasible ? PanelFailure::kInfeasibleRow
                        : evictions_this_tile >= options.eviction_limit_per_tile
                            ? PanelFailure::kRetryExhausted
                            : PanelFailure::kTailSplit;
      }
      const std::uint32_t take = static_cast<std::uint32_t>(
          std::min<std::size_t>(8, panel.col_idx.size() - i));
      ColumnTileReorder t;
      t.col_begin = static_cast<std::uint32_t>(i);
      t.col_count = take;
      t.row_slices.assign(static_cast<std::size_t>(row_slices),
                          two_per_group_permutation(static_cast<int>(take)));
      panel.tiles.push_back(std::move(t));
      panel.used_split_fallback = true;
      i += take;
      break;
    }
  }

  fold_search_stats(stats, search_stats);
  stats.evictions += panel.evictions;
  return panel;
}

/// Mirrors one plan's PlanStats into the metrics registry. The registry is
/// the cross-plan aggregation point (counters accumulate over every plan of
/// the process); the PlanStats struct stays the per-result record callers
/// already consume.
void publish_plan_stats(const PlanStats& s) {
  if (!obs::metrics_enabled()) return;
  obs::add("reorder.plans");
  obs::add("reorder.panels_planned", static_cast<double>(s.panels_planned));
  obs::add("reorder.mask_words_built",
           static_cast<double>(s.mask_words_built));
  obs::add("reorder.tile_searches", static_cast<double>(s.tile_searches));
  obs::add("reorder.identity_tiles", static_cast<double>(s.identity_tiles));
  obs::add("reorder.infeasible_rows",
           static_cast<double>(s.infeasible_rows));
  obs::add("reorder.fresh_enumerations",
           static_cast<double>(s.fresh_enumerations));
  obs::add("reorder.quads_enumerated",
           static_cast<double>(s.quads_enumerated));
  obs::add("reorder.greedy_attempts",
           static_cast<double>(s.greedy_attempts));
  obs::add("reorder.pair_iterations",
           static_cast<double>(s.pair_iterations));
  obs::add("reorder.evictions", static_cast<double>(s.evictions));
  obs::add("reorder.rescued_panels", static_cast<double>(s.rescued_panels));
  obs::add("reorder.rescue_attempts",
           static_cast<double>(s.rescue_attempts_run));
  obs::observe("reorder.plan_seconds", s.total_seconds);
  obs::observe("reorder.mask_seconds", s.mask_seconds);
  obs::observe("reorder.search_seconds", s.search_seconds);
}

}  // namespace

std::array<std::uint16_t, kMmaTile> slice_column_masks(
    const DenseMatrix<fp16_t>& a, std::size_t row_begin,
    std::span<const std::uint32_t> columns) {
  JIGSAW_CHECK(columns.size() <= kMmaTile);
  std::array<std::uint16_t, kMmaTile> masks{};
  const std::size_t row_end =
      std::min(row_begin + static_cast<std::size_t>(kMmaTile), a.rows());
  for (std::size_t j = 0; j < columns.size(); ++j) {
    std::uint16_t m = 0;
    for (std::size_t r = row_begin; r < row_end; ++r) {
      if (!a(r, columns[j]).is_zero()) {
        m |= static_cast<std::uint16_t>(1u << (r - row_begin));
      }
    }
    masks[j] = m;
  }
  return masks;
}

namespace {

// Plans panel `p` exactly as one iteration of the full multi-granularity
// pass: mask extraction from the panel's rows, the ascending live-column
// plan, and the shuffled rescue re-plans. Every RNG seed derives from
// (options.seed, p) — the true panel index, never a loop counter — so a
// single panel can be re-planned in isolation bit-identically to the
// corresponding panel of a from-scratch plan. The incremental update path
// (reorder_panels) depends on exactly that property.
PanelReorder plan_panel_at(const DenseMatrix<fp16_t>& a,
                           const ReorderOptions& options,
                           const ColumnFilter& column_filter, std::size_t p,
                           int row_slices, std::uint32_t limit,
                           PlanStats& local) {
  JIGSAW_TRACE_SCOPE("reorder", "reorder.panel");
  const std::size_t bt = static_cast<std::size_t>(options.tile.block_tile_m);
  const std::size_t total_cols = a.cols();
  const std::size_t row_begin = p * bt;
  const std::size_t row_end = std::min(row_begin + bt, a.rows());

  const auto t_masks = Clock::now();
  PanelMasks pm;
  build_panel_masks(a, row_begin, row_end, row_slices, pm);
  std::vector<std::uint32_t> live;
  live.reserve(total_cols);
  for (std::uint32_t c = 0; c < total_cols; ++c) {
    if (column_filter && !column_filter(p, c)) {
      continue;  // routed to another compute unit (hybrid extension)
    }
    bool any = false;
    for (int s = 0; s < row_slices; ++s) any |= pm.mask(c, s) != 0;
    if (any) live.push_back(c);
  }
  local.mask_words_built += live.size() * static_cast<std::size_t>(row_slices);
  local.mask_seconds += seconds_since(t_masks);

  const auto t_search = Clock::now();
  PanelReorder panel =
      plan_panel(pm, total_cols, live, row_slices, options,
                 Rng(mix_seed(options.seed, p)), local);

  if (panel.padded_cols() > limit && options.rescue_attempts > 0 &&
      !live.empty()) {
    // The ascending-order plan grew past K. Re-plan from shuffled
    // live orders: different window compositions routinely sidestep
    // retry dead-ends (dense columns spread instead of clustering).
    // Panels that planned fine never reach this, so default plans
    // stay bit-identical to the pre-rescue planner.
    bool adopted = false;
    PanelReorder within_limit;
    bool have_within = false;
    for (int attempt = 1; attempt <= options.rescue_attempts; ++attempt) {
      std::vector<std::uint32_t> order = live;
      Rng shuffle_rng(mix_seed(options.seed, p, 0xE5C0Eull,
                               static_cast<std::uint64_t>(attempt)));
      shuffle_rng.shuffle(order);
      PanelReorder cand =
          plan_panel(pm, total_cols, std::move(order), row_slices, options,
                     Rng(mix_seed(options.seed, p, 0x5E5Cull,
                                  static_cast<std::uint64_t>(attempt))),
                     local);
      ++local.rescue_attempts_run;
      if (cand.padded_cols() > limit) continue;
      if (!cand.used_split_fallback) {
        panel = std::move(cand);
        adopted = true;
        break;
      }
      if (!have_within) {
        within_limit = std::move(cand);
        have_within = true;
      }
    }
    if (!adopted && have_within) {
      panel = std::move(within_limit);
      adopted = true;
    }
    if (adopted) {
      panel.rescued = true;
      ++local.rescued_panels;
    }
  }
  local.search_seconds += seconds_since(t_search);
  ++local.panels_planned;
  return panel;
}

}  // namespace

ReorderResult multi_granularity_reorder(const DenseMatrix<fp16_t>& a,
                                        const ReorderOptions& options,
                                        const ColumnFilter& column_filter) {
  JIGSAW_TRACE_SCOPE("reorder", "reorder.plan");
  const auto t_start = Clock::now();
  options.tile.validate();
  JIGSAW_CHECK_MSG(a.rows() > 0 && a.cols() > 0, "empty matrix");

  ReorderResult result;
  result.tile = options.tile;
  result.rows = a.rows();
  result.cols = a.cols();

  // Each panel builds its mask table from its own rows, so every element
  // of A is read once per plan.
  const std::size_t bt = static_cast<std::size_t>(options.tile.block_tile_m);
  const int row_slices = options.tile.row_tiles_per_panel();
  const std::size_t num_panels = (a.rows() + bt - 1) / bt;
  result.panels.resize(num_panels);

  const std::uint32_t limit =
      static_cast<std::uint32_t>(round_up(a.cols(), kMmaTile));

  std::mutex stats_mu;
  PlanStats total;

  parallel_for(
      static_cast<std::int64_t>(num_panels),
      [&](std::int64_t pi) {
        const std::size_t p = static_cast<std::size_t>(pi);
        PlanStats local;
        result.panels[p] = plan_panel_at(a, options, column_filter, p,
                                         row_slices, limit, local);
        std::lock_guard<std::mutex> lock(stats_mu);
        total.merge(local);
      },
      options.max_threads);

  result.stats = total;
  result.stats.total_seconds = seconds_since(t_start);
  publish_plan_stats(result.stats);
  return result;
}

void reorder_panels(const DenseMatrix<fp16_t>& a,
                    const ReorderOptions& options,
                    std::span<const std::size_t> panels,
                    ReorderResult& result,
                    const ColumnFilter& column_filter) {
  JIGSAW_TRACE_SCOPE("reorder", "reorder.panel_replan");
  const auto t_start = Clock::now();
  options.tile.validate();
  JIGSAW_CHECK_MSG(a.rows() > 0 && a.cols() > 0, "empty matrix");
  JIGSAW_CHECK_MSG(result.rows == a.rows() && result.cols == a.cols(),
                   "replan target plan does not match the matrix shape");
  JIGSAW_CHECK_MSG(
      result.tile.block_tile_m == options.tile.block_tile_m,
      "replan BLOCK_TILE differs from the plan being updated");

  const std::size_t bt = static_cast<std::size_t>(options.tile.block_tile_m);
  const int row_slices = options.tile.row_tiles_per_panel();
  const std::size_t num_panels = (a.rows() + bt - 1) / bt;
  JIGSAW_CHECK_MSG(result.panels.size() == num_panels,
                   "replan target plan has the wrong panel count");
  for (const std::size_t p : panels) {
    JIGSAW_CHECK_MSG(p < num_panels, "dirty panel index out of range");
  }
  if (panels.empty()) return;

  // Only the listed panels' rows of A are read.
  const std::uint32_t limit =
      static_cast<std::uint32_t>(round_up(a.cols(), kMmaTile));

  std::mutex stats_mu;
  PlanStats total;

  parallel_for(
      static_cast<std::int64_t>(panels.size()),
      [&](std::int64_t i) {
        const std::size_t p = panels[static_cast<std::size_t>(i)];
        PlanStats local;
        result.panels[p] = plan_panel_at(a, options, column_filter, p,
                                         row_slices, limit, local);
        std::lock_guard<std::mutex> lock(stats_mu);
        total.merge(local);
      },
      options.max_threads);

  total.total_seconds = seconds_since(t_start);
  result.stats.merge(total);
  if (obs::metrics_enabled()) {
    obs::add("reorder.panel_replans", static_cast<double>(panels.size()));
    obs::observe("reorder.replan_seconds", total.total_seconds);
  }
}

void PlanStats::merge(const PlanStats& other) {
  panels_planned += other.panels_planned;
  mask_words_built += other.mask_words_built;
  tile_searches += other.tile_searches;
  identity_tiles += other.identity_tiles;
  infeasible_rows += other.infeasible_rows;
  fresh_enumerations += other.fresh_enumerations;
  quads_enumerated += other.quads_enumerated;
  greedy_attempts += other.greedy_attempts;
  pair_iterations += other.pair_iterations;
  evictions += other.evictions;
  rescued_panels += other.rescued_panels;
  rescue_attempts_run += other.rescue_attempts_run;
  mask_seconds += other.mask_seconds;
  search_seconds += other.search_seconds;
  total_seconds += other.total_seconds;
}

const char* to_string(PanelFailure f) {
  switch (f) {
    case PanelFailure::kNone: return "none";
    case PanelFailure::kInfeasibleRow: return "infeasible-row";
    case PanelFailure::kRetryExhausted: return "retry-exhausted";
    case PanelFailure::kTailSplit: return "tail-split";
  }
  return "?";
}

bool ReorderResult::success() const {
  // §4.3: "reordered data can satisfy the 2:4 sparse data pattern while
  // maintaining the K no bigger than the original matrix". Tail splitting
  // that still fits inside the original (16-aligned) K counts as success;
  // any panel whose layout grew past it does not.
  const std::uint32_t limit =
      static_cast<std::uint32_t>(round_up(cols, kMmaTile));
  for (const PanelReorder& p : panels) {
    if (p.padded_cols() > limit) return false;
  }
  return true;
}

std::uint32_t ReorderResult::max_padded_cols() const {
  std::uint32_t m = 0;
  for (const PanelReorder& p : panels) m = std::max(m, p.padded_cols());
  return m;
}

double ReorderResult::mean_padded_cols() const {
  if (panels.empty()) return 0.0;
  double sum = 0.0;
  for (const PanelReorder& p : panels) sum += p.padded_cols();
  return sum / static_cast<double>(panels.size());
}

std::uint64_t ReorderResult::total_evictions() const {
  std::uint64_t sum = 0;
  for (const PanelReorder& p : panels) sum += p.evictions;
  return sum;
}

std::uint64_t ReorderResult::total_zero_columns() const {
  std::uint64_t sum = 0;
  for (const PanelReorder& p : panels) sum += p.zero_columns;
  return sum;
}

double ReorderResult::identity_fraction() const {
  std::uint64_t total = 0, identity = 0;
  for (const PanelReorder& p : panels) {
    for (const ColumnTileReorder& t : p.tiles) {
      for (const MmaTilePermutation& s : t.row_slices) {
        ++total;
        identity += s.is_identity;
      }
    }
  }
  return total == 0 ? 1.0
                    : static_cast<double>(identity) / static_cast<double>(total);
}

double ReorderResult::conflict_free_fraction() const {
  std::uint64_t total = 0, free_count = 0;
  for (const PanelReorder& p : panels) {
    for (const ColumnTileReorder& t : p.tiles) {
      for (const MmaTilePermutation& s : t.row_slices) {
        ++total;
        free_count += s.bank_conflict_free;
      }
    }
  }
  return total == 0
             ? 1.0
             : static_cast<double>(free_count) / static_cast<double>(total);
}

std::uint64_t ReorderResult::failed_panels() const {
  const std::uint32_t limit =
      static_cast<std::uint32_t>(round_up(cols, kMmaTile));
  std::uint64_t n = 0;
  for (const PanelReorder& p : panels) n += p.padded_cols() > limit;
  return n;
}

std::uint64_t ReorderResult::failure_count(PanelFailure f) const {
  std::uint64_t n = 0;
  for (const PanelReorder& p : panels) n += p.failure == f;
  return n;
}

namespace {

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::uint64_t plan_fingerprint(const ReorderResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv_mix(h, r.rows);
  h = fnv_mix(h, r.cols);
  h = fnv_mix(h, static_cast<std::uint64_t>(r.tile.block_tile_m));
  h = fnv_mix(h, r.panels.size());
  for (const PanelReorder& p : r.panels) {
    h = fnv_mix(h, p.col_idx.size());
    for (const std::uint32_t c : p.col_idx) h = fnv_mix(h, c);
    h = fnv_mix(h, p.zero_columns);
    h = fnv_mix(h, p.evictions);
    h = fnv_mix(h, p.used_split_fallback ? 1 : 0);
    h = fnv_mix(h, p.tiles.size());
    for (const ColumnTileReorder& t : p.tiles) {
      h = fnv_mix(h, t.col_begin);
      h = fnv_mix(h, t.col_count);
      h = fnv_mix(h, t.row_slices.size());
      for (const MmaTilePermutation& s : t.row_slices) {
        std::uint64_t packed = 0;
        for (int j = 0; j < kMmaTile; ++j) {
          packed = packed * 17u + s.perm[static_cast<std::size_t>(j)];
        }
        h = fnv_mix(h, packed);
        h = fnv_mix(h, (s.is_identity ? 1u : 0u) |
                           (s.bank_conflict_free ? 2u : 0u));
      }
    }
  }
  return h;
}

}  // namespace jigsaw::core
