// Planner fast-path equivalence suite. The optimized planner (sparse mask
// extraction, bitset searches) must produce plans BIT-IDENTICAL to the
// straightforward pre-fast-path implementation: the golden fingerprints
// below were captured by running that planner (commit 5c49bdc's
// src/core/reorder.cpp) over deterministic DLMC-like matrices. Every
// thread count must reproduce them exactly.
#include "core/reorder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dlmc/suite.hpp"

namespace jigsaw::core {
namespace {

struct GoldenConfig {
  std::size_t m, k;
  int sparsity_pct;
  std::size_t v;
  int bt;
  bool filtered;             // exercise the hybrid column_filter path
  std::uint64_t fingerprint; // pre-fast-path plan_fingerprint
  // Pre-fast-path "any panel split or overflowed K" (strictly stricter than
  // ReorderResult::success(), which tolerates splits that still fit).
  bool old_failed;
};

bool any_split_or_overflow(const ReorderResult& r) {
  const std::uint32_t limit =
      static_cast<std::uint32_t>(round_up(r.cols, kMmaTile));
  for (const PanelReorder& p : r.panels) {
    if (p.used_split_fallback || p.padded_cols() > limit) return true;
  }
  return false;
}

// Captured from the pre-change planner; see file comment.
const std::vector<GoldenConfig>& golden_configs() {
  static const std::vector<GoldenConfig> kConfigs = {
      {256, 512, 70, 2, 16, false, 0xda3390e24b6b36d3ull, true},
      {256, 512, 70, 8, 32, false, 0x932d442731e74a2bull, true},
      {256, 512, 80, 2, 16, false, 0x39e759931bc43aedull, false},
      {256, 512, 80, 2, 64, false, 0xb452ecf00bbc6d02ull, false},
      {256, 512, 80, 8, 32, false, 0x3b65abc536e9fce1ull, true},
      {256, 512, 90, 2, 16, false, 0x45d8f37effec8fdaull, false},
      {256, 512, 90, 8, 64, false, 0xcb6b549cc21e4299ull, false},
      {256, 512, 95, 2, 32, false, 0x3298a930708f014eull, false},
      {256, 512, 95, 8, 16, false, 0x2f7a09124411dbc5ull, true},
      {256, 512, 98, 8, 64, false, 0x3ef5970f936eb837ull, false},
      {256, 512, 90, 2, 32, true, 0xdd709681d02e915bull, false},
      {256, 512, 80, 8, 16, true, 0x7d3b3b3b1cfe32f3ull, true},
      {512, 1024, 80, 2, 16, false, 0x210b5844b1046e52ull, false},
      {512, 1024, 80, 2, 64, false, 0x1494afc8c1aec79bull, true},
      {512, 1024, 95, 8, 64, false, 0x790b83973267584aull, false},
      {100, 130, 85, 2, 32, false, 0x2dd885a97df589d9ull, true},
  };
  return kConfigs;
}

DenseMatrix<fp16_t> matrix_for(const GoldenConfig& c) {
  return dlmc::make_lhs({c.m, c.k}, c.sparsity_pct / 100.0, c.v).values();
}

ReorderOptions options_for(const GoldenConfig& c) {
  ReorderOptions opt;
  opt.tile.block_tile_m = c.bt;
  return opt;
}

ColumnFilter filter_for(const GoldenConfig& c) {
  if (!c.filtered) return {};
  return [](std::size_t panel, std::uint32_t col) {
    return (col + panel) % 3 != 0;
  };
}

TEST(PlannerEquivalence, GoldenFingerprintsWithRescueDisabled) {
  for (const GoldenConfig& c : golden_configs()) {
    const auto a = matrix_for(c);
    ReorderOptions opt = options_for(c);
    opt.rescue_attempts = 0;
    const auto r = multi_granularity_reorder(a, opt, filter_for(c));
    EXPECT_EQ(plan_fingerprint(r), c.fingerprint)
        << c.m << "x" << c.k << " sp=" << c.sparsity_pct << " v=" << c.v
        << " bt=" << c.bt;
    EXPECT_EQ(any_split_or_overflow(r), c.old_failed);
  }
}

// Search counters of the golden configs with rescue disabled, in
// golden_configs() order. perfbench's layer table reads tile_searches and
// evictions, and the registry publishes all five, so a planner shortcut
// must leave every one of them where the full search puts it.
struct GoldenCounters {
  std::uint64_t tile_searches, identity_tiles, greedy_attempts,
      pair_iterations, evictions;
};

const std::vector<GoldenCounters>& golden_counters() {
  static const std::vector<GoldenCounters> kCounters = {
      {1394, 18, 15642, 36639590, 890},
      {2345, 103, 17819, 47056212, 1601},
      {469, 87, 8743, 20569726, 37},
      {536, 217, 6994, 12335035, 11},
      {732, 185, 7233, 18142688, 262},
      {298, 159, 2566, 3600000, 0},
      {300, 265, 680, 900000, 0},
      {290, 268, 389, 450000, 0},
      {577, 5, 601, 538987, 508},
      {84, 82, 22, 0, 0},
      {286, 228, 1243, 2400000, 0},
      {3357, 10, 1369, 943278, 3195},
      {1833, 375, 34401, 79758765, 115},
      {2124, 848, 26947, 49984444, 28},
      {712, 653, 914, 1050000, 0},
      {121, 34, 272, 300000, 67},
  };
  return kCounters;
}

TEST(PlannerEquivalence, SearchCountersMatchGolden) {
  ASSERT_EQ(golden_counters().size(), golden_configs().size());
  for (std::size_t i = 0; i < golden_configs().size(); ++i) {
    const GoldenConfig& c = golden_configs()[i];
    const GoldenCounters& want = golden_counters()[i];
    ReorderOptions opt = options_for(c);
    opt.rescue_attempts = 0;
    const PlanStats s =
        multi_granularity_reorder(matrix_for(c), opt, filter_for(c)).stats;
    SCOPED_TRACE(::testing::Message()
                 << c.m << "x" << c.k << " sp=" << c.sparsity_pct
                 << " v=" << c.v << " bt=" << c.bt);
    EXPECT_EQ(s.tile_searches, want.tile_searches);
    EXPECT_EQ(s.identity_tiles, want.identity_tiles);
    EXPECT_EQ(s.greedy_attempts, want.greedy_attempts);
    EXPECT_EQ(s.pair_iterations, want.pair_iterations);
    EXPECT_EQ(s.evictions, want.evictions);
  }
}

TEST(PlannerEquivalence, DefaultsMatchGoldenWhenRescueIsIdle) {
  // Rescue only touches panels whose plan grew past K; for configs the
  // original planner succeeded on, the default options must reproduce the
  // golden plan bit-for-bit.
  for (const GoldenConfig& c : golden_configs()) {
    if (c.old_failed) continue;
    const auto r =
        multi_granularity_reorder(matrix_for(c), options_for(c), filter_for(c));
    EXPECT_EQ(plan_fingerprint(r), c.fingerprint);
  }
}

TEST(PlannerEquivalence, PlanIsIndependentOfThreadCount) {
  const GoldenConfig c{256, 512, 80, 8, 16, false, 0, false};
  const auto a = matrix_for(c);
  ReorderOptions opt = options_for(c);
  opt.max_threads = 1;
  const std::uint64_t serial =
      plan_fingerprint(multi_granularity_reorder(a, opt));
  opt.max_threads = 4;
  const std::uint64_t parallel =
      plan_fingerprint(multi_granularity_reorder(a, opt));
  EXPECT_EQ(serial, parallel);
}

TEST(PlannerEquivalence, PropertySweepThreadCountsAgree) {
  // Sparsity sweep over the planner's operating range: the default thread
  // count must agree with the single-threaded reference plan.
  for (const int sp : {70, 75, 80, 85, 90, 95, 98}) {
    const auto a = dlmc::make_lhs({256, 512}, sp / 100.0, 2).values();
    ReorderOptions reference;
    reference.tile.block_tile_m = 32;
    reference.max_threads = 1;
    const std::uint64_t want =
        plan_fingerprint(multi_granularity_reorder(a, reference));
    ReorderOptions opt;
    opt.tile.block_tile_m = 32;
    const auto r = multi_granularity_reorder(a, opt);
    EXPECT_EQ(plan_fingerprint(r), want) << "sp=" << sp;
  }
}

TEST(PlannerEquivalence, FailureReasonsRecordedAndRescueFixes) {
  // 512x1024 at 80% / v=2 / BT=64: the ascending-order plan grows past K
  // (a golden old_failed config); rescue re-plans the offending panels
  // from shuffled orders and must restore success.
  const GoldenConfig c{512, 1024, 80, 2, 64, false, 0, true};
  const auto a = matrix_for(c);

  ReorderOptions no_rescue = options_for(c);
  no_rescue.rescue_attempts = 0;
  const auto failed = multi_granularity_reorder(a, no_rescue);
  ASSERT_FALSE(failed.success());
  EXPECT_GT(failed.failed_panels(), 0u);
  std::uint64_t with_reason = 0;
  const std::uint32_t limit =
      static_cast<std::uint32_t>(round_up(failed.cols, kMmaTile));
  for (const PanelReorder& p : failed.panels) {
    if (p.padded_cols() > limit) {
      EXPECT_NE(p.failure, PanelFailure::kNone);
      ++with_reason;
    }
  }
  EXPECT_EQ(with_reason, failed.failed_panels());

  const auto rescued = multi_granularity_reorder(a, options_for(c));
  EXPECT_TRUE(rescued.success());
  EXPECT_GT(rescued.stats.rescued_panels, 0u);
  EXPECT_GT(rescued.stats.rescue_attempts_run, 0u);
  std::uint64_t rescued_flagged = 0;
  for (const PanelReorder& p : rescued.panels) rescued_flagged += p.rescued;
  EXPECT_EQ(rescued_flagged, rescued.stats.rescued_panels);
}

TEST(PlannerEquivalence, StatsArePopulated) {
  const auto a = dlmc::make_lhs({256, 512}, 0.9, 4).values();
  ReorderOptions opt;
  opt.tile.block_tile_m = 32;
  const auto r = multi_granularity_reorder(a, opt);
  const PlanStats& s = r.stats;
  EXPECT_EQ(s.panels_planned, r.panels.size());
  EXPECT_GT(s.tile_searches, 0u);
  // Every search ends in the identity or infeasible-row fast path or
  // enumerates its quads; none is answered from stored state.
  EXPECT_EQ(s.tile_searches,
            s.identity_tiles + s.infeasible_rows + s.fresh_enumerations);
  EXPECT_GT(s.mask_words_built, 0u);
  EXPECT_GE(s.total_seconds, 0.0);
  EXPECT_GE(s.search_seconds, 0.0);
  EXPECT_GE(s.mask_seconds, 0.0);
}

}  // namespace
}  // namespace jigsaw::core
