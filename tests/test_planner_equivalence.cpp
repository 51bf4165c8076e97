// Planner fast-path equivalence suite. The optimized planner (sparse mask
// extraction, incremental retry, memo cache, bitset searches) must produce
// plans BIT-IDENTICAL to the straightforward pre-fast-path implementation:
// the golden fingerprints below were captured by running that planner
// (commit 5c49bdc's src/core/reorder.cpp) over deterministic DLMC-like
// matrices. Every toggle combination, thread count, and cache temperature
// must reproduce them exactly.
#include "core/reorder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/tile_search_cache.hpp"
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
  TileSearchCache::instance().clear();
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

TEST(PlannerEquivalence, MemoCacheOnOffAndWarmAreBitExact) {
  const GoldenConfig c{256, 512, 85, 2, 32, false, 0, false};
  const auto a = matrix_for(c);
  ReorderOptions opt = options_for(c);

  opt.use_memo_cache = false;
  const std::uint64_t uncached =
      plan_fingerprint(multi_granularity_reorder(a, opt));

  opt.use_memo_cache = true;
  TileSearchCache::instance().clear();
  const auto cold = multi_granularity_reorder(a, opt);
  const auto warm = multi_granularity_reorder(a, opt);
  EXPECT_EQ(plan_fingerprint(cold), uncached);
  EXPECT_EQ(plan_fingerprint(warm), uncached);
  EXPECT_EQ(warm.stats.cache_hits, warm.stats.cache_lookups);
  EXPECT_GT(warm.stats.cache_hits, 0u);
  EXPECT_EQ(warm.stats.fresh_enumerations, 0u);
}

TEST(PlannerEquivalence, IncrementalRetryOnOffIsBitExact) {
  // 70% sparsity forces plenty of reorder-retry evictions, exercising the
  // incremental quad maintenance against from-scratch enumeration.
  const GoldenConfig c{256, 512, 70, 2, 16, false, 0, true};
  const auto a = matrix_for(c);
  ReorderOptions opt = options_for(c);
  opt.use_memo_cache = false;

  opt.use_incremental_retry = true;
  const auto incremental = multi_granularity_reorder(a, opt);
  opt.use_incremental_retry = false;
  const auto from_scratch = multi_granularity_reorder(a, opt);
  EXPECT_EQ(plan_fingerprint(incremental), plan_fingerprint(from_scratch));
  EXPECT_GT(incremental.stats.incremental_updates, 0u);
  EXPECT_EQ(from_scratch.stats.incremental_updates, 0u);
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

TEST(PlannerEquivalence, PropertySweepAllTogglesAgree) {
  // Sparsity sweep over the planner's operating range: every feature
  // combination must agree with the everything-off reference plan.
  for (const int sp : {70, 75, 80, 85, 90, 95, 98}) {
    const auto a = dlmc::make_lhs({256, 512}, sp / 100.0, 2).values();
    ReorderOptions reference;
    reference.tile.block_tile_m = 32;
    reference.use_memo_cache = false;
    reference.use_incremental_retry = false;
    reference.max_threads = 1;
    const std::uint64_t want =
        plan_fingerprint(multi_granularity_reorder(a, reference));
    for (const bool memo : {false, true}) {
      for (const bool incr : {false, true}) {
        ReorderOptions opt;
        opt.tile.block_tile_m = 32;
        opt.use_memo_cache = memo;
        opt.use_incremental_retry = incr;
        if (memo) TileSearchCache::instance().clear();
        const auto r = multi_granularity_reorder(a, opt);
        EXPECT_EQ(plan_fingerprint(r), want)
            << "sp=" << sp << " memo=" << memo << " incr=" << incr;
      }
    }
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
  EXPECT_GT(s.mask_words_built, 0u);
  EXPECT_GE(s.total_seconds, 0.0);
  EXPECT_GE(s.search_seconds, 0.0);
  EXPECT_GE(s.mask_seconds, 0.0);
  EXPECT_LE(s.cache_hit_rate(), 1.0);
}

}  // namespace
}  // namespace jigsaw::core
