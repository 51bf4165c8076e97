// Event-level block-scheduler tests: agreement with the analytic model on
// uniform blocks, imbalance detection on skewed ones, and the benefit of
// heaviest-first issue.
#include "gpusim/event_sim.hpp"

#include <gtest/gtest.h>

#include "core/kernel.hpp"
#include "matrix/vector_sparse.hpp"

namespace jigsaw::gpusim {
namespace {

Occupancy occupancy_for(int blocks_per_sm, std::uint64_t blocks) {
  LaunchConfig l;
  l.blocks = blocks;
  l.threads_per_block = 128;
  l.smem_per_block = (164 * 1024) / static_cast<std::size_t>(blocks_per_sm + 1) + 1;
  l.regs_per_thread = 32;
  Occupancy occ = compute_occupancy(l, a100());
  // The smem trick above may not land exactly; construct directly instead.
  occ.blocks_per_sm = blocks_per_sm;
  occ.warps_per_sm = blocks_per_sm * 4;
  return occ;
}

TEST(EventSim, EmptyLaunch) {
  const auto r = simulate_block_schedule({}, occupancy_for(4, 0), a100());
  EXPECT_EQ(r.makespan_cycles, 0.0);
  EXPECT_EQ(r.utilization(), 0.0);
}

TEST(EventSim, UniformBlocksOneWave) {
  // Exactly one wave of identical blocks: makespan = block duration.
  const std::vector<double> durations(108 * 4, 100.0);
  const auto r = simulate_block_schedule(durations, occupancy_for(4, 432),
                                         a100());
  EXPECT_DOUBLE_EQ(r.makespan_cycles, 100.0);
  EXPECT_NEAR(r.imbalance(), 1.0, 1e-9);
  EXPECT_NEAR(r.utilization(), 4.0, 1e-9);  // 4 concurrent blocks per SM
}

TEST(EventSim, UniformBlocksTwoWaves) {
  const std::vector<double> durations(108 * 4 * 2, 50.0);
  const auto r = simulate_block_schedule(durations, occupancy_for(4, 864),
                                         a100());
  EXPECT_DOUBLE_EQ(r.makespan_cycles, 100.0);
}

TEST(EventSim, RaggedTailAddsOneBlock) {
  std::vector<double> durations(108 * 2 + 1, 80.0);
  const auto r = simulate_block_schedule(durations, occupancy_for(2, 217),
                                         a100());
  EXPECT_DOUBLE_EQ(r.makespan_cycles, 160.0);  // one slot runs twice
}

TEST(EventSim, FewerBlocksThanSlots) {
  const std::vector<double> durations{10.0, 20.0, 30.0};
  const auto r = simulate_block_schedule(durations, occupancy_for(4, 3),
                                         a100());
  EXPECT_DOUBLE_EQ(r.makespan_cycles, 30.0);
  EXPECT_GT(r.imbalance(), 1.0);  // 105 SMs idle
}

TEST(EventSim, SkewDetectedAndLptHelps) {
  // One giant block issued LAST in grid order: everything else finishes,
  // then the giant runs alone. Heaviest-first overlaps it fully.
  std::vector<double> durations(108 * 2, 100.0);
  durations.push_back(5000.0);
  const Occupancy occ = occupancy_for(2, durations.size());
  const auto grid =
      simulate_block_schedule(durations, occ, a100(), IssueOrder::kGridOrder);
  const auto lpt = simulate_block_schedule(durations, occ, a100(),
                                           IssueOrder::kHeaviestFirst);
  EXPECT_DOUBLE_EQ(grid.makespan_cycles, 100.0 + 5000.0);
  EXPECT_DOUBLE_EQ(lpt.makespan_cycles, 5000.0);
  EXPECT_LT(lpt.makespan_cycles, grid.makespan_cycles);
  EXPECT_GT(grid.imbalance(), 1.5);
}

TEST(EventSim, JigsawEventCostMatchesAnalyticOnUniformPanels) {
  // A statistically uniform matrix: every panel has ~the same work, so
  // the event-level duration stays close to the analytic one.
  VectorSparseOptions o;
  o.rows = 512;
  o.cols = 512;
  o.vector_width = 8;
  o.sparsity = 0.95;
  o.seed = 3;
  const auto a = VectorSparseGenerator::generate(o);
  gpusim::CostModel cm;
  core::EngineOptions::Compile po;
  po.version = core::KernelVersion::kV4;
  const auto plan = core::jigsaw_plan(a.values(), po);
  // BT=64: each panel averages 4x 16-row slices, so per-panel work is
  // statistically uniform (BT=16 panels genuinely vary 1-3 mma pairs).
  const auto& f = plan.formats[2];
  // N=2048 gives 8 panels x 32 column blocks = 256 blocks: every SM busy,
  // so the imbalance metric reflects work skew, not idle SMs.
  const auto analytic =
      core::jigsaw_cost(f, 2048, core::KernelVersion::kV4, cm);
  const auto event =
      core::jigsaw_cost_event(f, 2048, core::KernelVersion::kV4, cm);
  EXPECT_LT(event.report.duration_cycles, analytic.duration_cycles * 2.2);
  EXPECT_GT(event.report.duration_cycles, analytic.duration_cycles * 0.45);
  EXPECT_LT(event.grid_order.imbalance(), 1.6);
}

TEST(EventSim, JigsawEventCostSeesPanelSkew) {
  // Half the panels dense-ish, half almost empty: grid-order scheduling
  // shows imbalance and LPT improves (or at least never hurts).
  DenseMatrix<fp16_t> a(512, 512);
  Rng rng(5);
  for (std::size_t r = 0; r < 256; ++r) {  // heavy top panels
    for (std::size_t c = 0; c < 512; ++c) {
      if (rng.bernoulli(0.3)) a(r, c) = fp16_t(rng.uniform(0.2f, 1.0f));
    }
  }
  for (std::size_t r = 256; r < 512; ++r) {  // nearly empty bottom
    if (rng.bernoulli(0.05)) a(r, r % 512) = fp16_t(1.0f);
  }
  gpusim::CostModel cm;
  core::ReorderOptions ro;
  ro.tile.block_tile_m = 16;
  const auto format =
      core::JigsawFormat::build(a, core::multi_granularity_reorder(a, ro));
  const auto event =
      core::jigsaw_cost_event(format, 64, core::KernelVersion::kV4, cm);
  EXPECT_GT(event.grid_order.imbalance(), 1.02);
  EXPECT_LE(event.heaviest_first.makespan_cycles,
            event.grid_order.makespan_cycles + 1e-9);
}

}  // namespace
}  // namespace jigsaw::gpusim
