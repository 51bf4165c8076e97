#include "core/hybrid.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sptc/mma_sp.hpp"

namespace jigsaw::core {

namespace {

/// Per-column panel statistics used for routing.
struct ColumnStats {
  std::uint32_t panel_nnz = 0;
  std::uint32_t max_slice_nnz = 0;  ///< densest 16-row slice
};

ColumnStats column_stats(const DenseMatrix<fp16_t>& a, std::size_t row_begin,
                         std::size_t row_end, std::size_t col) {
  ColumnStats s;
  std::uint32_t slice_count = 0;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    if (!a(r, col).is_zero()) {
      ++s.panel_nnz;
      ++slice_count;
    }
    if ((r - row_begin) % kMmaTile == kMmaTile - 1 || r + 1 == row_end) {
      s.max_slice_nnz = std::max(s.max_slice_nnz, slice_count);
      slice_count = 0;
    }
  }
  return s;
}

}  // namespace

std::size_t HybridPlan::total_dense_columns() const {
  std::size_t n = 0;
  for (const auto& r : routing) n += r.dense_columns.size();
  return n;
}

std::size_t HybridPlan::total_cuda_columns() const {
  std::size_t n = 0;
  for (const auto& r : routing) n += r.cuda_columns.size();
  return n;
}

HybridPlan hybrid_plan(const DenseMatrix<fp16_t>& a,
                       const HybridOptions& options) {
  JIGSAW_TRACE_SCOPE("hybrid", "hybrid.plan");
  options.tile.validate();
  JIGSAW_CHECK_MSG(a.rows() > 0 && a.cols() > 0, "empty matrix");

  HybridPlan plan;
  plan.options = options;

  const std::size_t bt = static_cast<std::size_t>(options.tile.block_tile_m);
  const std::size_t num_panels = (a.rows() + bt - 1) / bt;
  const auto dense_threshold = static_cast<std::uint32_t>(
      options.dense_route_min_density * kMmaTile);

  plan.routing.resize(num_panels);
  // route_map[panel][column]: only SpTC columns pass the reorder filter.
  std::vector<std::vector<Route>> route_map(
      num_panels, std::vector<Route>(a.cols(), Route::kSpTC));

  parallel_for(static_cast<std::int64_t>(num_panels), [&](std::int64_t pi) {
    const auto p = static_cast<std::size_t>(pi);
    const std::size_t row_begin = p * bt;
    const std::size_t row_end = std::min(row_begin + bt, a.rows());
    PanelRouting& routing = plan.routing[p];
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const ColumnStats s = column_stats(a, row_begin, row_end, c);
      if (s.panel_nnz == 0) continue;  // zero column: skipped everywhere
      if (s.max_slice_nnz > dense_threshold) {
        route_map[p][c] = Route::kDenseTC;
        routing.dense_columns.push_back(static_cast<std::uint32_t>(c));
      } else if (s.panel_nnz <= options.cuda_route_max_nnz) {
        route_map[p][c] = Route::kCudaCore;
        routing.cuda_columns.push_back(static_cast<std::uint32_t>(c));
        routing.cuda_nnz += s.panel_nnz;
      }
    }
  });

  ReorderOptions ropts = options.reorder;
  ropts.tile = options.tile;
  ropts.column_filter = [&route_map](std::size_t panel, std::uint32_t col) {
    return route_map[panel][col] == Route::kSpTC;
  };
  plan.reorder = multi_granularity_reorder(a, ropts);
  plan.format = JigsawFormat::build(a, plan.reorder);

  if (obs::metrics_enabled()) {
    // Routing decisions, one observation per panel so the histograms show
    // the per-panel spread, not just the totals.
    obs::add("hybrid.plans");
    obs::add("hybrid.panels", static_cast<double>(plan.routing.size()));
    obs::add("hybrid.dense_columns",
             static_cast<double>(plan.total_dense_columns()));
    obs::add("hybrid.cuda_columns",
             static_cast<double>(plan.total_cuda_columns()));
    for (const PanelRouting& r : plan.routing) {
      obs::observe("hybrid.panel_dense_columns",
                   static_cast<double>(r.dense_columns.size()));
      obs::observe("hybrid.panel_cuda_columns",
                   static_cast<double>(r.cuda_columns.size()));
      obs::observe("hybrid.panel_cuda_nnz", static_cast<double>(r.cuda_nnz));
    }
  }
  return plan;
}

DenseMatrix<float> hybrid_compute(const HybridPlan& plan,
                                  const DenseMatrix<fp16_t>& a,
                                  const DenseMatrix<fp16_t>& b) {
  JIGSAW_CHECK(a.rows() == plan.format.rows() &&
               a.cols() == plan.format.cols());
  JIGSAW_CHECK(b.rows() == a.cols());
  const std::size_t n = b.cols();
  const std::size_t bt =
      static_cast<std::size_t>(plan.options.tile.block_tile_m);

  // SpTC subset through the format, then the dense and CUDA routes
  // accumulate on top.
  DenseMatrix<float> c = jigsaw_compute(plan.format, b);

  parallel_for(static_cast<std::int64_t>(plan.routing.size()),
               [&](std::int64_t pi) {
    const auto p = static_cast<std::size_t>(pi);
    const PanelRouting& routing = plan.routing[p];
    const std::size_t row_begin = p * bt;
    const std::size_t row_end = std::min(row_begin + bt, a.rows());

    // Dense tensor core route: 16-column tiles through mma.m16n8k16.
    for (std::size_t t0 = 0; t0 < routing.dense_columns.size(); t0 += 16) {
      const std::size_t tcols =
          std::min<std::size_t>(16, routing.dense_columns.size() - t0);
      for (std::size_t slice_row = row_begin; slice_row < row_end;
           slice_row += kMmaTile) {
        const std::size_t mrows =
            std::min<std::size_t>(kMmaTile, a.rows() - slice_row);
        DenseMatrix<fp16_t> atile(16, 16);
        for (std::size_t j = 0; j < tcols; ++j) {
          const std::size_t col = routing.dense_columns[t0 + j];
          for (std::size_t r = 0; r < mrows; ++r) {
            atile(r, j) = a(slice_row + r, col);
          }
        }
        DenseMatrix<fp16_t> btile(16, 8);
        DenseMatrix<float> acc(16, 8);
        for (std::size_t n0 = 0; n0 < n; n0 += 8) {
          const std::size_t nw = std::min<std::size_t>(8, n - n0);
          for (std::size_t j = 0; j < tcols; ++j) {
            const std::size_t col = routing.dense_columns[t0 + j];
            for (std::size_t q = 0; q < nw; ++q) {
              btile(j, q) = b(col, n0 + q);
            }
          }
          for (std::size_t j = tcols; j < 16; ++j) {
            for (std::size_t q = 0; q < nw; ++q) btile(j, q) = fp16_t{};
          }
          std::fill(acc.data(), acc.data() + acc.size(), 0.0f);
          auto accv = acc.view().subview(0, 0, 16, nw);
          sptc::mma_m16n8k16(atile.view(),
                             btile.view().subview(0, 0, 16, nw), accv);
          for (std::size_t r = 0; r < mrows; ++r) {
            for (std::size_t q = 0; q < nw; ++q) {
              c(slice_row + r, n0 + q) += acc(r, q);
            }
          }
        }
      }
    }

    // CUDA-core route: scalar loops over the thin columns.
    for (const std::uint32_t col : routing.cuda_columns) {
      for (std::size_t r = row_begin; r < row_end; ++r) {
        const float av = static_cast<float>(a(r, col));
        if (av == 0.0f) continue;
        const fp16_t* brow = b.view().row(col);
        float* crow = c.view().row(r);
        for (std::size_t q = 0; q < n; ++q) {
          crow[q] += av * static_cast<float>(brow[q]);
        }
      }
    }
  });

  return c;
}

HybridRunResult hybrid_run(const HybridPlan& plan,
                           const DenseMatrix<fp16_t>& a,
                           const DenseMatrix<fp16_t>& b,
                           const gpusim::CostModel& cost_model,
                           const EngineOptions::Run& options) {
  JIGSAW_TRACE_SCOPE("hybrid", "hybrid.run");
  obs::add("hybrid.runs");
  JIGSAW_CHECK(a.rows() == plan.format.rows() &&
               a.cols() == plan.format.cols());
  JIGSAW_CHECK(b.rows() == a.cols());
  const std::size_t n = b.cols();
  const std::size_t bt =
      static_cast<std::size_t>(plan.options.tile.block_tile_m);
  const int slices = plan.format.row_slices_per_panel();

  // ---- Cost: start from the SpTC walk, add the two extra pipes.
  gpusim::KernelReport sptc_report = jigsaw_cost(
      plan.format, n, KernelVersion::kV4, cost_model, options.tuning);
  gpusim::KernelCounters counters = sptc_report.counters;
  const double n_pad = static_cast<double>(round_up(n, 8));
  const double nblocks = static_cast<double>((n + kBlockTileN - 1) /
                                             kBlockTileN);
  for (const PanelRouting& r : plan.routing) {
    const double dense_tiles =
        static_cast<double>((r.dense_columns.size() + kMmaTile - 1) /
                            kMmaTile);
    // Dense tensor core: one m16n8k16 per (slice, tile, 8-wide n chunk).
    const double dense_macs = dense_tiles * slices * 16.0 * 16.0 * n_pad;
    counters.tc_fp16_macs += dense_macs;
    const double dense_mma = dense_macs / 1024.0;
    counters.instructions += dense_mma * 2.0;
    counters.smem_load_transactions += dense_mma * 1.2;
    // Raw A columns + gathered B rows staged per block.
    const double dense_bytes =
        (static_cast<double>(r.dense_columns.size()) *
         (static_cast<double>(bt) + kBlockTileN) * 2.0) *
        nblocks;
    counters.dram_read_bytes += dense_bytes / nblocks;
    counters.l2_read_bytes += dense_bytes * (nblocks - 1.0) / nblocks;
    counters.smem_store_transactions += dense_bytes / 128.0;

    // CUDA cores: scalar FMAs over the thin columns' nonzeros.
    const double cuda_macs =
        static_cast<double>(r.cuda_nnz) * static_cast<double>(n);
    counters.cuda_macs += cuda_macs;
    counters.instructions += cuda_macs / 64.0 * 1.5;
    const double cuda_bytes =
        static_cast<double>(r.cuda_columns.size()) * kBlockTileN * 2.0 *
        nblocks;
    counters.dram_read_bytes += cuda_bytes / nblocks;
    counters.l2_read_bytes += cuda_bytes * (nblocks - 1.0) / nblocks;
  }

  HybridRunResult result;
  result.report = cost_model.estimate(
      "hybrid_bt" + std::to_string(plan.options.tile.block_tile_m), counters,
      sptc_report.launch);

  if (options.compute_values) result.c = hybrid_compute(plan, a, b);
  return result;
}

}  // namespace jigsaw::core
