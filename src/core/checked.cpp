#include "core/checked.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace jigsaw::core {

namespace {

/// Nonzeros of `col` within one panel's row range.
std::uint32_t panel_column_nnz(const DenseMatrix<fp16_t>& a,
                               std::size_t row_begin, std::size_t row_end,
                               std::size_t col) {
  std::uint32_t nnz = 0;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    nnz += !a(r, col).is_zero();
  }
  return nnz;
}

/// Publishes the degradation counters of one checked compile.
void publish_degradation(const DegradationReport& deg) {
  if (!obs::metrics_enabled()) return;
  obs::add("checked.panels_total", static_cast<double>(deg.panels_total));
  obs::add("checked.panels_degraded",
           static_cast<double>(deg.panels_degraded));
  obs::add("checked.fallback_dense_columns",
           static_cast<double>(deg.fallback_dense_columns));
  obs::add("checked.fallback_cuda_columns",
           static_cast<double>(deg.fallback_cuda_columns));
  if (deg.panels_degraded > 0) obs::add("checked.degraded_runs");
}

}  // namespace

bool panel_failed(const PanelReorder& panel, std::size_t cols) {
  const auto limit = static_cast<std::uint32_t>(round_up(cols, kMmaTile));
  return panel.used_split_fallback || panel.padded_cols() > limit;
}

CheckedArtifact checked_compile(const DenseMatrix<fp16_t>& a,
                                const EngineOptions::Compile& options) {
  JIGSAW_TRACE_SCOPE("checked", "checked.compile");
  CheckedArtifact out;
  DegradationReport& deg = out.degradation;

  ReorderOptions ropts = options.reorder;
  ropts.tile.block_tile_m = options.block_tile;
  out.reorder = multi_granularity_reorder(a, ropts);
  const ReorderResult& first = out.reorder;
  deg.panels_total = first.panels.size();
  deg.reorder_evictions = first.total_evictions();

  std::vector<bool> degraded(first.panels.size(), false);
  for (std::size_t p = 0; p < first.panels.size(); ++p) {
    degraded[p] = panel_failed(first.panels[p], a.cols());
  }
  if (std::find(degraded.begin(), degraded.end(), true) == degraded.end()) {
    publish_degradation(deg);
    return out;
  }

  // ---- Graceful degradation: every column of a failed panel leaves the
  // SpTC path and runs on the hybrid dense-TC / CUDA-core pipes instead.
  const auto bt = static_cast<std::size_t>(options.block_tile);
  HybridPlan plan;
  plan.routing.resize(first.panels.size());
  for (std::size_t p = 0; p < first.panels.size(); ++p) {
    if (!degraded[p]) continue;
    ++deg.panels_degraded;
    const std::size_t row_begin = p * bt;
    const std::size_t row_end = std::min(row_begin + bt, a.rows());
    PanelRouting& routing = plan.routing[p];
    for (const std::uint32_t col : first.panels[p].col_idx) {
      const std::uint32_t nnz = panel_column_nnz(a, row_begin, row_end, col);
      if (nnz <= options.cuda_route_max_nnz) {
        routing.cuda_columns.push_back(col);
        routing.cuda_nnz += nnz;
      } else {
        routing.dense_columns.push_back(col);
      }
    }
    std::sort(routing.dense_columns.begin(), routing.dense_columns.end());
    std::sort(routing.cuda_columns.begin(), routing.cuda_columns.end());
    deg.fallback_dense_columns += routing.dense_columns.size();
    deg.fallback_cuda_columns += routing.cuda_columns.size();
    std::ostringstream os;
    os << "panel " << p << ": reorder failed ("
       << (first.panels[p].used_split_fallback ? "split fallback"
                                               : "K grew")
       << "); degraded " << routing.dense_columns.size()
       << " columns to dense TC, " << routing.cuda_columns.size()
       << " to CUDA cores";
    deg.note(os.str());
  }

  // The SpTC subset: the first-chance plan with the degraded panels
  // re-planned under a filter that drops all their columns. The other
  // panels keep their plan, which is what a filtered reorder of the whole
  // matrix would give them (per-panel seeds). The engine validates the
  // resulting format with the rest of the artifact.
  std::vector<std::size_t> failed;
  for (std::size_t p = 0; p < degraded.size(); ++p) {
    if (degraded[p]) failed.push_back(p);
  }
  plan.reorder = first;
  reorder_panels(a, ropts, failed, plan.reorder,
                 [&degraded](std::size_t panel, std::uint32_t) {
                   return !degraded[panel];
                 });
  plan.format = JigsawFormat::build(a, plan.reorder);
  out.hybrid = std::move(plan);
  publish_degradation(deg);
  return out;
}

}  // namespace jigsaw::core
