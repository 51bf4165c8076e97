// Hybrid execution across compute units — the §4.7 future-work extension.
//
// Below ~80% sparsity the pure-SpTC design loses to cuBLAS: dense column
// tiles cannot satisfy 2:4 without halving utilization, and at the other
// extreme ultra-sparse columns waste whole mma.sp operations on a handful
// of values. The paper sketches the fix: "for denser data tile, we can use
// dense tensor cores ... for sparser data tiles ... CUDA cores". This
// module implements that sketch:
//
//   * per BLOCK_TILE panel, every column is routed to one of three units:
//       - DENSE  (dense tensor core, mma.m16n8k16): columns whose nonzero
//         density in some 16-row slice exceeds 50% — they would force the
//         two-per-group fallback on the SpTC;
//       - CUDA   (CUDA cores): columns with at most `cuda_max_nnz`
//         nonzeros in the panel — too thin to feed a tensor core;
//       - SPTC   (the standard Jigsaw path): everything in between;
//   * the SpTC subset goes through the unchanged multi-granularity reorder
//     and reorder-aware format (via ReorderOptions::column_filter);
//   * dense-routed columns form plain 16-wide dense tiles; CUDA-routed
//     nonzeros are kept in per-panel coordinate lists;
//   * one fused kernel report charges all three pipes, which the cost
//     model naturally overlaps (tensor core, CUDA core and memory are
//     independent resources).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/kernel.hpp"

namespace jigsaw::core {

enum class Route : std::uint8_t { kSpTC = 0, kDenseTC = 1, kCudaCore = 2 };

struct HybridOptions {
  /// BLOCK_TILE; 16 routes at single-slice precision, which keeps the
  /// dense detour from dragging whole 64-row columns with it.
  TileConfig tile{.block_tile_m = 16};
  /// Columns whose densest 16-row slice exceeds this fraction go to the
  /// dense tensor core. 0.75 targets columns that would force the
  /// two-per-group SpTC fallback while leaving borderline columns to the
  /// reorder, which often still packs them at full utilization.
  double dense_route_min_density = 0.75;
  /// Columns with at most this many nonzeros in the whole panel go to the
  /// CUDA cores.
  std::uint32_t cuda_route_max_nnz = 2;
  ReorderOptions reorder{};  ///< knobs for the SpTC subset
};

/// Routing decision and payload for one panel.
struct PanelRouting {
  std::vector<std::uint32_t> dense_columns;  ///< original column ids
  std::vector<std::uint32_t> cuda_columns;
  std::size_t cuda_nnz = 0;  ///< nonzeros routed to CUDA cores
};

struct HybridPlan {
  HybridOptions options;
  JigsawFormat format;            ///< SpTC subset, standard Jigsaw format
  ReorderResult reorder;          ///< for stats
  std::vector<PanelRouting> routing;  ///< one per panel

  std::size_t total_dense_columns() const;
  std::size_t total_cuda_columns() const;
};

/// Classifies columns and preprocesses the SpTC subset.
HybridPlan hybrid_plan(const DenseMatrix<fp16_t>& a,
                       const HybridOptions& options = {});

struct HybridRunResult {
  std::optional<DenseMatrix<float>> c;
  gpusim::KernelReport report;
};

/// Executes the fused hybrid kernel: the simulated report of all three
/// pipes and, when `options.compute_values`, hybrid_compute's product.
/// The fused epilogue of `options` is ignored here (the engine applies it
/// after the three pipes merge).
HybridRunResult hybrid_run(const HybridPlan& plan,
                           const DenseMatrix<fp16_t>& a,
                           const DenseMatrix<fp16_t>& b,
                           const gpusim::CostModel& cost_model,
                           const EngineOptions::Run& options = {});

/// Functional path only (the analogue of jigsaw_compute): SpTC tiles
/// through the Jigsaw path, dense tiles through mma.m16n8k16, CUDA-routed
/// nonzeros through scalar FMAs; the three partial products accumulate
/// into one C, in that order. `a` is the operand the plan was built from.
DenseMatrix<float> hybrid_compute(const HybridPlan& plan,
                                  const DenseMatrix<fp16_t>& a,
                                  const DenseMatrix<fp16_t>& b);

}  // namespace jigsaw::core
