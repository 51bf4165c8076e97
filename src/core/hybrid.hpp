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
//       - DENSE  (dense tensor core, mma.m16n8k16): columns with more than
//         kDenseRouteMinNnz nonzeros (12 of 16 rows) in some 16-row slice
//         — they would force the two-per-group fallback on the SpTC;
//       - CUDA   (CUDA cores): columns with at most kCudaRouteMaxNnz
//         nonzeros in the panel — too thin to feed a tensor core;
//       - SPTC   (the standard Jigsaw path): everything in between;
//   * the SpTC subset goes through the unchanged multi-granularity reorder
//     and reorder-aware format (via its column filter);
//   * dense-routed columns form plain 16-wide dense tiles; CUDA-routed
//     nonzeros are kept in per-panel coordinate lists;
//   * one fused kernel report charges all three pipes, which the cost
//     model naturally overlaps (tensor core, CUDA core and memory are
//     independent resources). Like the paper's kernels, it is costed from
//     the plan and the RHS width alone.
#pragma once

#include <cstdint>
#include <vector>

#include "core/kernel.hpp"

namespace jigsaw::core {

enum class Route : std::uint8_t { kSpTC = 0, kDenseTC = 1, kCudaCore = 2 };

/// A column with more than this many nonzeros in some 16-row slice (75%)
/// goes to the dense tensor core: it would force the two-per-group SpTC
/// fallback, while borderline columns stay with the reorder, which often
/// still packs them at full utilization.
inline constexpr std::uint32_t kDenseRouteMinNnz = 12;
/// A column with at most this many nonzeros in its panel goes to the CUDA
/// cores (here and in checked_compile's degraded panels).
inline constexpr std::uint32_t kCudaRouteMaxNnz = 2;

/// Routing decision and payload for one panel.
struct PanelRouting {
  std::vector<std::uint32_t> dense_columns;  ///< original column ids
  std::vector<std::uint32_t> cuda_columns;
  std::size_t cuda_nnz = 0;  ///< nonzeros routed to CUDA cores
};

struct HybridPlan {
  JigsawFormat format;                ///< SpTC subset at the plan's BLOCK_TILE
  ReorderResult reorder;              ///< for stats
  std::vector<PanelRouting> routing;  ///< one per panel

  std::size_t total_dense_columns() const;
  std::size_t total_cuda_columns() const;
};

/// Classifies columns by kDenseRouteMinNnz and kCudaRouteMaxNnz and
/// preprocesses the SpTC subset, with `compile` resolved under kHybrid
/// (only its block_tile and reorder are read). BLOCK_TILE 16 routes at
/// single-slice precision, which keeps the dense detour from dragging
/// whole 64-row columns with it.
HybridPlan hybrid_plan(const DenseMatrix<fp16_t>& a,
                       const EngineOptions::Compile& compile);

/// Simulated report of the fused hybrid kernel against an n-column RHS:
/// the SpTC subset's V4 cost walk plus the dense-TC and CUDA-core pipes.
/// The fused epilogue is not charged (the engine applies it after the
/// three pipes merge).
gpusim::KernelReport hybrid_cost(const HybridPlan& plan, std::size_t n,
                                 const gpusim::CostModel& cost_model,
                                 const JigsawTuning& tuning = {});

/// Functional path only (the analogue of jigsaw_compute): SpTC tiles
/// through the Jigsaw path, dense tiles through mma.m16n8k16, CUDA-routed
/// nonzeros through scalar FMAs; the three partial products accumulate
/// into one C, in that order. `a` is the operand the plan was built from.
DenseMatrix<float> hybrid_compute(const HybridPlan& plan,
                                  const DenseMatrix<fp16_t>& a,
                                  const DenseMatrix<fp16_t>& b);

}  // namespace jigsaw::core
