// Magicube stand-in (Li et al., SC'22): quantized strided-vector SpMM on
// the integer tensor cores. The paper evaluates the L16-R16 configuration
// (16-bit LHS and RHS), whose products decompose into four 8-bit partial
// products on the int8 MMA pipe, plus dequantization on CUDA cores.
// Magicube ships an extra-optimized path for v=8 (§4.2: ~50% fewer bank
// conflicts, ~10% fewer instructions than its v=2/4 paths).
#pragma once

#include <string>

#include "baselines/spmm_kernel.hpp"

namespace jigsaw::baselines {

/// Magicube quantization configuration: LHS/RHS bit widths. The paper
/// evaluates L16-R16; Magicube itself also ships L8-R8, L16-R8, L8-R4,
/// which trade accuracy for fewer int8 partial products.
struct MagicubeConfig {
  int lhs_bits = 16;
  int rhs_bits = 16;

  /// int8 partial products per logical MAC: ceil(l/8) * ceil(r/8).
  double partial_products() const {
    return ((lhs_bits + 7) / 8) * ((rhs_bits + 7) / 8);
  }
  std::string label() const {
    std::string s = "l";
    s += std::to_string(lhs_bits);
    s += 'r';
    s += std::to_string(rhs_bits);
    return s;
  }
};

class MagicubeKernel final : public SpmmKernel {
 public:
  explicit MagicubeKernel(MagicubeConfig config = {}) : config_(config) {}
  std::string name() const override { return "Magicube"; }
  SpmmResult run(const VectorSparseMatrix& a, const DenseMatrix<fp16_t>& b,
                 const gpusim::CostModel& cost_model,
                 const SpmmRunOptions& options) const override;

  static gpusim::KernelReport cost(const VectorSparseMatrix& a, std::size_t n,
                                   const gpusim::CostModel& cost_model,
                                   const MagicubeConfig& config = {});

  /// Functional path at the configured precision: quantize, multiply in
  /// integers, dequantize. Lower precisions produce larger (but bounded)
  /// numeric error; tests quantify it.
  static DenseMatrix<float> compute(const VectorSparseMatrix& a,
                                    const DenseMatrix<fp16_t>& b,
                                    const MagicubeConfig& config = {});

 private:
  MagicubeConfig config_;
};

}  // namespace jigsaw::baselines
