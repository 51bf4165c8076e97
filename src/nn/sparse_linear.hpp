// Inference-layer abstraction over the Jigsaw kernel.
//
// A SparseLinear owns the one-time Jigsaw plan of its pruned weights, an
// optional bias and activation, and exposes forward(): activations in,
// activations out, plus the simulated kernel report. SequentialModel
// chains layers (a pruned MLP / transformer FFN stack) and aggregates
// per-layer timing — the deployment shape a downstream user of the paper
// would actually build.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/kernel.hpp"
#include "matrix/vector_sparse.hpp"

namespace jigsaw::nn {

/// Forward result of one layer (or one model pass).
struct Forward {
  DenseMatrix<float> activations;           ///< out_features x batch
  std::vector<gpusim::KernelReport> reports;  ///< one per layer executed
  double total_us() const;
};

/// Configuration of a SparseLinear layer.
struct SparseLinearOptions {
  core::KernelVersion version = core::KernelVersion::kV4;
  core::Epilogue::Activation activation = core::Epilogue::Activation::kNone;
  bool with_bias = true;
  std::string name = "linear";
};

/// A pruned fully-connected layer: y = act(W x + bias), W sparse.
class SparseLinear {
 public:
  using Options = SparseLinearOptions;

  /// Preprocesses the weights (reorder + format) and keeps only the
  /// plan. `bias` must have out_features entries when enabled.
  SparseLinear(VectorSparseMatrix weights, std::vector<float> bias,
               Options options = {});

  /// Convenience: random bias drawn from the weight generator's family.
  static SparseLinear make_random(std::size_t out_features,
                                  std::size_t in_features, double sparsity,
                                  std::size_t vector_width,
                                  std::uint64_t seed, Options options = {});

  std::size_t in_features() const { return plan_.formats.front().cols(); }
  std::size_t out_features() const { return plan_.formats.front().rows(); }
  const std::string& name() const { return options_.name; }
  const core::JigsawPlan& plan() const { return plan_; }
  double preprocess_seconds() const { return plan_.preprocess_seconds; }

  /// x: in_features x batch (fp16 activations). Returns out_features x
  /// batch fp32 plus the kernel report.
  Forward forward(const DenseMatrix<fp16_t>& x,
                  const gpusim::CostModel& cost_model) const;

 private:
  std::vector<float> bias_;
  Options options_;
  core::JigsawPlan plan_;
};

/// A chain of SparseLinear layers; forward() threads activations through
/// (re-quantizing to fp16 between layers, as inference engines do) and
/// concatenates the per-layer reports.
class SequentialModel {
 public:
  void add(SparseLinear layer);
  std::size_t size() const { return layers_.size(); }
  const SparseLinear& layer(std::size_t i) const { return layers_.at(i); }

  /// Total one-time preprocessing across layers.
  double preprocess_seconds() const;

  Forward forward(const DenseMatrix<fp16_t>& x,
                  const gpusim::CostModel& cost_model) const;

 private:
  std::vector<SparseLinear> layers_;
};

/// Quantizes fp32 activations to fp16 for the next layer's RHS.
DenseMatrix<fp16_t> quantize_activations(const DenseMatrix<float>& x);

}  // namespace jigsaw::nn
