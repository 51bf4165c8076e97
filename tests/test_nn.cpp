// SparseLinear / SequentialModel tests: shape contracts, numeric
// equivalence with an explicit reference pipeline, report aggregation,
// and repeated forwards reusing the plan's BLOCK_TILE choice.
#include "nn/sparse_linear.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "matrix/reference.hpp"
#include "obs/metrics.hpp"

namespace jigsaw::nn {
namespace {

DenseMatrix<fp16_t> random_input(std::size_t features, std::size_t batch,
                                 std::uint64_t seed) {
  DenseMatrix<fp16_t> x(features, batch);
  Rng rng(seed);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = fp16_t(rng.uniform(-0.5f, 0.5f));
  }
  return x;
}

TEST(SparseLinear, ForwardMatchesExplicitReference) {
  auto layer = SparseLinear::make_random(64, 96, 0.9, 4, 11,
                                         {.activation =
                                              core::Epilogue::Activation::kRelu,
                                          .with_bias = true,
                                          .name = "fc1"});
  const auto x = random_input(96, 16, 12);
  gpusim::CostModel cm;
  const auto fwd = layer.forward(x, cm);
  EXPECT_EQ(fwd.activations.rows(), 64u);
  EXPECT_EQ(fwd.activations.cols(), 16u);
  EXPECT_EQ(fwd.reports.size(), 1u);
  EXPECT_GT(fwd.total_us(), 0.0);

  // Explicit reference: regenerate the deterministic weights/bias, compute
  // W x + bias, then ReLU.
  VectorSparseOptions gen;
  gen.rows = 64;
  gen.cols = 96;
  gen.sparsity = 0.9;
  gen.vector_width = 4;
  gen.seed = 11;
  auto ref = reference_gemm(VectorSparseGenerator::generate(gen).values(), x);
  Rng rng(mix_seed(11, 0xb1a5));
  std::vector<float> bias(64);
  for (auto& v : bias) v = rng.uniform(-0.1f, 0.1f);
  for (std::size_t r = 0; r < ref.rows(); ++r) {
    for (std::size_t j = 0; j < ref.cols(); ++j) {
      const float v = ref(r, j) + bias[r];
      ref(r, j) = v > 0.0f ? v : 0.0f;
    }
  }
  EXPECT_LE(max_abs_diff(fwd.activations, ref), gemm_tolerance(96, 2.0));
}

TEST(SparseLinear, RepeatedForwardWalksNoCandidates) {
  // The layer's plan memoizes its BLOCK_TILE choice per batch width: the
  // first forward walks the three V4 candidates, the next one none, and
  // both report the same simulated time.
  auto layer = SparseLinear::make_random(
      64, 96, 0.9, 4, 13,
      {.activation = core::Epilogue::Activation::kGelu, .name = "fc"});
  const auto x = random_input(96, 16, 14);
  gpusim::CostModel cm;
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  auto walks = [] { return obs::counter("kernel.v4.cost_walks").value(); };
  const double w0 = walks();
  const Forward first = layer.forward(x, cm);
  const double w1 = walks();
  const Forward second = layer.forward(x, cm);
  const double w2 = walks();
  obs::set_metrics_enabled(false);
  EXPECT_EQ(w1 - w0, 3.0);
  EXPECT_EQ(w2 - w1, 0.0);
  EXPECT_EQ(second.total_us(), first.total_us());
  EXPECT_TRUE(second.activations == first.activations);
}

TEST(SparseLinear, RejectsWrongInputShape) {
  auto layer = SparseLinear::make_random(32, 64, 0.9, 4, 3, {});
  gpusim::CostModel cm;
  EXPECT_THROW(layer.forward(random_input(63, 4, 1), cm), Error);
}

TEST(SparseLinear, RejectsBadBiasLength) {
  VectorSparseOptions gen;
  gen.rows = 32;
  gen.cols = 32;
  gen.sparsity = 0.9;
  gen.vector_width = 4;
  gen.seed = 5;
  auto w = VectorSparseGenerator::generate(gen);
  EXPECT_THROW(SparseLinear(std::move(w), std::vector<float>(7), {}), Error);
}

TEST(SequentialModel, ChainsLayersAndAggregates) {
  SequentialModel model;
  model.add(SparseLinear::make_random(
      128, 64, 0.9, 4, 21,
      {.activation = core::Epilogue::Activation::kGelu, .name = "up"}));
  model.add(SparseLinear::make_random(64, 128, 0.9, 4, 22, {.name = "down"}));
  EXPECT_EQ(model.size(), 2u);
  EXPECT_GT(model.preprocess_seconds(), 0.0);

  const auto x = random_input(64, 8, 23);
  gpusim::CostModel cm;
  const auto fwd = model.forward(x, cm);
  EXPECT_EQ(fwd.activations.rows(), 64u);
  EXPECT_EQ(fwd.activations.cols(), 8u);
  EXPECT_EQ(fwd.reports.size(), 2u);
  EXPECT_NEAR(fwd.total_us(),
              fwd.reports[0].duration_us + fwd.reports[1].duration_us, 1e-9);
}

TEST(SequentialModel, RejectsShapeMismatch) {
  SequentialModel model;
  model.add(SparseLinear::make_random(128, 64, 0.9, 4, 31, {}));
  EXPECT_THROW(model.add(SparseLinear::make_random(64, 96, 0.9, 4, 32, {})),
               Error);
}

TEST(SequentialModel, EmptyModelThrows) {
  SequentialModel model;
  gpusim::CostModel cm;
  EXPECT_THROW(model.forward(random_input(8, 1, 1), cm), Error);
}

TEST(QuantizeActivations, RoundsToFp16) {
  DenseMatrix<float> x(1, 3);
  x(0, 0) = 0.1f;
  x(0, 1) = -2.0f;
  x(0, 2) = 70000.0f;  // overflows fp16 -> inf
  const auto q = quantize_activations(x);
  EXPECT_NEAR(static_cast<float>(q(0, 0)), 0.1f, 1e-4);
  EXPECT_EQ(static_cast<float>(q(0, 1)), -2.0f);
  EXPECT_TRUE(std::isinf(static_cast<float>(q(0, 2))));
}

}  // namespace
}  // namespace jigsaw::nn
