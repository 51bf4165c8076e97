// Fused-epilogue tests: bias and activation semantics, numeric agreement
// with an unfused reference, and the cost model's fusion accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "core/kernel.hpp"
#include "matrix/reference.hpp"
#include "matrix/vector_sparse.hpp"

namespace jigsaw::core {
namespace {

struct Problem {
  DenseMatrix<fp16_t> a;
  DenseMatrix<fp16_t> b;
  std::vector<float> bias;
};

Problem make_problem(std::uint64_t seed = 5) {
  VectorSparseOptions o;
  o.rows = 64;
  o.cols = 96;
  o.vector_width = 4;
  o.sparsity = 0.85;
  o.seed = seed;
  Problem p{VectorSparseGenerator::generate(o).values(),
            DenseMatrix<fp16_t>(96, 24), {}};
  Rng rng(seed + 1);
  for (std::size_t i = 0; i < p.b.size(); ++i) {
    p.b.data()[i] = fp16_t(rng.uniform(-1.0f, 1.0f));
  }
  p.bias.resize(64);
  for (auto& v : p.bias) v = rng.uniform(-2.0f, 2.0f);
  return p;
}

TEST(Epilogue, ApplySemantics) {
  std::vector<float> bias{1.0f, -1.0f};
  Epilogue none;
  EXPECT_FALSE(none.active());
  EXPECT_FLOAT_EQ(none.apply(-3.5f, 0), -3.5f);

  Epilogue relu;
  relu.activation = Epilogue::Activation::kRelu;
  EXPECT_TRUE(relu.active());
  EXPECT_FLOAT_EQ(relu.apply(-3.5f, 0), 0.0f);
  EXPECT_FLOAT_EQ(relu.apply(2.0f, 0), 2.0f);

  Epilogue biased;
  biased.bias = &bias;
  EXPECT_TRUE(biased.active());
  EXPECT_FLOAT_EQ(biased.apply(2.0f, 0), 3.0f);
  EXPECT_FLOAT_EQ(biased.apply(2.0f, 1), 1.0f);

  Epilogue both;
  both.bias = &bias;
  both.activation = Epilogue::Activation::kRelu;
  EXPECT_FLOAT_EQ(both.apply(0.5f, 1), 0.0f);  // bias first, then ReLU
}

TEST(Epilogue, GeluMatchesTanhApproximation) {
  Epilogue gelu;
  gelu.activation = Epilogue::Activation::kGelu;
  for (const float x : {-3.0f, -1.0f, 0.0f, 0.5f, 2.0f}) {
    const double u = 0.7978845608 * (x + 0.044715 * x * x * x);
    const double expected = 0.5 * x * (1.0 + std::tanh(u));
    EXPECT_NEAR(gelu.apply(x, 0), expected, 1e-5) << x;
  }
  EXPECT_NEAR(gelu.apply(0.0f, 0), 0.0f, 1e-7);
  EXPECT_NEAR(gelu.apply(10.0f, 0), 10.0f, 1e-4);  // ~identity for large x
}

TEST(Epilogue, FusedMatchesUnfusedReference) {
  const auto p = make_problem();
  gpusim::CostModel cm;
  const auto plan = jigsaw_plan(p.a, {});

  EngineOptions::Run opts;
  opts.epilogue.bias = &p.bias;
  opts.epilogue.activation = Epilogue::Activation::kRelu;
  const auto run = jigsaw_run(plan, p.b, cm, opts);

  auto expected = reference_gemm(p.a, p.b);
  for (std::size_t r = 0; r < expected.rows(); ++r) {
    for (std::size_t j = 0; j < expected.cols(); ++j) {
      const float x = expected(r, j) + p.bias[r];
      expected(r, j) = x > 0.0f ? x : 0.0f;
    }
  }
  EXPECT_LE(max_abs_diff(*run.c, expected), gemm_tolerance(p.a.cols(), 2.0));
}

TEST(Epilogue, CostAccountsForFusion) {
  const auto p = make_problem();
  gpusim::CostModel cm;
  const auto plan = jigsaw_plan(p.a, {});

  const auto plain = jigsaw_select(plan, p.b.cols(), cm);
  EngineOptions::Run opts;
  opts.epilogue.bias = &p.bias;
  opts.epilogue.activation = Epilogue::Activation::kGelu;
  const auto fused = jigsaw_select(plan, p.b.cols(), cm, opts);

  // The fused run charges CUDA-core work and the bias load, but never a
  // second pass over C (that is the point of fusing).
  EXPECT_GT(fused.report.counters.cuda_macs, 0.0);
  EXPECT_EQ(plain.report.counters.cuda_macs, 0.0);
  EXPECT_DOUBLE_EQ(fused.report.counters.dram_write_bytes,
                   plain.report.counters.dram_write_bytes);
  EXPECT_LT(fused.report.duration_cycles,
            plain.report.duration_cycles * 1.25);
}

TEST(Epilogue, BiasOnlyKeepsNegativeValues) {
  const auto p = make_problem(9);
  gpusim::CostModel cm;
  EngineOptions::Run opts;
  opts.epilogue.bias = &p.bias;
  const auto run = jigsaw_run(jigsaw_plan(p.a, {}), p.b, cm, opts);
  bool any_negative = false;
  for (std::size_t i = 0; i < run.c->size(); ++i) {
    any_negative |= run.c->data()[i] < 0.0f;
  }
  EXPECT_TRUE(any_negative);  // no activation clamps the range
}

}  // namespace
}  // namespace jigsaw::core
