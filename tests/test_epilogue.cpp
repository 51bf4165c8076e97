// Fused-epilogue tests: bias and activation semantics, numeric agreement
// with an unfused reference, the four-lane tanh against glibc's tanhf,
// and the cost model's fusion accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
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

// tanhf (glibc 2.36, x86-64) of inputs that reach every branch of its
// fdlibm code and of the expm1f it calls, as float bit patterns. k is
// expm1's reduction exponent for the argument 2|x| (|x| >= 1) or -2|x|.
struct TanhCase {
  std::uint32_t in, out;
};
constexpr TanhCase kTanhCases[] = {
    {0x00000000u, 0x00000000u},  // +0
    {0x80000000u, 0x80000000u},  // -0
    {0x23800000u, 0x23800000u},  // 2^-56: x * (1 + x)
    {0xa3800000u, 0xa3800000u},  // -2^-56
    {0x23ffffffu, 0x23ffffffu},  // just below 2^-55
    {0x24000000u, 0x24000000u},  // 2^-55: expm1's |x| < 2^-25 branch
    {0x24000001u, 0x24000001u},
    {0x30800000u, 0x30800000u},  // 2^-30
    {0xb0800000u, 0xb0800000u},  // -2^-30
    {0x327fffffu, 0x327fffffu},  // expm1's 2^-25 edge
    {0x32800000u, 0x32800000u},  // k = 0
    {0x3e317218u, 0x3e2fb0cdu},  // expm1's 0.5 ln2 edge: k = 0
    {0x3e317219u, 0x3e2fb0cdu},  // k = -1
    {0x3ecccccdu, 0x3ec288acu},  // 0.4: k = -1
    {0x3f051591u, 0x3ef486f8u},  // expm1's 1.5 ln2 edge: k = -1
    {0x3f051592u, 0x3ef486f8u},  // k = -2
    {0xbf051592u, 0xbef486f8u},
    {0x3f19999au, 0x3f097c15u},  // 0.6: k = -2
    {0x3f666666u, 0x3f375f4cu},  // 0.9: k = -3
    {0xbf666666u, 0xbf375f4cu},
    {0x3f7fffffu, 0x3f42f7d5u},  // below 1: k = -3
    {0x3f800000u, 0x3f42f7d6u},  // 1: 1 - 2 / (expm1(2) + 2), k = 3
    {0xbf800000u, 0xbf42f7d6u},
    {0x3f800001u, 0x3f42f7d6u},
    {0x40000000u, 0x3f76ca83u},  // 2: k = 6
    {0x40f33333u, 0x3f7ffff8u},  // 7.6: k = 22
    {0xc0f33333u, 0xbf7ffff8u},
    {0x41000000u, 0x3f7ffffcu},  // 8: k = 23
    {0x419b3333u, 0x3f800000u},  // 19.4: k = 56
    {0x419e6666u, 0x3f800000u},  // 19.8: k = 57
    {0xc19e6666u, 0xbf800000u},
    {0x41afeb85u, 0x3f800000u},  // 21.99
    {0x41afffffu, 0x3f800000u},  // just below 22
    {0x41b00000u, 0x3f800000u},  // 22: 1 - 1e-30
    {0xc1b00000u, 0xbf800000u},
    {0x7149f2cau, 0x3f800000u},  // 1e30
    {0xf149f2cau, 0xbf800000u},
    {0x7f800000u, 0x3f800000u},  // +Inf: 1/x + 1
    {0xff800000u, 0xbf800000u},  // -Inf: 1/x - 1
    {0x7fc00000u, 0x7fc00000u},  // NaN
};

/// Bit pattern of a product value; NaNs fold to one pattern.
std::uint32_t float_bits(float x) {
  return std::isnan(x) ? 0x7fc00000u : std::bit_cast<std::uint32_t>(x);
}

TEST(Tanh4, MatchesGlibcTanhfOnEveryBranch) {
  constexpr std::size_t n = std::size(kTanhCases);
  for (std::size_t lane = 0; lane < 4; ++lane) {
    // Case i sits in lane `lane`; the other lanes carry its neighbours.
    for (std::size_t i = 0; i < n; ++i) {
      std::array<float, 4> in;
      for (std::size_t l = 0; l < 4; ++l) {
        in[l] = std::bit_cast<float>(kTanhCases[(i + n + l - lane) % n].in);
      }
      const std::array<float, 4> out = tanh4(in);
      EXPECT_EQ(float_bits(out[lane]), kTanhCases[i].out)
          << "tanh(0x" << std::hex << kTanhCases[i].in << ") in lane "
          << lane;
    }
  }
}

TEST(Tanh4, MatchesGlibcTanhfOnAStridedSweep) {
  // Every 1021st float bit pattern (4 206 629 inputs, about 8200 per
  // binade), folded into an FNV-1a hash of the result bits in input
  // order; the hash was taken from glibc 2.36's tanhf on x86-64. The
  // table above reaches every branch; this reaches the last bits of
  // each. Results of a build that contracts to FMA differ, as the golden
  // products in test_kernel do, so that build skips.
#if !defined(__x86_64__) || defined(__FMA__)
  GTEST_SKIP() << "pinned for x86-64 without FMA";
#endif
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto fold = [&](float y) {
    const std::uint32_t bits = float_bits(y);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  };
  constexpr std::uint64_t kStride = 1021;
  std::array<float, 4> in{};
  std::size_t filled = 0;
  for (std::uint64_t u = 0; u <= 0xffffffffull; u += kStride) {
    in[filled++] = std::bit_cast<float>(static_cast<std::uint32_t>(u));
    if (filled == 4) {
      for (const float y : tanh4(in)) fold(y);
      filled = 0;
    }
  }
  const std::array<float, 4> tail = tanh4(in);
  for (std::size_t l = 0; l < filled; ++l) fold(tail[l]);
  EXPECT_EQ(hash, 0x86b4d3eedb7c637eull) << "got 0x" << std::hex << hash;
}

TEST(Tanh4, PermutingTheLanesPermutesTheResults) {
  const std::array<float, 4> in = {-0.6f, 0x1p-40f, 8.0f, -30.0f};
  const std::array<float, 4> out = tanh4(in);
  std::array<std::size_t, 4> perm = {0, 1, 2, 3};
  do {
    std::array<float, 4> permuted;
    for (std::size_t l = 0; l < 4; ++l) permuted[l] = in[perm[l]];
    const std::array<float, 4> got = tanh4(permuted);
    for (std::size_t l = 0; l < 4; ++l) {
      EXPECT_EQ(float_bits(got[l]), float_bits(out[perm[l]]));
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(Epilogue, FusedWriteBackMatchesApplyBitwise) {
  // The kernel's write-back takes GELU four columns at a time and the
  // rest through apply; both must give apply's bits at every width.
  const auto p = make_problem(13);
  const JigsawPlan plan = jigsaw_plan(p.a, {});
  const JigsawFormat& f = plan.formats.front();
  Rng rng(14);
  for (const std::size_t n : {1u, 3u, 4u, 5u, 64u}) {
    DenseMatrix<fp16_t> b(p.a.cols(), n);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b.data()[i] = fp16_t(rng.uniform(-2.0f, 2.0f));
    }
    const DenseMatrix<float> plain = jigsaw_compute(f, b);
    const std::vector<float>* const biases[] = {nullptr, &p.bias};
    for (const auto activation :
         {Epilogue::Activation::kNone, Epilogue::Activation::kRelu,
          Epilogue::Activation::kGelu}) {
      for (const std::vector<float>* bias : biases) {
        const Epilogue epilogue{.activation = activation, .bias = bias};
        const DenseMatrix<float> fused = jigsaw_compute(f, b, epilogue);
        for (std::size_t r = 0; r < plain.rows(); ++r) {
          for (std::size_t j = 0; j < n; ++j) {
            ASSERT_EQ(float_bits(fused(r, j)),
                      float_bits(epilogue.apply(plain(r, j), r)))
                << "n=" << n << " activation="
                << static_cast<int>(activation)
                << " bias=" << (bias != nullptr) << " at (" << r << ", "
                << j << ")";
          }
        }
      }
    }
  }
}

TEST(Epilogue, RejectsABiasOfTheWrongLength) {
  const auto p = make_problem();
  const JigsawPlan plan = jigsaw_plan(p.a, {});
  const JigsawFormat& f = plan.formats.front();
  for (const std::size_t len : {p.a.rows() - 1, p.a.rows() + 1}) {
    const std::vector<float> bias(len, 1.0f);
    const Epilogue epilogue{.activation = Epilogue::Activation::kGelu,
                            .bias = &bias};
    EXPECT_THROW((void)jigsaw_compute(f, p.b, epilogue), Error) << len;
  }
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
