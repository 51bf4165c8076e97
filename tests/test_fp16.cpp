// Unit tests of the software binary16 type: conversions, rounding mode,
// special values, and round-trip exactness.
#include "common/fp16.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace jigsaw {
namespace {

TEST(Fp16, ZeroIsAllBitsClear) {
  EXPECT_EQ(fp16_t(0.0f).bits(), 0u);
  EXPECT_TRUE(fp16_t(0.0f).is_zero());
}

TEST(Fp16, NegativeZeroIsZero) {
  EXPECT_EQ(fp16_t(-0.0f).bits(), 0x8000u);
  EXPECT_TRUE(fp16_t(-0.0f).is_zero());
  EXPECT_EQ(fp16_t(-0.0f), fp16_t(0.0f));
}

TEST(Fp16, SimpleValuesExact) {
  for (const float v : {1.0f, -1.0f, 2.0f, 0.5f, 0.25f, -3.5f, 1024.0f}) {
    EXPECT_EQ(static_cast<float>(fp16_t(v)), v) << v;
  }
}

TEST(Fp16, KnownBitPatterns) {
  EXPECT_EQ(fp16_t(1.0f).bits(), 0x3c00u);
  EXPECT_EQ(fp16_t(-2.0f).bits(), 0xc000u);
  EXPECT_EQ(fp16_t(65504.0f).bits(), 0x7bffu);  // max finite half
  EXPECT_EQ(fp16_t(0x1.0p-14f).bits(), 0x0400u);  // min normal
  EXPECT_EQ(fp16_t(0x1.0p-24f).bits(), 0x0001u);  // min subnormal
}

TEST(Fp16, RoundTripAllBitPatterns) {
  // Every finite half value must survive half -> float -> half exactly.
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const auto h = fp16_t::from_bits(static_cast<std::uint16_t>(bits));
    const float f = static_cast<float>(h);
    if (std::isnan(f)) continue;  // NaN payloads need not round-trip
    const fp16_t back(f);
    EXPECT_EQ(back.bits(), h.bits()) << "bits=" << bits;
  }
}

float half_value(std::uint32_t bits) {
  return static_cast<float>(
      fp16_t::from_bits(static_cast<std::uint16_t>(bits)));
}

TEST(Fp16, ToFloatMatchesArithmeticOnEveryHalf) {
  // The value each pattern encodes, computed in double with ldexp.
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const std::uint32_t sign = bits >> 15, exp = (bits >> 10) & 0x1fu;
    const std::uint32_t mant = bits & 0x3ffu;
    const float got = half_value(bits);
    std::uint32_t want;
    if (exp == 0x1f) {  // Inf, or NaN with the payload moved up 13 bits
      want = sign << 31 | 0x7f800000u | mant << 13;
    } else {
      const double magnitude =
          exp == 0 ? std::ldexp(static_cast<double>(mant), -24)
                   : std::ldexp(static_cast<double>(1024 + mant),
                                static_cast<int>(exp) - 25);
      want = std::bit_cast<std::uint32_t>(
          static_cast<float>(sign != 0 ? -magnitude : magnitude));
    }
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got), want) << "bits=" << bits;
  }
}

/// fp16_t(v)'s expected value for a non-NaN v: |v| rounded to a multiple
/// of its binade's half quantum (2^-24 below 2^-14), ties to even, in
/// double; a result of 2^16 or more is Inf.
double rounded_to_half(float v) {
  if (std::isinf(v)) return v;
  const double a = std::fabs(static_cast<double>(v));
  int e = 0;
  (void)std::frexp(a, &e);  // a in [2^(e-1), 2^e)
  const double quantum = a < 0x1p-14 ? 0x1p-24 : std::ldexp(1.0, e - 11);
  double r = std::nearbyint(a / quantum) * quantum;
  if (r >= 0x1p16) r = std::numeric_limits<double>::infinity();
  return std::signbit(v) ? -r : r;
}

void expect_rounds_like_arithmetic(float v) {
  const fp16_t h(v);
  const double want = rounded_to_half(v);
  const float got = static_cast<float>(h);
  ASSERT_EQ(static_cast<double>(got), want)
      << "v=0x" << std::hex << std::bit_cast<std::uint32_t>(v);
  ASSERT_EQ(std::signbit(got), std::signbit(v))
      << "v=0x" << std::hex << std::bit_cast<std::uint32_t>(v);
}

TEST(Fp16, FromFloatMatchesArithmeticOnAStridedSweep) {
  // Every 4099th pattern, so each binade and sign is sampled densely.
  for (std::uint64_t u = 0; u <= 0xffffffffull; u += 4099) {
    const float v = std::bit_cast<float>(static_cast<std::uint32_t>(u));
    if (std::isnan(v)) {
      ASSERT_TRUE(std::isnan(static_cast<float>(fp16_t(v)))) << u;
      continue;
    }
    expect_rounds_like_arithmetic(v);
  }
}

TEST(Fp16, FromFloatMatchesArithmeticAtEveryRoundingBoundary) {
  // Each midpoint between neighbouring finite halves (the last one is the
  // overflow threshold 65520), and the floats on either side of it.
  for (std::uint32_t bits = 0; bits < 0x7c00u; ++bits) {
    const double lo = half_value(bits);
    const double hi = bits + 1 < 0x7c00u ? half_value(bits + 1) : 65536.0;
    const auto mid = static_cast<float>((lo + hi) / 2);  // exact
    for (const float v :
         {std::nextafter(mid, 0.0f), mid, std::nextafter(mid, 1e9f)}) {
      expect_rounds_like_arithmetic(v);
      expect_rounds_like_arithmetic(-v);
    }
  }
}

TEST(Fp16, RoundToNearestEvenTies) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half (1+2^-10):
  // ties-to-even keeps 1.0 (even mantissa).
  EXPECT_EQ(fp16_t(1.0f + 0x1.0p-11f).bits(), fp16_t(1.0f).bits());
  // (1 + 2^-10) + 2^-11 is halfway between two halves whose lower one has
  // an odd mantissa: rounds up to 1 + 2^-9.
  EXPECT_EQ(fp16_t(1.0f + 0x1.0p-10f + 0x1.0p-11f).bits(),
            fp16_t(1.0f + 0x1.0p-9f).bits());
  // Just above the halfway point rounds up.
  EXPECT_EQ(fp16_t(1.0f + 0x1.0p-11f + 0x1.0p-20f).bits(),
            fp16_t(1.0f + 0x1.0p-10f).bits());
}

TEST(Fp16, OverflowToInfinity) {
  EXPECT_EQ(fp16_t(65520.0f).bits(), 0x7c00u);   // rounds to +inf
  EXPECT_EQ(fp16_t(-65520.0f).bits(), 0xfc00u);  // rounds to -inf
  EXPECT_EQ(fp16_t(1e30f).bits(), 0x7c00u);
  EXPECT_TRUE(std::isinf(static_cast<float>(fp16_t(1e30f))));
}

TEST(Fp16, MaxFiniteDoesNotOverflow) {
  EXPECT_EQ(fp16_t(65519.0f).bits(), 0x7bffu);  // rounds down to 65504
}

TEST(Fp16, UnderflowToZero) {
  EXPECT_EQ(fp16_t(0x1.0p-26f).bits(), 0u);
  EXPECT_EQ(fp16_t(-0x1.0p-26f).bits(), 0x8000u);
}

TEST(Fp16, SubnormalRounding) {
  // 1.5 * 2^-24 is halfway between subnormals 1 and 2 ulp: even -> 2 ulp.
  EXPECT_EQ(fp16_t(1.5f * 0x1.0p-24f).bits(), 0x0002u);
  // 0.5 * 2^-24 is halfway between 0 and 1 ulp: even -> 0.
  EXPECT_EQ(fp16_t(0.5f * 0x1.0p-24f).bits(), 0x0000u);
}

TEST(Fp16, InfinityAndNan) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(fp16_t(inf).bits(), 0x7c00u);
  EXPECT_EQ(fp16_t(-inf).bits(), 0xfc00u);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(static_cast<float>(fp16_t(nan))));
}

TEST(Fp16, QuantizeIdempotent) {
  for (const float v : {0.1f, 0.3333f, 2.7182818f, -123.456f}) {
    const float q = quantize_fp16(v);
    EXPECT_EQ(quantize_fp16(q), q);
    // Quantization error is bounded by half an ulp (~2^-11 relative).
    EXPECT_NEAR(q, v, std::fabs(v) * 0x1.0p-10f);
  }
}

TEST(Fp16, IsZeroOnlyForZeros) {
  EXPECT_FALSE(fp16_t(0x1.0p-24f).is_zero());
  EXPECT_FALSE(fp16_t(1.0f).is_zero());
  EXPECT_TRUE(fp16_t::from_bits(0x0000).is_zero());
  EXPECT_TRUE(fp16_t::from_bits(0x8000).is_zero());
}

}  // namespace
}  // namespace jigsaw
