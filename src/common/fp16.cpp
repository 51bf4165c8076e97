#include "common/fp16.hpp"

#include <ostream>

namespace jigsaw {

std::uint16_t fp16_t::float_to_bits(float v) {
  const auto f = std::bit_cast<std::uint32_t>(v);
  const std::uint32_t sign = (f >> 16) & 0x8000u;
  const std::uint32_t abs = f & 0x7fffffffu;

  if (abs >= 0x7f800000u) {
    // Inf or NaN. Preserve NaN-ness with a quiet-NaN payload bit.
    const std::uint32_t mantissa = abs & 0x007fffffu;
    return static_cast<std::uint16_t>(sign | 0x7c00u |
                                      (mantissa != 0 ? 0x0200u : 0));
  }
  if (abs >= 0x477ff000u) {
    // Rounds to a magnitude >= 65520, which overflows binary16 -> Inf.
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs < 0x33000001u) {
    // Rounds to zero (below half of the smallest subnormal).
    return static_cast<std::uint16_t>(sign);
  }
  if (abs < 0x38800000u) {
    // Subnormal half: the result integer is round(1.f * 2^(E+24)) where E
    // is the unbiased float exponent, i.e. the 24-bit significand shifted
    // right by 126 - biased_exponent, rounded to nearest even.
    const std::uint32_t shift = 126u - (abs >> 23);  // 14..24
    const std::uint32_t mant = (abs & 0x007fffffu) | 0x00800000u;
    const std::uint32_t shifted = mant >> shift;
    const std::uint32_t remainder = mant & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    std::uint32_t result = shifted;
    if (remainder > halfway || (remainder == halfway && (shifted & 1u))) {
      ++result;  // Round up; may carry into the exponent, which is correct.
    }
    return static_cast<std::uint16_t>(sign | result);
  }

  return normal_to_bits(f);
}

std::ostream& operator<<(std::ostream& os, fp16_t v) {
  return os << static_cast<float>(v);
}

}  // namespace jigsaw
