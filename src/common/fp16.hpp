// Software IEEE-754 binary16 ("half") emulation.
//
// The Jigsaw kernels compute in fp16 with fp32 accumulation, matching the
// behaviour of Ampere tensor-core HMMA with float accumulators. This type
// stores the 16-bit pattern and converts to/from float with
// round-to-nearest-even, the rounding mode the hardware uses. Both
// conversions are inline where the execute path meets them: half to float
// always, float to half for results in the normal half range (the rest
// goes through float_to_bits).
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>

namespace jigsaw {

/// 16-bit IEEE-754 binary16 value. Trivially copyable; arithmetic is done
/// by converting to float, so use fp16_t for *storage* and float/double for
/// accumulation, exactly as a tensor-core kernel would.
class fp16_t {
 public:
  constexpr fp16_t() = default;
  /// Converts from float with round-to-nearest-even (ties to even).
  explicit fp16_t(float v) : bits_(round_to_bits(v)) {}

  /// Reinterprets a raw 16-bit pattern as an fp16 value.
  static constexpr fp16_t from_bits(std::uint16_t bits) {
    fp16_t h;
    h.bits_ = bits;
    return h;
  }

  /// Converts to float (exact: every binary16 value is representable).
  /// The magnitude's exponent and mantissa move up 13 bits and the
  /// exponent is rebiased by 112; Inf/NaN rebias once more to 255, and
  /// zero and subnormals are normalized by an exact float subtract.
  explicit operator float() const {
    constexpr std::uint32_t kExpMask = 0x7c00u << 13;
    std::uint32_t o = (std::uint32_t{bits_} & 0x7fffu) << 13;
    const std::uint32_t exp = o & kExpMask;
    o += 112u << 23;
    if (exp == kExpMask) {
      o += 112u << 23;
    } else if (exp == 0) {
      o += 1u << 23;
      o = std::bit_cast<std::uint32_t>(std::bit_cast<float>(o) -
                                       std::bit_cast<float>(113u << 23));
    }
    return std::bit_cast<float>(o | (std::uint32_t{bits_} & 0x8000u) << 16);
  }

  constexpr std::uint16_t bits() const { return bits_; }

  constexpr bool is_zero() const { return (bits_ & 0x7fffu) == 0; }

  friend constexpr bool operator==(fp16_t a, fp16_t b) {
    // Bitwise equality except both zeros compare equal; NaNs compare by bits,
    // which is what the storage-format round-trip tests want.
    if (a.is_zero() && b.is_zero()) return true;
    return a.bits_ == b.bits_;
  }
  friend constexpr bool operator!=(fp16_t a, fp16_t b) { return !(a == b); }

  /// Round-to-nearest-even conversion of any float, out of line.
  static std::uint16_t float_to_bits(float v);

 private:
  /// True when |v| (the float bits `f`) lies in [2^-14, 65520), so the
  /// result is a normal half.
  static constexpr bool rounds_to_normal(std::uint32_t f) {
    return (f & 0x7fffffffu) - 0x38800000u < 0x477ff000u - 0x38800000u;
  }
  /// The normal-range conversion: rebias the exponent (127 -> 15), then
  /// round the 13 dropped mantissa bits to nearest even; a carry moves
  /// into the exponent correctly. The round-up test has no branch: its
  /// outcome follows the data, so a branch would be mispredicted.
  static constexpr std::uint16_t normal_to_bits(std::uint32_t f) {
    const std::uint32_t sign = (f >> 16) & 0x8000u;
    const std::uint32_t abs = f & 0x7fffffffu;
    const std::uint32_t result =
        (((abs >> 23) - 112u) << 10) | ((abs >> 13) & 0x03ffu);
    const std::uint32_t remainder = abs & 0x1fffu;
    const std::uint32_t round_up =
        std::uint32_t{remainder > 0x1000u} |
        (std::uint32_t{remainder == 0x1000u} & result);
    return static_cast<std::uint16_t>(sign | (result + (round_up & 1u)));
  }
  /// float_to_bits with the normal range taken inline; zero, subnormals,
  /// overflow, Inf and NaN go out of line.
  static std::uint16_t round_to_bits(float v) {
    const auto f = std::bit_cast<std::uint32_t>(v);
    return rounds_to_normal(f) ? normal_to_bits(f) : float_to_bits(v);
  }

  std::uint16_t bits_ = 0;
};

static_assert(sizeof(fp16_t) == 2, "fp16_t must be 2 bytes");

std::ostream& operator<<(std::ostream& os, fp16_t v);

/// Quantizes a float to the nearest fp16 value and back; used by generators
/// so that every kernel sees inputs that are exactly representable.
inline float quantize_fp16(float v) { return static_cast<float>(fp16_t(v)); }

}  // namespace jigsaw
