#ifndef ETSQP_COMMON_BIT_UTIL_H_
#define ETSQP_COMMON_BIT_UTIL_H_

#include <bit>
#include <cstdint>

namespace etsqp {

/// Number of bits needed to represent `v` (0 maps to 0 bits).
inline int BitWidth(uint64_t v) { return v == 0 ? 0 : 64 - std::countl_zero(v); }

/// Low-`bits` mask. `bits` must be in [0, 64].
inline uint64_t MaskLow64(int bits) {
  return bits >= 64 ? ~0ull : ((1ull << bits) - 1);
}
inline uint32_t MaskLow32(int bits) {
  return bits >= 32 ? ~0u : ((1u << bits) - 1);
}

/// ZigZag maps signed integers to unsigned so small-magnitude values (positive
/// or negative) get small codes: 0,-1,1,-2,2 -> 0,1,2,3,4. Used by Sprintz
/// packing (paper Table I).
inline uint64_t ZigZagEncode64(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode64(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Two's-complement wrapping arithmetic (modulo 2^64 / 2^32). Delta codecs
/// store differences of arbitrary series modulo the word size, so encoders
/// of extreme values and decoders of corrupt input must wrap instead of
/// overflowing a signed type (undefined behaviour).
inline int64_t WrapAdd64(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrapSub64(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int32_t WrapAdd32(int32_t a, int32_t b) {
  return static_cast<int32_t>(static_cast<uint32_t>(a) +
                              static_cast<uint32_t>(b));
}

/// Rounds `n` up to the next multiple of `m` (m > 0).
inline size_t RoundUp(size_t n, size_t m) { return (n + m - 1) / m * m; }
inline size_t CeilDiv(size_t n, size_t m) { return (n + m - 1) / m; }

/// Checked signed addition for the width-derived delta bounds. Returns true
/// on overflow.
inline bool AddOverflow64(int64_t a, int64_t b, int64_t* out) {
  return __builtin_add_overflow(a, b, out);
}

}  // namespace etsqp

#endif  // ETSQP_COMMON_BIT_UTIL_H_
