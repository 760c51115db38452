#ifndef ETSQP_SIMD_UNPACK_AVX2_H_
#define ETSQP_SIMD_UNPACK_AVX2_H_

// One AVX2 step of the natural-order unpack (paper Figure 3): 8 Big-Endian
// residuals from the `width` bytes at `src` into the 8 32-bit lanes of a
// register. Private to the kernels that consume the register where it is:
// the unpack into memory (unpack.cc) and the fused ramp sum (agg_simd.cc).

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "simd/unpack_plan.h"

namespace etsqp::simd {

/// Fast path (width <= 25): shuffle, variable shift, mask.
inline __m256i UnpackIterFast(const uint8_t* src, const UnpackPlan& plan) {
  __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
  __m128i hi = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(src + plan.hi_offset));
  __m256i v = _mm256_set_m128i(hi, lo);
  __m256i shuf = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(plan.shuffle));
  __m256i shift = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(plan.shift));
  v = _mm256_shuffle_epi8(v, shuf);
  v = _mm256_srlv_epi32(v, shift);
  return _mm256_and_si256(v, _mm256_set1_epi32(plan.mask));
}

/// Wide path (width 26..32) as two 4-value steps: values 0-3 in the 64-bit
/// lanes of halves[0], values 4-7 in those of halves[1].
inline void UnpackIterWideHalves(const uint8_t* src, const UnpackPlan& plan,
                                 __m256i halves[2]) {
  for (int s = 0; s < 2; ++s) {
    const UnpackPlan::WideStep& step = plan.steps[s];
    __m128i lo = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + step.lo_offset));
    __m128i hi = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + step.hi_offset));
    __m256i v = _mm256_set_m128i(hi, lo);
    __m256i shuf = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(step.shuffle));
    __m256i shift = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(step.shift));
    v = _mm256_shuffle_epi8(v, shuf);
    v = _mm256_srlv_epi64(v, shift);
    v = _mm256_and_si256(v, _mm256_set1_epi64x(
                                static_cast<long long>(plan.mask64)));
    halves[s] = v;
  }
}

/// Wide path (width 26..32) into 8 32-bit lanes.
inline __m256i UnpackIterWide(const uint8_t* src, const UnpackPlan& plan) {
  __m256i halves[2];
  UnpackIterWideHalves(src, plan, halves);
  // Compact 2 x (4 x 64-bit) -> 8 x 32-bit. Low 32 bits of each 64-bit lane
  // hold the value (width <= 32).
  const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  __m256i a = _mm256_permutevar8x32_epi32(halves[0], pick);
  __m256i b = _mm256_permutevar8x32_epi32(halves[1], pick);
  return _mm256_permute2x128_si256(a, b, 0x20);
}

/// Bytes one step reads from `src` on: its last 16-byte load ends there.
inline int UnpackIterReadBytes(const UnpackPlan& plan) {
  if (!plan.wide) return plan.hi_offset + 16;
  return std::max(plan.steps[0].hi_offset, plan.steps[1].hi_offset) + 16;
}

}  // namespace etsqp::simd

#endif  // ETSQP_SIMD_UNPACK_AVX2_H_
