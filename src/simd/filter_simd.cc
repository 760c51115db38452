#include "simd/filter_simd.h"

#include <immintrin.h>

#include <cstring>

#include "common/bit_util.h"
#include "common/cpu.h"

namespace etsqp::simd {

void RangeFilterMaskInt32Scalar(const int32_t* values, size_t n, int32_t lo,
                                int32_t hi, uint64_t* mask) {
  size_t words = CeilDiv(n, 64);
  std::memset(mask, 0, words * sizeof(uint64_t));
  for (size_t i = 0; i < n; ++i) {
    if (values[i] >= lo && values[i] <= hi) {
      mask[i >> 6] |= 1ull << (i & 63);
    }
  }
}

void RangeFilterMaskInt32Avx2(const int32_t* values, size_t n, int32_t lo,
                              int32_t hi, uint64_t* mask) {
  size_t words = CeilDiv(n, 64);
  std::memset(mask, 0, words * sizeof(uint64_t));
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  size_t iters = n / 8;
  for (size_t k = 0; k < iters; ++k) {
    __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + k * 8));
    // v >= lo  <=>  !(lo > v);  v <= hi  <=>  !(v > hi)
    __m256i ge = _mm256_cmpgt_epi32(vlo, v);
    __m256i le = _mm256_cmpgt_epi32(v, vhi);
    __m256i bad = _mm256_or_si256(ge, le);
    uint32_t lanes = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(bad)));
    uint64_t good = (~static_cast<uint64_t>(lanes)) & 0xFFu;
    size_t bit = k * 8;
    mask[bit >> 6] |= good << (bit & 63);
  }
  for (size_t i = iters * 8; i < n; ++i) {
    if (values[i] >= lo && values[i] <= hi) {
      mask[i >> 6] |= 1ull << (i & 63);
    }
  }
}

void RangeFilterMaskInt32(const int32_t* values, size_t n, int32_t lo,
                          int32_t hi, uint64_t* mask) {
  if (UseAvx2()) {
    RangeFilterMaskInt32Avx2(values, n, lo, hi, mask);
  } else {
    RangeFilterMaskInt32Scalar(values, n, lo, hi, mask);
  }
}

}  // namespace etsqp::simd
