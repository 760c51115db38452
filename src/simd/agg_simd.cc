#include "simd/agg_simd.h"

#include <immintrin.h>

#include <algorithm>
#include <climits>

#include "common/cpu.h"

namespace etsqp::simd {

namespace {

/// Expands the low 8 bits of `bits` into 8 full 32-bit lane masks.
inline __m256i LaneMaskFromBits(uint32_t bits) {
  const __m256i sel = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  __m256i b = _mm256_set1_epi32(static_cast<int>(bits & 0xFF));
  return _mm256_cmpeq_epi32(_mm256_and_si256(b, sel), sel);
}

inline int64_t HorizontalSum64(__m256i v) {
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

/// Widens the 8 int32 lanes of `v` and adds them into two 4x64 accumulators.
inline void AccumulateWiden(__m256i v, __m256i* acc_lo, __m256i* acc_hi) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  *acc_lo = _mm256_add_epi64(*acc_lo, _mm256_cvtepi32_epi64(lo));
  *acc_hi = _mm256_add_epi64(*acc_hi, _mm256_cvtepi32_epi64(hi));
}

}  // namespace

int64_t MaskedSumInt32Scalar(const int32_t* values, const uint64_t* mask,
                             size_t n) {
  int64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    if (mask[i >> 6] & (1ull << (i & 63))) sum += values[i];
  }
  return sum;
}

int64_t MaskedSumInt32Avx2(const int32_t* values, const uint64_t* mask,
                           size_t n) {
  __m256i acc_lo = _mm256_setzero_si256();
  __m256i acc_hi = _mm256_setzero_si256();
  size_t iters = n / 8;
  for (size_t k = 0; k < iters; ++k) {
    size_t bit = k * 8;
    uint32_t m = static_cast<uint32_t>(mask[bit >> 6] >> (bit & 63)) & 0xFF;
    if (m == 0) continue;
    __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + k * 8));
    v = _mm256_and_si256(v, LaneMaskFromBits(m));
    AccumulateWiden(v, &acc_lo, &acc_hi);
  }
  int64_t sum = HorizontalSum64(acc_lo) + HorizontalSum64(acc_hi);
  for (size_t i = iters * 8; i < n; ++i) {
    if (mask[i >> 6] & (1ull << (i & 63))) sum += values[i];
  }
  return sum;
}

int64_t MaskedSumInt32(const int32_t* values, const uint64_t* mask,
                       size_t n) {
  return UseAvx2() ? MaskedSumInt32Avx2(values, mask, n)
                   : MaskedSumInt32Scalar(values, mask, n);
}

bool MaskedMinMaxInt32(const int32_t* values, const uint64_t* mask, size_t n,
                       int32_t* min_out, int32_t* max_out) {
  int32_t mn = INT32_MAX;
  int32_t mx = INT32_MIN;
  bool any = false;
  if (UseAvx2() && n >= 8) {
    __m256i vmn = _mm256_set1_epi32(INT32_MAX);
    __m256i vmx = _mm256_set1_epi32(INT32_MIN);
    size_t iters = n / 8;
    for (size_t k = 0; k < iters; ++k) {
      size_t bit = k * 8;
      uint32_t m = static_cast<uint32_t>(mask[bit >> 6] >> (bit & 63)) & 0xFF;
      if (m == 0) continue;
      any = true;
      __m256i lane_mask = LaneMaskFromBits(m);
      __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + k * 8));
      __m256i v_for_min =
          _mm256_blendv_epi8(_mm256_set1_epi32(INT32_MAX), v, lane_mask);
      __m256i v_for_max =
          _mm256_blendv_epi8(_mm256_set1_epi32(INT32_MIN), v, lane_mask);
      vmn = _mm256_min_epi32(vmn, v_for_min);
      vmx = _mm256_max_epi32(vmx, v_for_max);
    }
    alignas(32) int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmn);
    for (int i = 0; i < 8; ++i) mn = std::min(mn, lanes[i]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmx);
    for (int i = 0; i < 8; ++i) mx = std::max(mx, lanes[i]);
    for (size_t i = iters * 8; i < n; ++i) {
      if (mask[i >> 6] & (1ull << (i & 63))) {
        any = true;
        mn = std::min(mn, values[i]);
        mx = std::max(mx, values[i]);
      }
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (mask[i >> 6] & (1ull << (i & 63))) {
        any = true;
        mn = std::min(mn, values[i]);
        mx = std::max(mx, values[i]);
      }
    }
  }
  if (!any) return false;
  *min_out = mn;
  *max_out = mx;
  return true;
}

int64_t SumInt32(const int32_t* values, size_t n) {
  if (!UseAvx2()) {
    int64_t sum = 0;
    for (size_t i = 0; i < n; ++i) sum += values[i];
    return sum;
  }
  __m256i acc_lo = _mm256_setzero_si256();
  __m256i acc_hi = _mm256_setzero_si256();
  size_t iters = n / 8;
  for (size_t k = 0; k < iters; ++k) {
    __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + k * 8));
    AccumulateWiden(v, &acc_lo, &acc_hi);
  }
  int64_t sum = HorizontalSum64(acc_lo) + HorizontalSum64(acc_hi);
  for (size_t i = iters * 8; i < n; ++i) sum += values[i];
  return sum;
}

void MinMaxInt32(const int32_t* values, size_t n, int32_t* min_out,
                 int32_t* max_out) {
  int32_t mn = values[0];
  int32_t mx = values[0];
  size_t i = 1;
  if (UseAvx2() && n >= 16) {
    __m256i vmn = _mm256_set1_epi32(mn);
    __m256i vmx = vmn;
    size_t iters = n / 8;
    for (size_t k = 0; k < iters; ++k) {
      __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + k * 8));
      vmn = _mm256_min_epi32(vmn, v);
      vmx = _mm256_max_epi32(vmx, v);
    }
    alignas(32) int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmn);
    for (int l = 0; l < 8; ++l) mn = std::min(mn, lanes[l]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmx);
    for (int l = 0; l < 8; ++l) mx = std::max(mx, lanes[l]);
    i = iters * 8;
  }
  for (; i < n; ++i) {
    mn = std::min(mn, values[i]);
    mx = std::max(mx, values[i]);
  }
  *min_out = mn;
  *max_out = mx;
}

int64_t WeightedRampSumInt32Scalar(const int32_t* values, size_t n,
                                   int64_t* sum) {
  int64_t r = 0;
  int64_t s = 0;
  for (size_t i = 0; i < n; ++i) {
    r += static_cast<int64_t>(n - i) * values[i];
    s += values[i];
  }
  *sum = s;
  return r;
}

int64_t WeightedRampSumInt32Avx2(const int32_t* values, size_t n,
                                 int64_t* sum) {
  __m256i acc = _mm256_setzero_si256();
  __m256i acc_lo = _mm256_setzero_si256();
  __m256i acc_hi = _mm256_setzero_si256();
  const __m256i down = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  size_t iters = n / 8;
  for (size_t k = 0; k < iters; ++k) {
    __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + k * 8));
    __m256i w = _mm256_sub_epi32(
        _mm256_set1_epi32(static_cast<int>(n - k * 8)), down);
    // 32x32 -> 64 products for even and odd lanes.
    __m256i pe = _mm256_mul_epi32(v, w);
    __m256i po = _mm256_mul_epi32(_mm256_srli_epi64(v, 32),
                                  _mm256_srli_epi64(w, 32));
    acc = _mm256_add_epi64(acc, _mm256_add_epi64(pe, po));
    AccumulateWiden(v, &acc_lo, &acc_hi);
  }
  int64_t r = HorizontalSum64(acc);
  int64_t s = HorizontalSum64(acc_lo) + HorizontalSum64(acc_hi);
  for (size_t i = iters * 8; i < n; ++i) {
    r += static_cast<int64_t>(n - i) * values[i];
    s += values[i];
  }
  *sum = s;
  return r;
}

int64_t WeightedRampSumInt32(const int32_t* values, size_t n, int64_t* sum) {
  return UseAvx2() ? WeightedRampSumInt32Avx2(values, n, sum)
                   : WeightedRampSumInt32Scalar(values, n, sum);
}

bool CheckedAddInt64(int64_t a, int64_t b, int64_t* out) {
  return !__builtin_add_overflow(a, b, out);
}

bool CheckedSumInt64(const int64_t* values, size_t n, int64_t* out) {
  int64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    if (__builtin_add_overflow(sum, values[i], &sum)) return false;
  }
  *out = sum;
  return true;
}

}  // namespace etsqp::simd
