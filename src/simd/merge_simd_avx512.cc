#include <immintrin.h>

#include "simd/merge_block.h"
#include "simd/merge_simd.h"
#include "simd/transposed_unpack_avx512.h"

namespace etsqp::simd {

namespace {

struct Avx512Lanes {
  static constexpr size_t kWidth = 8;
  static bool AllEqual(const int64_t* l, const int64_t* r) {
    return _mm512_cmpeq_epi64_mask(_mm512_loadu_si512(l),
                                   _mm512_loadu_si512(r)) == 0xFF;
  }
  static void StoreRamp(uint32_t* out, size_t base) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out),
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(base)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)));
  }
  static size_t SkipBelow(const int64_t* t, size_t begin, size_t n,
                          int64_t bound) {
    size_t i = begin;
    const __m512i bv = _mm512_set1_epi64(bound);
    while (i + 8 <= n) {
      const unsigned ge =
          _mm512_cmpge_epi64_mask(_mm512_loadu_si512(t + i), bv);
      if (ge != 0) return i + __builtin_ctz(ge);
      i += 8;
    }
    while (i < n && t[i] < bound) ++i;
    return i;
  }
};

}  // namespace

/// AVX-512 lanes for the adaptive intersection loop. This translation unit
/// carries the -mavx512* flags; callers must gate on Avx512Available() (the
/// dispatcher in merge_simd.cc does), and this function re-checks
/// defensively.
size_t IntersectIndicesInt64Avx512(const int64_t* l, size_t nl,
                                   const int64_t* r, size_t nr,
                                   uint32_t* out_l, uint32_t* out_r) {
  if (!Avx512Available()) {
    return IntersectIndicesInt64Avx2(l, nl, r, nr, out_l, out_r);
  }
  return AdaptiveIntersect<Avx512Lanes>(l, nl, r, nr, out_l, out_r);
}

}  // namespace etsqp::simd
