#include "simd/merge_simd.h"

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "common/cpu.h"
#include "simd/merge_block.h"
#include "simd/transposed_unpack_avx512.h"

namespace etsqp::simd {

namespace {

/// Skew threshold past which the dispatcher gallops instead of scanning.
/// Block-skip only pays once gaps exceed the vector width, and the
/// exponential probe costs O(log advance) per short-side element — past
/// ~8x skew galloping dominates every lane width we dispatch to.
constexpr size_t kGallopRatio = 8;

inline int CountTrailingZeros(unsigned mask) { return __builtin_ctz(mask); }

/// First index >= `begin` with times[idx] > bound (AVX2 4-lane scan).
size_t RunEndLeq(const int64_t* times, size_t begin, size_t n, int64_t bound) {
  size_t i = begin;
  const __m256i bv = _mm256_set1_epi64x(bound);
  while (i + 4 <= n) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(times + i));
    int gt = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(x, bv)));
    if (gt != 0) return i + CountTrailingZeros(static_cast<unsigned>(gt));
    i += 4;
  }
  while (i < n && times[i] <= bound) ++i;
  return i;
}

/// First index >= `begin` with times[idx] >= bound.
size_t RunEndLt(const int64_t* times, size_t begin, size_t n, int64_t bound) {
  size_t i = begin;
  const __m256i bv = _mm256_set1_epi64x(bound);
  while (i + 4 <= n) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(times + i));
    int lt = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(bv, x)));
    int ge = ~lt & 0xF;
    if (ge != 0) return i + CountTrailingZeros(static_cast<unsigned>(ge));
    i += 4;
  }
  while (i < n && times[i] < bound) ++i;
  return i;
}

/// Lane policy for AdaptiveIntersect (simd/merge_block.h).
struct Avx2Lanes {
  static constexpr size_t kWidth = 4;
  static bool AllEqual(const int64_t* l, const int64_t* r) {
    __m256i lv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(l));
    __m256i rv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r));
    return _mm256_movemask_pd(
               _mm256_castsi256_pd(_mm256_cmpeq_epi64(lv, rv))) == 0xF;
  }
  static void StoreRamp(uint32_t* out, size_t base) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                     _mm_add_epi32(_mm_set1_epi32(static_cast<int>(base)),
                                   _mm_setr_epi32(0, 1, 2, 3)));
  }
  static size_t SkipBelow(const int64_t* t, size_t begin, size_t n,
                          int64_t bound) {
    return RunEndLt(t, begin, n, bound);
  }
};

/// Galloping core: `s` is the short side, `g` the long side. The outputs
/// are already swapped by the wrapper so pairs land on the right columns.
size_t GallopCore(const int64_t* s, size_t ns, const int64_t* g, size_t ng,
                  uint32_t* out_s, uint32_t* out_g) {
  size_t i = 0, j = 0, m = 0;
  while (i < ns && j < ng) {
    int64_t v = s[i];
    if (g[j] < v) {
      // Exponential probe keeps the invariant g[lo] < v, then a binary
      // search in (lo, lo+step] pins the lower bound of v.
      size_t lo = j, step = 1;
      while (lo + step < ng && g[lo + step] < v) {
        lo += step;
        step <<= 1;
      }
      size_t end = std::min(lo + step + 1, ng);
      j = static_cast<size_t>(std::lower_bound(g + lo + 1, g + end, v) - g);
      if (j >= ng) break;
    }
    if (g[j] == v) {
      // Element-wise pairing across the equal runs (min run length pairs).
      size_t ri = i + 1;
      while (ri < ns && s[ri] == v) ++ri;
      size_t rj = j + 1;
      while (rj < ng && g[rj] == v) ++rj;
      size_t run = std::min(ri - i, rj - j);
      for (size_t t = 0; t < run; ++t) {
        out_s[m] = static_cast<uint32_t>(i + t);
        out_g[m] = static_cast<uint32_t>(j + t);
        ++m;
      }
      i = ri;
      j = rj;
    } else {  // g[j] > v: nothing in g equals v, skip its whole run in s
      while (i < ns && s[i] == v) ++i;
    }
  }
  return m;
}

}  // namespace

MergeIsa BestMergeIsa() {
  if (!UseAvx2()) return MergeIsa::kScalar;
  return Avx512Available() ? MergeIsa::kAvx512 : MergeIsa::kAvx2;
}

size_t IntersectIndicesInt64Scalar(const int64_t* l, size_t nl,
                                   const int64_t* r, size_t nr,
                                   uint32_t* out_l, uint32_t* out_r) {
  size_t i = 0, j = 0, m = 0;
  while (i < nl && j < nr) {
    if (l[i] < r[j]) {
      ++i;
    } else if (r[j] < l[i]) {
      ++j;
    } else {
      out_l[m] = static_cast<uint32_t>(i);
      out_r[m] = static_cast<uint32_t>(j);
      ++m;
      ++i;
      ++j;
    }
  }
  return m;
}

size_t IntersectIndicesInt64Avx2(const int64_t* l, size_t nl, const int64_t* r,
                                 size_t nr, uint32_t* out_l, uint32_t* out_r) {
  return AdaptiveIntersect<Avx2Lanes>(l, nl, r, nr, out_l, out_r);
}

size_t GallopIntersectIndicesInt64(const int64_t* l, size_t nl,
                                   const int64_t* r, size_t nr,
                                   uint32_t* out_l, uint32_t* out_r) {
  return nl <= nr ? GallopCore(l, nl, r, nr, out_l, out_r)
                  : GallopCore(r, nr, l, nl, out_r, out_l);
}

size_t IntersectIndicesInt64(const int64_t* l, size_t nl, const int64_t* r,
                             size_t nr, uint32_t* out_l, uint32_t* out_r,
                             MergeIsa isa) {
  if (nl == 0 || nr == 0) return 0;
  if (isa != MergeIsa::kScalar &&
      (nl / kGallopRatio > nr || nr / kGallopRatio > nl)) {
    return GallopIntersectIndicesInt64(l, nl, r, nr, out_l, out_r);
  }
  switch (isa) {
    case MergeIsa::kAvx512:
      if (UseAvx2() && Avx512Available()) {
        return IntersectIndicesInt64Avx512(l, nl, r, nr, out_l, out_r);
      }
      [[fallthrough]];
    case MergeIsa::kAvx2:
      if (UseAvx2()) return IntersectIndicesInt64Avx2(l, nl, r, nr, out_l,
                                                      out_r);
      [[fallthrough]];
    default:
      return IntersectIndicesInt64Scalar(l, nl, r, nr, out_l, out_r);
  }
}

size_t MergeUnionInt64Scalar(const int64_t* lt, const int64_t* lv, size_t nl,
                             const int64_t* rt, const int64_t* rv, size_t nr,
                             int64_t* out_t, int64_t* out_v) {
  size_t i = 0, j = 0, m = 0;
  while (i < nl || j < nr) {
    bool take_left = j >= nr || (i < nl && lt[i] <= rt[j]);
    if (take_left) {
      out_t[m] = lt[i];
      out_v[m] = lv[i];
      ++i;
    } else {
      out_t[m] = rt[j];
      out_v[m] = rv[j];
      ++j;
    }
    ++m;
  }
  return m;
}

namespace {

/// Two-pointer union steps from (*pi, *pj) in blocks of kMergeBlock while
/// both sides hold a whole block. Returns after a block that took one side
/// only, or when a side runs short. The output cursor is always i + j.
/// Kept out of line: inlined beside the run copies, the cursors spill.
[[gnu::noinline]] void UnionSteps(const int64_t* lt, const int64_t* lv,
                                  size_t nl, const int64_t* rt,
                                  const int64_t* rv, size_t nr,
                                  int64_t* out_t, int64_t* out_v, size_t* pi,
                                  size_t* pj) {
  size_t i = *pi, j = *pj;
  // Strict bounds: a step reads the next head of the side it advanced.
  while (i + kMergeBlock < nl && j + kMergeBlock < nr) {
    const size_t i0 = i;
    int64_t* ot = out_t + i + j;
    int64_t* ov = out_v + i + j;
    int64_t a = lt[i], b = rt[j];
#pragma GCC unroll 16
    for (size_t s = 0; s < kMergeBlock; ++s) {
      if (a <= b) {
        ot[s] = a;
        ov[s] = lv[i];
        a = lt[++i];
      } else {
        ot[s] = b;
        ov[s] = rv[j];
        b = rt[++j];
      }
    }
    if (i - i0 == kMergeBlock || i == i0) break;
  }
  *pi = i;
  *pj = j;
}

}  // namespace

size_t MergeUnionInt64(const int64_t* lt, const int64_t* lv, size_t nl,
                       const int64_t* rt, const int64_t* rv, size_t nr,
                       int64_t* out_t, int64_t* out_v, MergeIsa isa) {
  if (isa == MergeIsa::kScalar || !UseAvx2()) {
    return MergeUnionInt64Scalar(lt, lv, nl, rt, rv, nr, out_t, out_v);
  }
  size_t i = 0, j = 0;
  while (true) {
    UnionSteps(lt, lv, nl, rt, rv, nr, out_t, out_v, &i, &j);
    if (i == nl || j == nr) break;
    // After a one-sided block, or with a block or less left on one side
    // (at most 2 * kMergeBlock + 1 runs): bulk-copy the next run, what one
    // side holds up to the other side's head (ties go left).
    if (lt[i] <= rt[j]) {
      const size_t e = RunEndLeq(lt, i, nl, rt[j]);
      std::memcpy(out_t + i + j, lt + i, (e - i) * sizeof(int64_t));
      std::memcpy(out_v + i + j, lv + i, (e - i) * sizeof(int64_t));
      i = e;
    } else {
      const size_t e = RunEndLt(rt, j, nr, lt[i]);
      std::memcpy(out_t + i + j, rt + j, (e - j) * sizeof(int64_t));
      std::memcpy(out_v + i + j, rv + j, (e - j) * sizeof(int64_t));
      j = e;
    }
  }
  // One side is spent; guarded because an empty side may be null.
  if (i < nl) {
    std::memcpy(out_t + i + j, lt + i, (nl - i) * sizeof(int64_t));
    std::memcpy(out_v + i + j, lv + i, (nl - i) * sizeof(int64_t));
  }
  if (j < nr) {
    std::memcpy(out_t + nl + j, rt + j, (nr - j) * sizeof(int64_t));
    std::memcpy(out_v + nl + j, rv + j, (nr - j) * sizeof(int64_t));
  }
  return nl + nr;
}

}  // namespace etsqp::simd
