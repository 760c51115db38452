#ifndef ETSQP_SIMD_MERGE_BLOCK_H_
#define ETSQP_SIMD_MERGE_BLOCK_H_

// The block rule shared by the adaptive merge kernels, and the adaptive
// two-way intersection loop behind IntersectIndicesInt64Avx2 and -Avx512.
// Private to the merge kernels: merge_simd.cc and merge_simd_avx512.cc each
// instantiate the loop with a lane policy from their own anonymous
// namespace, so every instantiation keeps its translation unit's ISA flags.

#include <cstddef>
#include <cstdint>

namespace etsqp::simd {

/// Steps per block of the adaptive two-way loops. Cheap scalar steps run by
/// default; only a block whose steps all took one side (or, in the
/// intersection, all matched) hands off to a vector scan. Vector skipping
/// pays only once runs outgrow the vector width (Lemire, Boytsov & Kurz),
/// and a run that fills a whole block is 2-8 vectors long.
constexpr size_t kMergeBlock = 16;
static_assert(kMergeBlock == 16, "the step loops unroll one whole block");

/// `Lanes` supplies the vector half for one ISA:
///   kWidth                       lanes per compare
///   AllEqual(l, r)               l[0..kWidth) == r[0..kWidth) pairwise
///   StoreRamp(out, base)         out[k] = base + k for k < kWidth
///   SkipBelow(t, begin, n, b)    first index >= begin with t[index] >= b
/// Output equals IntersectIndicesInt64Scalar: the steps are its steps, a
/// pairwise-equal block is what it emits on equal heads, and a skipped
/// stretch is one it walks without a match.
template <typename Lanes>
size_t AdaptiveIntersect(const int64_t* l, size_t nl, const int64_t* r,
                         size_t nr, uint32_t* out_l, uint32_t* out_r) {
  constexpr size_t kW = Lanes::kWidth;
  size_t i = 0, j = 0, m = 0;
  while (i + kMergeBlock <= nl && j + kMergeBlock <= nr) {
    const size_t i0 = i, j0 = j, m0 = m;
#pragma GCC unroll 16
    for (size_t s = 0; s < kMergeBlock; ++s) {
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
    if (m - m0 == kMergeBlock) {
      // Same clock on both sides: emit pairwise-equal vectors whole.
      while (i + kW <= nl && j + kW <= nr && Lanes::AllEqual(l + i, r + j)) {
        Lanes::StoreRamp(out_l + m, i);
        Lanes::StoreRamp(out_r + m, j);
        m += kW;
        i += kW;
        j += kW;
      }
    } else if (j == j0) {
      i = Lanes::SkipBelow(l, i, nl, r[j]);
    } else if (i == i0) {
      j = Lanes::SkipBelow(r, j, nr, l[i]);
    }
  }
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

}  // namespace etsqp::simd

#endif  // ETSQP_SIMD_MERGE_BLOCK_H_
