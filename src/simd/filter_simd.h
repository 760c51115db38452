#ifndef ETSQP_SIMD_FILTER_SIMD_H_
#define ETSQP_SIMD_FILTER_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace etsqp::simd {

/// Vectorized range filters producing bit masks (paper Definition 2's filter
/// operator; one bit per tuple, 1 = satisfies the predicate). Masks are
/// stored as packed uint64 words, LSB = lowest tuple index within the word.

/// mask[i] = (lo <= values[i] <= hi). `mask` must hold CeilDiv(n, 64) words;
/// bits past n are zero.
void RangeFilterMaskInt32(const int32_t* values, size_t n, int32_t lo,
                          int32_t hi, uint64_t* mask);

/// Forced-path variants.
void RangeFilterMaskInt32Scalar(const int32_t* values, size_t n, int32_t lo,
                                int32_t hi, uint64_t* mask);
void RangeFilterMaskInt32Avx2(const int32_t* values, size_t n, int32_t lo,
                              int32_t hi, uint64_t* mask);

}  // namespace etsqp::simd

#endif  // ETSQP_SIMD_FILTER_SIMD_H_
