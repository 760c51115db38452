#ifndef ETSQP_SIMD_AGG_SIMD_H_
#define ETSQP_SIMD_AGG_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace etsqp::simd {

/// Vectorized valid-value aggregation kernels (paper Definition 2's
/// f(e, mask)). Values are 32-bit offsets; accumulation widens to 64-bit
/// lanes, so per-kernel overflow is impossible for < 2^32 inputs. The final
/// combination across kernels uses the checked 64-bit helpers below,
/// implementing the lane-sign overflow detection of Section VI-C.

/// Sum of values[i] where mask bit i is set.
int64_t MaskedSumInt32(const int32_t* values, const uint64_t* mask, size_t n);

/// Min/max of selected values. Returns false when no bit is set.
bool MaskedMinMaxInt32(const int32_t* values, const uint64_t* mask, size_t n,
                       int32_t* min_out, int32_t* max_out);

/// Unmasked sum (aggregation after pruning already cut the range).
int64_t SumInt32(const int32_t* values, size_t n);

/// Unmasked min/max over n > 0 values.
void MinMaxInt32(const int32_t* values, size_t n, int32_t* min_out,
                 int32_t* max_out);

/// Descending-ramp weighted sum: returns sum_{i<n} (n - i) * values[i] and
/// sets *sum = sum_{i<n} values[i], both in one pass.
/// This is the fused-SUM kernel of Section IV: for TS2DIFF,
/// sum of a decoded range = count*X_a + sum (count-i)*(base+d_i), so SUM
/// aggregates directly over unpacked deltas with no Delta accumulation; the
/// plain sum carries the running value X to the next range, which is how a
/// sliding-window SUM reads each window's residuals once.
int64_t WeightedRampSumInt32(const int32_t* values, size_t n, int64_t* sum);

/// Forced-path variants.
int64_t MaskedSumInt32Scalar(const int32_t* values, const uint64_t* mask,
                             size_t n);
int64_t MaskedSumInt32Avx2(const int32_t* values, const uint64_t* mask,
                           size_t n);
int64_t WeightedRampSumInt32Scalar(const int32_t* values, size_t n,
                                   int64_t* sum);
int64_t WeightedRampSumInt32Avx2(const int32_t* values, size_t n,
                                 int64_t* sum);

/// Checked 64-bit accumulation (Section VI-C): returns false on overflow,
/// detected by comparing operand and result lane signs.
bool CheckedAddInt64(int64_t a, int64_t b, int64_t* out);
bool CheckedSumInt64(const int64_t* values, size_t n, int64_t* out);

}  // namespace etsqp::simd

#endif  // ETSQP_SIMD_AGG_SIMD_H_
