#ifndef ETSQP_SIMD_AGG_SIMD_H_
#define ETSQP_SIMD_AGG_SIMD_H_

#include <climits>
#include <cstddef>
#include <cstdint>

namespace etsqp::simd {

/// Vectorized aggregation kernels (paper Definition 2's f(e, mask)). Values
/// are 32-bit offsets; accumulation widens to 64-bit lanes, so per-kernel
/// overflow is impossible for < 2^32 inputs. The final combination across
/// kernels uses the checked 64-bit helpers below, implementing the
/// lane-sign overflow detection of Section VI-C.

/// Unmasked sum (aggregation after pruning already cut the range).
int64_t SumInt32(const int32_t* values, size_t n);

/// Unmasked min/max over n > 0 values.
void MinMaxInt32(const int32_t* values, size_t n, int32_t* min_out,
                 int32_t* max_out);

/// Count, sum, min and max of the values[i] in [lo, hi] — the filtered
/// aggregate of Definition 2 in one compare-and-accumulate pass, with no
/// mask array between the filter and the aggregate. `want_sum` and
/// `want_min_max` false skip those accumulators (sum stays 0, min/max at
/// INT32_MAX/INT32_MIN); the count is always exact.
struct RangeAggregate {
  uint64_t count = 0;
  int64_t sum = 0;
  int32_t min = INT32_MAX;
  int32_t max = INT32_MIN;
};
RangeAggregate RangeAggregateInt32(const int32_t* values, size_t n,
                                   int32_t lo, int32_t hi, bool want_sum,
                                   bool want_min_max);

/// The two residual sums of the fused TS2DIFF SUM (Section IV), taken
/// straight from a block's bit-packed residuals: over r_k = residual
/// first + k of the `width`-bit Big-Endian run at `packed`, k < n,
///   sum  = sum_k r_k            (carries the running value X on), and
///   ramp = sum_k (n - k) r_k    (the slice's weighted Delta term).
/// AVX2 unpacks 8 residuals into a register with the UnpackPlan shuffle,
/// masks the lanes outside the slice in its first and last vector and
/// accumulates B += S; S += v — two adds per vector, no multiply, no
/// residual buffer. Per lane l, sum_t t r_{t,l} = (N-1) S_l - B_l over the
/// N vectors; 32-bit lanes flush into 64-bit ones before they can wrap.
/// width <= 32; `packed` must expose 32 readable bytes past its
/// `packed_bytes` (the column buffer's slack).
struct RampSums {
  uint64_t sum = 0;
  unsigned __int128 ramp = 0;
};
RampSums PackedRampSum(const uint8_t* packed, size_t packed_bytes, int width,
                       size_t first, size_t n);

/// Forced-path variants.
RangeAggregate RangeAggregateInt32Scalar(const int32_t* values, size_t n,
                                         int32_t lo, int32_t hi,
                                         bool want_sum, bool want_min_max);
RangeAggregate RangeAggregateInt32Avx2(const int32_t* values, size_t n,
                                       int32_t lo, int32_t hi, bool want_sum,
                                       bool want_min_max);
RampSums PackedRampSumScalar(const uint8_t* packed, size_t packed_bytes,
                             int width, size_t first, size_t n);
RampSums PackedRampSumAvx2(const uint8_t* packed, size_t packed_bytes,
                           int width, size_t first, size_t n);

/// Checked 64-bit accumulation (Section VI-C): returns false on overflow,
/// detected by comparing operand and result lane signs.
bool CheckedAddInt64(int64_t a, int64_t b, int64_t* out);
bool CheckedSumInt64(const int64_t* values, size_t n, int64_t* out);

}  // namespace etsqp::simd

#endif  // ETSQP_SIMD_AGG_SIMD_H_
