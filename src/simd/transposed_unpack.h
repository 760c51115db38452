#ifndef ETSQP_SIMD_TRANSPOSED_UNPACK_H_
#define ETSQP_SIMD_TRANSPOSED_UNPACK_H_

#include <cstddef>
#include <cstdint>

namespace etsqp::simd {

/// Algorithm 1 of the paper: dynamic-layout unpacking plus Delta recovery.
/// A chunk of n_v * 8 packed residuals is unpacked straight into n_v SIMD
/// vectors in the transposed layout of Figures 4-6 (consecutive deltas share
/// a lane across vectors), then recovered with n_v - 1 partial-sum additions,
/// one permute-based prefix-sum (3 permutevar8x32 + add steps), and one
/// broadcast add — instead of a serial carry per value.
///
/// Inputs are residuals r_c; the actual delta is min_delta + r_c. The kernel
/// produces, for every value index c (0-based within the decoded range), the
/// inclusive running sum S_c = sum_{k<=c} (min_delta + r_k) as a 32-bit
/// offset. The caller materializes values as first_value + S_c, or keeps the
/// (base, offsets) form for filtering/aggregation in registers.
///
/// Requirements: width <= 25 (4-byte windows — wider widths take the scalar
/// path), the true running sums must fit int32 (the engine checks block
/// statistics before choosing this path), and `data` must have 32 bytes of
/// readable slack past the packed region.

/// Decodes `n` residuals into natural-order inclusive running sums starting
/// from `init` (out[i] = init + S_i). Dispatches AVX-512/AVX2/scalar at
/// runtime. `n_v` in [1,16] selects the layout width (Proposition 1), which
/// runs as OrderedNumVectors(n_v); pass 0 for the default: a measured
/// per-width table on AVX-512 (transposed_unpack.cc), DefaultNumVectors on
/// AVX2.
void DeltaDecodeOffsets(const uint8_t* data, size_t data_size, size_t n,
                        int width, int32_t min_delta, int n_v, int32_t init,
                        int32_t* out);

/// Order-insensitive variant: the decoded running sums are stored in the
/// transposed chunk order of the requested n_v (vectors written straight
/// from registers, no transpose). The multiset of outputs equals the
/// ordered variant's — this is the form the pipeline's vectorized
/// operators consume when they share the SIMD layout (filters by value,
/// SUM/MIN/MAX/COUNT), mirroring the paper's register sharing between
/// decoders and query operators.
void DeltaDecodeOffsetsUnordered(const uint8_t* data, size_t data_size,
                                 size_t n, int width, int32_t min_delta,
                                 int n_v, int32_t init, int32_t* out);

/// Forced-path variants for tests/benches.
void DeltaDecodeOffsetsScalar(const uint8_t* data, size_t data_size, size_t n,
                              int width, int32_t min_delta, int32_t init,
                              int32_t* out);
void DeltaDecodeOffsetsAvx2(const uint8_t* data, size_t data_size, size_t n,
                            int width, int32_t min_delta, int n_v,
                            int32_t init, int32_t* out);
void DeltaDecodeOffsetsAvx2Unordered(const uint8_t* data, size_t data_size,
                                     size_t n, int width, int32_t min_delta,
                                     int n_v, int32_t init, int32_t* out);

/// Default n_v from Proposition 1 (see exec/cost_model for the derivation).
int DefaultNumVectors(int width);

/// The n_v a natural-order decode runs for a requested (or default) n_v:
/// the largest power of two in {1, 2, 4, 8, 16} not above it. At these n_v
/// the chunk goes back to natural order in registers, with no scalar
/// scatter: AVX-512 interleaves pairs of streams with one permutex2var per
/// output vector and stage (log2 n_v stages); AVX2 transposes each 128-bit
/// half with unpack{lo,hi}_epi32/epi64 and pairs the halves with one
/// permute2x128 per output vector. So w = 3's Prop. 1 n_v of 11 runs as 8,
/// w = 10's 6 as 4 and w = 25's 3 as 2. The unordered entry points run the
/// requested n_v as it is.
int OrderedNumVectors(int n_v);

}  // namespace etsqp::simd

#endif  // ETSQP_SIMD_TRANSPOSED_UNPACK_H_
