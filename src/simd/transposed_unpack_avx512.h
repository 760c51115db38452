#ifndef ETSQP_SIMD_TRANSPOSED_UNPACK_AVX512_H_
#define ETSQP_SIMD_TRANSPOSED_UNPACK_AVX512_H_

#include <cstddef>
#include <cstdint>

namespace etsqp::simd {

/// AVX-512 instantiation of Algorithm 1 (the paper's "extensible to other
/// quantities and instruction sets", Section II-B): w_SIMD = 512, so a chunk
/// holds n_v * 16 deltas and the prefix step runs ceil(log2 16) = 4
/// permute+add rounds. AVX-512VBMI's full-register byte permute
/// (vpermb) replaces the AVX2 per-128-bit-lane shuffle: one 64-byte load
/// feeds any lane of any output vector, so segment pairing is unnecessary.
///
/// Requires AVX-512BW + VBMI at runtime (see Available() below); callers
/// fall back to the AVX2/scalar paths otherwise.

bool Avx512Available();

/// Same contract as DeltaDecodeOffsets (natural-order inclusive running
/// sums starting from `init`), decoded with 512-bit vectors.
void DeltaDecodeOffsetsAvx512(const uint8_t* data, size_t data_size,
                              size_t n, int width, int32_t min_delta, int n_v,
                              int32_t init, int32_t* out);

/// Order-insensitive variant (transposed chunk order, no transpose).
void DeltaDecodeOffsetsAvx512Unordered(const uint8_t* data, size_t data_size,
                                       size_t n, int width, int32_t min_delta,
                                       int n_v, int32_t init, int32_t* out);

/// Natural-order constant-width unpack, 512-bit form: one 64-byte load +
/// masked vpermb + srlv + and yields 16 values per iteration (width <= 25).
/// Same contract as UnpackBE32Avx2.
void UnpackBE32Avx512(const uint8_t* data, size_t data_size, size_t n,
                      int width, uint32_t* out);

}  // namespace etsqp::simd

#endif  // ETSQP_SIMD_TRANSPOSED_UNPACK_AVX512_H_
