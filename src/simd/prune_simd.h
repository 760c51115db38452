#ifndef ETSQP_SIMD_PRUNE_SIMD_H_
#define ETSQP_SIMD_PRUNE_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace etsqp::simd {

/// Interval-overlap scan kernels for the pruning index (ARCHITECTURE.md
/// "Pruning index"): a flat, cache-resident min/max structure scanned with
/// packed compares in the style of the SIMD-ified R-tree work, so "which
/// series can possibly match" is answered in registers.
///
/// Input is a packed SoA of per-entry bounds. Entry i survives a probe
/// [t_lo, t_hi] x [v_lo, v_hi] when
///
///   time_min[i] <= t_hi && time_max[i] >= t_lo &&
///   (!value_active || (value_min[i] <= v_hi && value_max[i] >= v_lo))
///
/// All bounds are int64 keys: raw values for integer series, the
/// order-preserving key of storage::OrderedValueKey for float series (the
/// caller maps both sides of the compare into the same domain). Survivors
/// are written as packed uint64 mask words, LSB = entry 0 (the filter_simd
/// convention, CeilDiv(n, 64) words); the return value is the survivor
/// count. The node fan-out of the index is 64 entries, so one AVX-512 pass
/// (8 x 8 lanes) or two AVX2 passes fill exactly one mask word.

enum class PruneIsa { kScalar, kAvx2, kAvx512 };

/// Best ISA the host supports (honours SetSimdDisabledForTesting).
PruneIsa BestPruneIsa();

size_t PruneScanScalar(const int64_t* time_min, const int64_t* time_max,
                       const int64_t* value_min, const int64_t* value_max,
                       size_t n, int64_t t_lo, int64_t t_hi, bool value_active,
                       int64_t v_lo, int64_t v_hi, uint64_t* survivors);

/// 4 entries per step via _mm256_cmpgt_epi64 + movemask.
size_t PruneScanAvx2(const int64_t* time_min, const int64_t* time_max,
                     const int64_t* value_min, const int64_t* value_max,
                     size_t n, int64_t t_lo, int64_t t_hi, bool value_active,
                     int64_t v_lo, int64_t v_hi, uint64_t* survivors);

/// 8 entries per step via _mm512_cmp_epi64_mask (prune_simd_avx512.cc;
/// requires Avx512Available()).
size_t PruneScanAvx512(const int64_t* time_min, const int64_t* time_max,
                       const int64_t* value_min, const int64_t* value_max,
                       size_t n, int64_t t_lo, int64_t t_hi, bool value_active,
                       int64_t v_lo, int64_t v_hi, uint64_t* survivors);

/// Dispatch on `isa`, falling back to the best supported ISA when the
/// requested one is unavailable on this host.
size_t PruneScan(const int64_t* time_min, const int64_t* time_max,
                 const int64_t* value_min, const int64_t* value_max, size_t n,
                 int64_t t_lo, int64_t t_hi, bool value_active, int64_t v_lo,
                 int64_t v_hi, uint64_t* survivors, PruneIsa isa);

}  // namespace etsqp::simd

#endif  // ETSQP_SIMD_PRUNE_SIMD_H_
