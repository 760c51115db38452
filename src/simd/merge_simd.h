#ifndef ETSQP_SIMD_MERGE_SIMD_H_
#define ETSQP_SIMD_MERGE_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace etsqp::simd {

/// Sorted-timestamp merge/intersection kernel family (paper Eq. 5-6 merge
/// nodes; technique of Lemire & Boytsov, "SIMD Compression and the
/// Intersection of Sorted Integers"). Every kernel combines two ascending
/// int64 timestamp columns, the two operands of a binary, correlate or
/// union plan. Duplicate timestamps within an input are allowed (equal
/// runs pair element-wise: the k-th occurrence on the left matches the
/// k-th on the right, so a run contributes min(run_l, run_r) pairs — the
/// same semantics as the scalar two-pointer drain they replace).
///
/// Every SIMD kernel has a scalar reference with identical output; the
/// differential suites in tests/ assert byte-identical results across all
/// ISA variants.

/// Which datapath a merge kernel runs on. The engine runs BestMergeIsa()
/// unless the plan's strategy is kSerial (exec::MergeIsaFor);
/// BestMergeIsa() honors
/// SetSimdDisabledForTesting.
enum class MergeIsa { kScalar, kAvx2, kAvx512 };

MergeIsa BestMergeIsa();

/// --- Two-way sorted intersection -----------------------------------------
/// Emits matching index pairs: out_l[k] / out_r[k] index the k-th matching
/// tuple on each side, in ascending time order. Both outputs must hold
/// min(nl, nr) entries; indices are 32-bit, so inputs hold at most
/// UINT32_MAX tuples. Returns the number of pairs.

size_t IntersectIndicesInt64Scalar(const int64_t* l, size_t nl,
                                   const int64_t* r, size_t nr,
                                   uint32_t* out_l, uint32_t* out_r);
size_t IntersectIndicesInt64Avx2(const int64_t* l, size_t nl, const int64_t* r,
                                 size_t nr, uint32_t* out_l, uint32_t* out_r);
/// Defined in merge_simd_avx512.cc (own compile flags); callers must check
/// Avx512Available() — the dispatcher below does.
size_t IntersectIndicesInt64Avx512(const int64_t* l, size_t nl,
                                   const int64_t* r, size_t nr,
                                   uint32_t* out_l, uint32_t* out_r);

/// Galloping intersection for skewed sizes: iterates the short side and
/// advances the long side by exponential + binary search (Lemire & Boytsov
/// Section 4) — O(ns log(nl/ns)) instead of scanning the long side.
size_t GallopIntersectIndicesInt64(const int64_t* l, size_t nl,
                                   const int64_t* r, size_t nr,
                                   uint32_t* out_l, uint32_t* out_r);

/// Dispatcher: galloping when one side is kGallopRatio x longer than the
/// other, else the widest adaptive kernel `isa` allows (AVX-512 falls back
/// to AVX2 when unavailable at runtime). The adaptive kernels run the
/// scalar two-pointer steps in blocks of 16; only after a block that
/// matched on every step do they emit pairwise-equal vectors whole, and
/// only after a block that advanced one side alone do they vector-scan
/// that side past the other's head. Interleaved inputs therefore cost what
/// the scalar drain costs, and long equal or one-sided stretches go a
/// vector at a time.
size_t IntersectIndicesInt64(const int64_t* l, size_t nl, const int64_t* r,
                             size_t nr, uint32_t* out_l, uint32_t* out_r,
                             MergeIsa isa);

/// --- Two-way union merge (Q5 concatenation, Eq. 5) -----------------------
/// Merges two (time, value) streams into out_t/out_v (sized nl + nr).
/// Equal timestamps emit the left tuple first. Returns nl + nr.

size_t MergeUnionInt64Scalar(const int64_t* lt, const int64_t* lv, size_t nl,
                             const int64_t* rt, const int64_t* rv, size_t nr,
                             int64_t* out_t, int64_t* out_v);
/// Adaptive variant: the same two-pointer steps in blocks of 16. Only when
/// a whole block came from one side does a vector compare find how far
/// that side runs below the other's head, and the run bulk-copies. One
/// tuple at a time (two series on one clock) costs what the scalar drain
/// costs; long runs cost a scan and a copy.
size_t MergeUnionInt64(const int64_t* lt, const int64_t* lv, size_t nl,
                       const int64_t* rt, const int64_t* rv, size_t nr,
                       int64_t* out_t, int64_t* out_v, MergeIsa isa);

}  // namespace etsqp::simd

#endif  // ETSQP_SIMD_MERGE_SIMD_H_
