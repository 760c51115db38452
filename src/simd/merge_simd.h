#ifndef ETSQP_SIMD_MERGE_SIMD_H_
#define ETSQP_SIMD_MERGE_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace etsqp::simd {

/// Sorted-timestamp merge/intersection kernel family (paper Eq. 5-6 merge
/// nodes; technique of Lemire & Boytsov, "SIMD Compression and the
/// Intersection of Sorted Integers"). All kernels operate on ascending
/// int64 timestamp columns. Two-way kernels tolerate duplicate timestamps
/// within an input (equal runs pair element-wise: the k-th occurrence on
/// the left matches the k-th on the right, so a run contributes
/// min(run_l, run_r) pairs — the same semantics as the scalar two-pointer
/// drain they replace). N-way kernels assume strictly increasing
/// timestamps per stream, which series snapshots guarantee.
///
/// Every SIMD kernel has a scalar reference with identical output; the
/// differential suites in tests/ assert byte-identical results across all
/// ISA variants.

/// Which datapath a merge kernel runs on. The engine runs BestMergeIsa()
/// unless the plan's strategy is kSerial (exec::MergeIsaFor);
/// BestMergeIsa() honors
/// SetSimdDisabledForTesting.
enum class MergeIsa { kScalar = 0, kSse = 1, kAvx2 = 2, kAvx512 = 3 };

MergeIsa BestMergeIsa();

/// One sorted input of an N-way merge/intersection. `values` may be null
/// for time-only intersection.
struct MergeStream {
  const int64_t* times = nullptr;
  const int64_t* values = nullptr;
  size_t n = 0;
};

/// --- Two-way sorted intersection -----------------------------------------
/// Emits matching index pairs: out_l[k] / out_r[k] index the k-th matching
/// tuple on each side, in ascending time order. Both outputs must hold
/// min(nl, nr) entries; indices are 32-bit, so inputs hold at most
/// UINT32_MAX tuples. Returns the number of pairs.

size_t IntersectIndicesInt64Scalar(const int64_t* l, size_t nl,
                                   const int64_t* r, size_t nr,
                                   uint32_t* out_l, uint32_t* out_r);
size_t IntersectIndicesInt64Sse(const int64_t* l, size_t nl, const int64_t* r,
                                size_t nr, uint32_t* out_l, uint32_t* out_r);
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
inline size_t IntersectIndicesInt64(const int64_t* l, size_t nl,
                                    const int64_t* r, size_t nr,
                                    uint32_t* out_l, uint32_t* out_r) {
  return IntersectIndicesInt64(l, nl, r, nr, out_l, out_r, BestMergeIsa());
}

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

/// --- N-way merge / intersection ------------------------------------------

/// Loser-tree union of k streams into out_t/out_v (sized sum of stream
/// lengths). Ties order by stream index (lowest first). The SIMD variant
/// pops one tuple per win like the scalar one; once a stream has won 8
/// times in a row, the runner-up's head key bounds how far it can
/// bulk-copy before the tree is replayed.
size_t NwayMergeUnionScalar(const MergeStream* streams, size_t k,
                            int64_t* out_t, int64_t* out_v);
size_t NwayMergeUnion(const MergeStream* streams, size_t k, int64_t* out_t,
                      int64_t* out_v, MergeIsa isa);

/// Timestamps present in all k streams. The scalar reference is the
/// k-pointer drain (linear scans); the SIMD variant folds streams pairwise,
/// smallest first, through the galloping/adaptive intersection so the
/// candidate set shrinks before the large streams are touched.
size_t NwayIntersectScalar(const MergeStream* streams, size_t k,
                           std::vector<int64_t>* out);
size_t NwayIntersect(const MergeStream* streams, size_t k,
                     std::vector<int64_t>* out, MergeIsa isa);

}  // namespace etsqp::simd

#endif  // ETSQP_SIMD_MERGE_SIMD_H_
