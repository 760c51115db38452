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
size_t RunEndLeqAvx2(const int64_t* times, size_t begin, size_t n,
                     int64_t bound) {
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
size_t RunEndLtAvx2(const int64_t* times, size_t begin, size_t n,
                    int64_t bound) {
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

size_t RunEndLeqSse(const int64_t* times, size_t begin, size_t n,
                    int64_t bound) {
  size_t i = begin;
  const __m128i bv = _mm_set1_epi64x(bound);
  while (i + 2 <= n) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(times + i));
    int gt = _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpgt_epi64(x, bv)));
    if (gt != 0) return i + CountTrailingZeros(static_cast<unsigned>(gt));
    i += 2;
  }
  while (i < n && times[i] <= bound) ++i;
  return i;
}

size_t RunEndLtSse(const int64_t* times, size_t begin, size_t n,
                   int64_t bound) {
  size_t i = begin;
  const __m128i bv = _mm_set1_epi64x(bound);
  while (i + 2 <= n) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(times + i));
    int lt = _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpgt_epi64(bv, x)));
    int ge = ~lt & 0x3;
    if (ge != 0) return i + CountTrailingZeros(static_cast<unsigned>(ge));
    i += 2;
  }
  while (i < n && times[i] < bound) ++i;
  return i;
}

size_t RunEndLeq(const int64_t* times, size_t begin, size_t n, int64_t bound,
                 MergeIsa isa) {
  if (isa == MergeIsa::kSse) return RunEndLeqSse(times, begin, n, bound);
  return RunEndLeqAvx2(times, begin, n, bound);
}

size_t RunEndLt(const int64_t* times, size_t begin, size_t n, int64_t bound,
                MergeIsa isa) {
  if (isa == MergeIsa::kSse) return RunEndLtSse(times, begin, n, bound);
  return RunEndLtAvx2(times, begin, n, bound);
}

/// Lane policies for AdaptiveIntersect (simd/merge_block.h).
struct SseLanes {
  static constexpr size_t kWidth = 2;
  static bool AllEqual(const int64_t* l, const int64_t* r) {
    __m128i lv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(l));
    __m128i rv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r));
    return _mm_movemask_epi8(_mm_cmpeq_epi64(lv, rv)) == 0xFFFF;
  }
  static void StoreRamp(uint32_t* out, size_t base) {
    out[0] = static_cast<uint32_t>(base);
    out[1] = static_cast<uint32_t>(base + 1);
  }
  static size_t SkipBelow(const int64_t* t, size_t begin, size_t n,
                          int64_t bound) {
    return RunEndLtSse(t, begin, n, bound);
  }
};

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
    return RunEndLtAvx2(t, begin, n, bound);
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

size_t IntersectIndicesInt64Sse(const int64_t* l, size_t nl, const int64_t* r,
                                size_t nr, uint32_t* out_l, uint32_t* out_r) {
  return AdaptiveIntersect<SseLanes>(l, nl, r, nr, out_l, out_r);
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
    case MergeIsa::kSse:
      if (UseAvx2()) return IntersectIndicesInt64Sse(l, nl, r, nr, out_l,
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
      const size_t e = RunEndLeq(lt, i, nl, rt[j], isa);
      std::memcpy(out_t + i + j, lt + i, (e - i) * sizeof(int64_t));
      std::memcpy(out_v + i + j, lv + i, (e - i) * sizeof(int64_t));
      i = e;
    } else {
      const size_t e = RunEndLt(rt, j, nr, lt[i], isa);
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

namespace {

constexpr uint32_t kNoStream = UINT32_MAX;

/// Consecutive wins before the N-way union extends a champion's run. An
/// extension (runner-up walk, vector scan, two copies) costs about two tree
/// replays, so after 8 single-tuple wins a short run pays at most ~25% over
/// popping it, while batched uploads (runs of 1K-3K tuples) spend only 7
/// extra replays per run.
constexpr size_t kExtendAfterWins = 8;

/// Tournament loser tree over k streams: leaves are stream cursors,
/// internal nodes store match losers, the champion pops in O(1) and each
/// advance replays one leaf-to-root path (O(log k)). Ties break toward the
/// lower stream index so N-way union order is deterministic.
struct LoserTree {
  const MergeStream* st;
  size_t k;
  size_t m;  // leaf count, k padded to a power of two
  std::vector<size_t> pos;
  std::vector<uint32_t> loser;  // internal nodes 1..m-1
  uint32_t winner = kNoStream;

  LoserTree(const MergeStream* streams, size_t streams_k)
      : st(streams), k(streams_k), pos(streams_k, 0) {
    m = 1;
    while (m < k) m <<= 1;
    loser.assign(m, kNoStream);
    // Bottom-up winner-tree build; losers drop into the node array.
    std::vector<uint32_t> win(2 * m, kNoStream);
    for (size_t s = 0; s < k; ++s) win[m + s] = static_cast<uint32_t>(s);
    for (size_t node = m - 1; node >= 1; --node) {
      uint32_t a = win[2 * node];
      uint32_t b = win[2 * node + 1];
      bool a_wins = Beats(a, b);
      win[node] = a_wins ? a : b;
      loser[node] = a_wins ? b : a;
    }
    winner = win[1];
  }

  bool Live(uint32_t s) const { return s != kNoStream && pos[s] < st[s].n; }

  /// True when stream a's head sorts before stream b's.
  bool Beats(uint32_t a, uint32_t b) const {
    bool la = Live(a), lb = Live(b);
    if (!la || !lb) return la;
    int64_t ka = st[a].times[pos[a]];
    int64_t kb = st[b].times[pos[b]];
    return ka < kb || (ka == kb && a < b);
  }

  /// Replays leaf `s`'s path after its key changed.
  void Replay(uint32_t s) {
    uint32_t cur = s;
    for (size_t node = (m + s) >> 1; node >= 1; node >>= 1) {
      if (Beats(loser[node], cur)) std::swap(loser[node], cur);
    }
    winner = cur;
  }

  /// Runner-up behind the current champion `winner`, read-only: the losers
  /// along the champion's leaf path are exactly the winners of its sibling
  /// subtrees, so their minimum is the best of every other stream.
  uint32_t RunnerUp() const {
    uint32_t best = kNoStream;
    for (size_t node = (m + winner) >> 1; node >= 1; node >>= 1) {
      if (Beats(loser[node], best)) best = loser[node];
    }
    return best;
  }
};

}  // namespace

size_t NwayMergeUnionScalar(const MergeStream* streams, size_t k,
                            int64_t* out_t, int64_t* out_v) {
  if (k == 0) return 0;
  size_t total = 0;
  for (size_t s = 0; s < k; ++s) total += streams[s].n;
  if (total == 0) return 0;
  LoserTree tree(streams, k);
  for (size_t emitted = 0; emitted < total; ++emitted) {
    uint32_t w = tree.winner;
    size_t p = tree.pos[w];
    out_t[emitted] = streams[w].times[p];
    if (out_v != nullptr && streams[w].values != nullptr) {
      out_v[emitted] = streams[w].values[p];
    }
    tree.pos[w] = p + 1;
    tree.Replay(w);
  }
  return total;
}

size_t NwayMergeUnion(const MergeStream* streams, size_t k, int64_t* out_t,
                      int64_t* out_v, MergeIsa isa) {
  if (isa == MergeIsa::kScalar || !UseAvx2() || k < 2) {
    return NwayMergeUnionScalar(streams, k, out_t, out_v);
  }
  size_t total = 0;
  for (size_t s = 0; s < k; ++s) total += streams[s].n;
  if (total == 0) return 0;
  LoserTree tree(streams, k);
  size_t emitted = 0;
  uint32_t last = kNoStream;
  size_t wins = 0;  // consecutive pops by `last`
  while (emitted < total) {
    const uint32_t w = tree.winner;
    const MergeStream& ws = streams[w];
    wins = w == last ? wins + 1 : 1;
    last = w;
    const size_t p = tree.pos[w];
    size_t e = p + 1;
    if (wins == kExtendAfterWins) {
      // A streak of wins: extend the champion's run to the runner-up's
      // head key, the minimum over every other stream.
      const uint32_t u = tree.RunnerUp();
      if (!tree.Live(u)) {
        e = ws.n;  // last live stream: flush it
      } else {
        const int64_t bound = streams[u].times[tree.pos[u]];
        e = w < u ? RunEndLeq(ws.times, p, ws.n, bound, isa)
                  : RunEndLt(ws.times, p, ws.n, bound, isa);
      }
      std::memcpy(out_t + emitted, ws.times + p, (e - p) * sizeof(int64_t));
      if (out_v != nullptr && ws.values != nullptr) {
        std::memcpy(out_v + emitted, ws.values + p,
                    (e - p) * sizeof(int64_t));
      }
    } else {
      out_t[emitted] = ws.times[p];
      if (out_v != nullptr && ws.values != nullptr) {
        out_v[emitted] = ws.values[p];
      }
    }
    emitted += e - p;
    tree.pos[w] = e;
    tree.Replay(w);
  }
  return total;
}

size_t NwayIntersectScalar(const MergeStream* streams, size_t k,
                           std::vector<int64_t>* out) {
  out->clear();
  if (k == 0) return 0;
  for (size_t s = 0; s < k; ++s) {
    if (streams[s].n == 0) return 0;
  }
  if (k == 1) {
    out->assign(streams[0].times, streams[0].times + streams[0].n);
    return out->size();
  }
  // k-pointer drain: rotate a candidate timestamp through the streams;
  // every stream scans linearly (the scalar reference deliberately avoids
  // search) to its first element >= candidate. k consecutive agreements
  // emit the candidate.
  std::vector<size_t> pos(k, 0);
  int64_t cand = streams[0].times[0];
  size_t agree = 1;
  size_t s = 1 % k;
  while (true) {
    const MergeStream& cur = streams[s];
    while (pos[s] < cur.n && cur.times[pos[s]] < cand) ++pos[s];
    if (pos[s] == cur.n) break;
    if (cur.times[pos[s]] == cand) {
      if (++agree == k) {
        out->push_back(cand);
        if (++pos[s] == cur.n) break;
        cand = cur.times[pos[s]];
        agree = 1;
      }
    } else {
      cand = cur.times[pos[s]];
      agree = 1;
    }
    s = (s + 1) % k;
  }
  return out->size();
}

size_t NwayIntersect(const MergeStream* streams, size_t k,
                     std::vector<int64_t>* out, MergeIsa isa) {
  if (isa == MergeIsa::kScalar) return NwayIntersectScalar(streams, k, out);
  out->clear();
  if (k == 0) return 0;
  // Pairwise fold, smallest stream first: the candidate set only shrinks,
  // so later (larger) streams are met by a short probe list the galloping
  // kernel can binary-search through.
  std::vector<uint32_t> order(k);
  for (size_t s = 0; s < k; ++s) order[s] = static_cast<uint32_t>(s);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return streams[a].n < streams[b].n;
  });
  if (streams[order[0]].n == 0) return 0;
  std::vector<int64_t>& cur = *out;
  cur.assign(streams[order[0]].times,
             streams[order[0]].times + streams[order[0]].n);
  std::vector<uint32_t> il, ir;
  for (size_t x = 1; x < k && !cur.empty(); ++x) {
    const MergeStream& s = streams[order[x]];
    size_t cap = std::min(cur.size(), s.n);
    il.resize(cap);
    ir.resize(cap);
    size_t matched = IntersectIndicesInt64(cur.data(), cur.size(), s.times,
                                           s.n, il.data(), ir.data(), isa);
    for (size_t t = 0; t < matched; ++t) cur[t] = cur[il[t]];
    cur.resize(matched);
  }
  return cur.size();
}

}  // namespace etsqp::simd
