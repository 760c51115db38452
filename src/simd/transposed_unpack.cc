#include "simd/transposed_unpack.h"

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/cpu.h"
#include "encoding/bitpack.h"
#include "simd/transposed_unpack_avx512.h"
#include "simd/unpack_plan.h"

namespace etsqp::simd {

int DefaultNumVectors(int width) {
  if (width < 1) return 1;
  if (width > 25) return 1;  // scalar path anyway
  // Proposition 1: n_v* = sqrt( (w'/w) * (t_prefix - t_add) / t_unpack ).
  // Measured instruction-cost ratio (t_prefix - t_add) / t_unpack ~ 11/2,
  // the constant the paper uses for its Figure 4 example.
  double target = std::sqrt(32.0 / width * 5.5);
  // Feasible layouts fill each unpacked vector from alpha lanes of every
  // loaded vector: n_v in {ceil(V / alpha)} with V values per 128-bit load.
  int v_per_seg = 128 / width;
  int best = 0;
  for (int alpha = 1; alpha <= 8; alpha *= 2) {
    int cand = (v_per_seg + alpha - 1) / alpha;
    cand = std::min(cand, 16);
    if (cand >= static_cast<int>(std::lround(target))) {
      if (best == 0 || cand < best) best = cand;
    }
  }
  if (best == 0) best = std::min(v_per_seg, 16);
  return std::max(best, 1);
}

void DeltaDecodeOffsetsScalar(const uint8_t* data, size_t data_size, size_t n,
                              int width, int32_t min_delta, int32_t init,
                              int32_t* out) {
  int32_t running = init;
  if (width == 0) {
    for (size_t i = 0; i < n; ++i) {
      running += min_delta;
      out[i] = running;
    }
    return;
  }
  size_t pos = 0;
  (void)data_size;
  for (size_t i = 0; i < n; ++i) {
    uint32_t r = static_cast<uint32_t>(enc::UnpackOneBE(data, pos, width));
    pos += width;
    running += min_delta + static_cast<int32_t>(r);
    out[i] = running;
  }
}

namespace {

const __m256i kShift1 = _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6);
const __m256i kShift2 = _mm256_setr_epi32(0, 0, 0, 1, 2, 3, 4, 5);
const __m256i kShift4 = _mm256_setr_epi32(0, 0, 0, 0, 0, 1, 2, 3);

/// Shifts lanes towards higher indices by `k`, filling with zeros.
inline __m256i ShiftUp1(__m256i x) {
  return _mm256_blend_epi32(_mm256_permutevar8x32_epi32(x, kShift1),
                            _mm256_setzero_si256(), 0x01);
}
inline __m256i ShiftUp2(__m256i x) {
  return _mm256_blend_epi32(_mm256_permutevar8x32_epi32(x, kShift2),
                            _mm256_setzero_si256(), 0x03);
}
inline __m256i ShiftUp4(__m256i x) {
  return _mm256_blend_epi32(_mm256_permutevar8x32_epi32(x, kShift4),
                            _mm256_setzero_si256(), 0x0F);
}

/// Turns the transposed layout of one chunk (value g*NV + j in vector j,
/// lane g) into natural order in registers: v[k] ends up holding values
/// 8k..8k+7. The two 128-bit halves transpose independently (g = 0..3 in
/// the low half, g = 4..7 in the high one) with unpack{lo,hi}_epi32/epi64;
/// one permute2x128 per output vector then pairs up the halves.
template <int NV>
inline void TransposeToNatural256(__m256i (&v)[NV]) {
  static_assert(NV > 0 && NV <= 16 && (NV & (NV - 1)) == 0);
  if constexpr (NV == 2) {
    __m256i lo = _mm256_unpacklo_epi32(v[0], v[1]);  // g 0,1 | g 4,5
    __m256i hi = _mm256_unpackhi_epi32(v[0], v[1]);  // g 2,3 | g 6,7
    v[0] = _mm256_permute2x128_si256(lo, hi, 0x20);
    v[1] = _mm256_permute2x128_si256(lo, hi, 0x31);
  } else if constexpr (NV >= 4) {
    // 4x4 transpose within each half of every group of four vectors:
    // z[4q + i] holds vectors 4q..4q+3 at g = i (low) and g = 4 + i (high).
    constexpr int kGroups = NV / 4;
    __m256i z[NV];
    for (int q = 0; q < kGroups; ++q) {
      const __m256i* a = v + 4 * q;
      __m256i t0 = _mm256_unpacklo_epi32(a[0], a[1]);  // g 0,1 | g 4,5
      __m256i t1 = _mm256_unpackhi_epi32(a[0], a[1]);  // g 2,3 | g 6,7
      __m256i t2 = _mm256_unpacklo_epi32(a[2], a[3]);
      __m256i t3 = _mm256_unpackhi_epi32(a[2], a[3]);
      z[4 * q + 0] = _mm256_unpacklo_epi64(t0, t2);
      z[4 * q + 1] = _mm256_unpackhi_epi64(t0, t2);
      z[4 * q + 2] = _mm256_unpacklo_epi64(t1, t3);
      z[4 * q + 3] = _mm256_unpackhi_epi64(t1, t3);
    }
    // Natural order is the run of 4-lane pieces (g, q), g-major. Output
    // vector k takes pieces 2k and 2k + 1, which lie in the same half.
    for (int k = 0; k < NV; ++k) {
      const int g0 = 2 * k / kGroups, q0 = 2 * k % kGroups;
      const int g1 = (2 * k + 1) / kGroups, q1 = (2 * k + 1) % kGroups;
      const __m256i a = z[4 * q0 + g0 % 4];
      const __m256i b = z[4 * q1 + g1 % 4];
      v[k] = g0 < 4 ? _mm256_permute2x128_si256(a, b, 0x20)
                    : _mm256_permute2x128_si256(a, b, 0x31);
    }
  }
}

}  // namespace

int OrderedNumVectors(int n_v) {
  return static_cast<int>(std::bit_floor(
      static_cast<unsigned>(std::clamp(n_v, 1, 16))));
}

namespace {

/// Chunk kernel templated on the vector count so v[0..NV) stay in YMM
/// registers (a runtime-indexed array would spill to the stack) — the
/// register sharing Algorithm 1 assumes.
template <int NV, bool kNaturalOrder>
void DeltaChunksAvx2(const TransposedPlan& plan, const uint8_t* data,
                     size_t chunks, int32_t min_delta, int32_t init,
                     int32_t* out, int32_t* base_out) {
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>(plan.mask));
  const __m256i vmind = _mm256_set1_epi32(min_delta);
  const __m256i lane7 = _mm256_set1_epi32(7);
  __m256i base_vec = _mm256_set1_epi32(init);
  const uint8_t* src = data;
  const size_t num_segments = plan.segments.size();
  const size_t chunk_values = static_cast<size_t>(NV) * 8;

  for (size_t c = 0; c < chunks; ++c) {
    // --- Lines 3-9: load paired segments, shuffle into the transposed
    // layout, shift and mask.
    __m256i v[NV];
    for (int j = 0; j < NV; ++j) v[j] = _mm256_setzero_si256();
    for (size_t s = 0; s < num_segments; ++s) {
      __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
          src + plan.segments[s].lo_offset));
      __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
          src + plan.segments[s].hi_offset));
      __m256i seg = _mm256_set_m128i(hi, lo);
      const auto* shufs = &plan.shuffles[s * NV];
      const uint8_t* skip = &plan.skip[s * NV];
      for (int j = 0; j < NV; ++j) {
        if (skip[j]) continue;
        __m256i shuf = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(shufs[j].data()));
        v[j] = _mm256_or_si256(v[j], _mm256_shuffle_epi8(seg, shuf));
      }
    }
    for (int j = 0; j < NV; ++j) {
      __m256i shift = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(plan.shifts[j].data()));
      v[j] = _mm256_and_si256(_mm256_srlv_epi32(v[j], shift), vmask);
      v[j] = _mm256_add_epi32(v[j], vmind);  // residual -> actual delta
    }

    // --- Lines 11-12: partial sums within each lane.
    for (int j = 1; j < NV; ++j) {
      v[j] = _mm256_add_epi32(v[j], v[j - 1]);
    }

    // --- Line 13: prefix vector across lanes via permute+add (identity
    // lane mapping: totals are already in logical order).
    __m256i totals = v[NV - 1];
    __m256i e = ShiftUp1(totals);  // exclusive base
    e = _mm256_add_epi32(e, ShiftUp1(e));
    e = _mm256_add_epi32(e, ShiftUp2(e));
    e = _mm256_add_epi32(e, ShiftUp4(e));
    __m256i incl = _mm256_add_epi32(e, totals);  // inclusive lane prefix
    __m256i prefix = _mm256_add_epi32(e, base_vec);

    // --- Lines 14-15: add prefix + running base to every vector. A
    // natural-order consumer gets the chunk transposed in registers; an
    // order-insensitive one takes the transposed layout as it is (register
    // sharing).
    for (int j = 0; j < NV; ++j) v[j] = _mm256_add_epi32(v[j], prefix);
    if constexpr (kNaturalOrder) TransposeToNatural256<NV>(v);
    int32_t* dst = out + c * chunk_values;
    for (int j = 0; j < NV; ++j) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j * 8), v[j]);
    }
    // Carry the chunk total (lane 7 of the inclusive prefix) forward
    // without leaving the vector domain.
    base_vec = _mm256_add_epi32(base_vec,
                                _mm256_permutevar8x32_epi32(incl, lane7));
    src += plan.bytes_per_chunk;
  }
  *base_out = _mm256_extract_epi32(base_vec, 0);
}

template <bool kNaturalOrder>
void DeltaDecodeOffsetsAvx2Impl(const uint8_t* data, size_t data_size,
                                size_t n, int width, int32_t min_delta,
                                int n_v, int32_t init, int32_t* out) {
  if (width == 0 || width > 25) {
    DeltaDecodeOffsetsScalar(data, data_size, n, width, min_delta, init, out);
    return;
  }
  if (n_v <= 0) n_v = DefaultNumVectors(width);
  n_v = kNaturalOrder ? OrderedNumVectors(n_v) : std::clamp(n_v, 1, 16);
  const TransposedPlan& plan = GetTransposedPlan(width, n_v);
  const size_t chunk_values = static_cast<size_t>(plan.values_per_chunk);
  const size_t chunks = n / chunk_values;

  int32_t base = init;
  // The natural-order path runs only the power-of-two n_v that
  // OrderedNumVectors picks, so only those are instantiated.
  switch (n_v) {
#define ETSQP_NV_CASE(NV)                                                     \
  case NV:                                                                    \
    if constexpr (!kNaturalOrder || std::has_single_bit(unsigned{NV})) {      \
      DeltaChunksAvx2<NV, kNaturalOrder>(plan, data, chunks, min_delta, init, \
                                         out, &base);                         \
    }                                                                         \
    break;
    ETSQP_NV_CASE(1)
    ETSQP_NV_CASE(2)
    ETSQP_NV_CASE(3)
    ETSQP_NV_CASE(4)
    ETSQP_NV_CASE(5)
    ETSQP_NV_CASE(6)
    ETSQP_NV_CASE(7)
    ETSQP_NV_CASE(8)
    ETSQP_NV_CASE(9)
    ETSQP_NV_CASE(10)
    ETSQP_NV_CASE(11)
    ETSQP_NV_CASE(12)
    ETSQP_NV_CASE(13)
    ETSQP_NV_CASE(14)
    ETSQP_NV_CASE(15)
    ETSQP_NV_CASE(16)
    default:
      break;
  }
#undef ETSQP_NV_CASE

  // Scalar tail, continuing from the running base.
  size_t done = chunks * chunk_values;
  if (done < n) {
    size_t pos = done * static_cast<size_t>(width);
    int32_t running = base;
    for (size_t i = done; i < n; ++i) {
      uint32_t r = static_cast<uint32_t>(enc::UnpackOneBE(data, pos, width));
      pos += width;
      running += min_delta + static_cast<int32_t>(r);
      out[i] = running;
    }
  }
  (void)data_size;
}

}  // namespace

void DeltaDecodeOffsetsAvx2(const uint8_t* data, size_t data_size, size_t n,
                            int width, int32_t min_delta, int n_v,
                            int32_t init, int32_t* out) {
  DeltaDecodeOffsetsAvx2Impl<true>(data, data_size, n, width, min_delta, n_v,
                                   init, out);
}

void DeltaDecodeOffsetsAvx2Unordered(const uint8_t* data, size_t data_size,
                                     size_t n, int width, int32_t min_delta,
                                     int n_v, int32_t init, int32_t* out) {
  DeltaDecodeOffsetsAvx2Impl<false>(data, data_size, n, width, min_delta, n_v,
                                    init, out);
}

namespace {

/// The AVX-512 n_v per width 1..25 for a caller that asks for the default:
/// w_SIMD = 512 amortizes the prefix permutes over 16 lanes, so these sit
/// at or below Proposition 1's AVX2-derived DefaultNumVectors. Each entry is
/// the fastest n_v in bench_kernels' BM_Avx512NumVectors rows (1023-residual
/// blocks, cache-resident, best of 20 runs; EXPERIMENTS.md), kept at 2 —
/// the former constant — wherever no n_v beat 2 by 2%. Ordered entries are
/// powers of two (OrderedNumVectors).
constexpr int kAvx512OrderedNv[26] = {
    2,                                     // w = 0 (scalar path)
    4, 4, 8, 4, 2, 4, 4, 4, 2, 2,         // w = 1..10
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2,         // w = 11..20
    2, 2, 2, 2, 2};                       // w = 21..25
constexpr int kAvx512UnorderedNv[26] = {
    2,                                     // w = 0 (scalar path)
    9, 7, 9, 7, 6, 5, 4, 3, 3, 3,         // w = 1..10
    4, 5, 5, 4, 4, 4, 2, 3, 3, 3,         // w = 11..20
    3, 2, 2, 2, 2};                       // w = 21..25

/// `n_v`, or the table's entry for `width` when n_v is 0 (the default).
int Avx512NumVectors(const int (&table)[26], int width, int n_v) {
  if (n_v != 0) return n_v;
  return width >= 1 && width <= 25 ? table[width] : 2;
}

}  // namespace

void DeltaDecodeOffsets(const uint8_t* data, size_t data_size, size_t n,
                        int width, int32_t min_delta, int n_v, int32_t init,
                        int32_t* out) {
  if (Avx512Available()) {
    DeltaDecodeOffsetsAvx512(data, data_size, n, width, min_delta,
                             Avx512NumVectors(kAvx512OrderedNv, width, n_v),
                             init, out);
  } else if (UseAvx2()) {
    DeltaDecodeOffsetsAvx2(data, data_size, n, width, min_delta, n_v, init,
                           out);
  } else {
    DeltaDecodeOffsetsScalar(data, data_size, n, width, min_delta, init, out);
  }
}

void DeltaDecodeOffsetsUnordered(const uint8_t* data, size_t data_size,
                                 size_t n, int width, int32_t min_delta,
                                 int n_v, int32_t init, int32_t* out) {
  if (Avx512Available()) {
    DeltaDecodeOffsetsAvx512Unordered(
        data, data_size, n, width, min_delta,
        Avx512NumVectors(kAvx512UnorderedNv, width, n_v), init, out);
  } else if (UseAvx2()) {
    DeltaDecodeOffsetsAvx2Impl<false>(data, data_size, n, width, min_delta,
                                      n_v, init, out);
  } else {
    DeltaDecodeOffsetsScalar(data, data_size, n, width, min_delta, init, out);
  }
}

}  // namespace etsqp::simd
