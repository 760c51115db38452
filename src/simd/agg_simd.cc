#include "simd/agg_simd.h"

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <climits>

#include "common/cpu.h"
#include "encoding/bitpack.h"
#include "simd/unpack_avx2.h"
#include "simd/unpack_plan.h"

namespace etsqp::simd {

namespace {

inline int64_t HorizontalSum64(__m256i v) {
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

/// Widens the 8 int32 lanes of `v` and adds them into two 4x64 accumulators.
inline void AccumulateWiden(__m256i v, __m256i* acc_lo, __m256i* acc_hi) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  *acc_lo = _mm256_add_epi64(*acc_lo, _mm256_cvtepi32_epi64(lo));
  *acc_hi = _mm256_add_epi64(*acc_hi, _mm256_cvtepi32_epi64(hi));
}

template <bool kSum, bool kMinMax>
RangeAggregate RangeAggregateAvx2Impl(const int32_t* values, size_t n,
                                      int32_t lo, int32_t hi) {
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  const __m256i top = _mm256_set1_epi32(INT32_MAX);
  const __m256i bottom = _mm256_set1_epi32(INT32_MIN);
  __m256i rejected = _mm256_setzero_si256();
  __m256i acc_lo = _mm256_setzero_si256();
  __m256i acc_hi = _mm256_setzero_si256();
  __m256i vmn = top;
  __m256i vmx = bottom;
  const size_t iters = n / 8;
  for (size_t k = 0; k < iters; ++k) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + k * 8));
    // All-ones in the lanes outside [lo, hi]: v < lo or v > hi.
    const __m256i out = _mm256_or_si256(_mm256_cmpgt_epi32(vlo, v),
                                        _mm256_cmpgt_epi32(v, vhi));
    rejected = _mm256_sub_epi32(rejected, out);
    if constexpr (kSum) {
      AccumulateWiden(_mm256_andnot_si256(out, v), &acc_lo, &acc_hi);
    }
    if constexpr (kMinMax) {
      vmn = _mm256_min_epi32(vmn, _mm256_blendv_epi8(v, top, out));
      vmx = _mm256_max_epi32(vmx, _mm256_blendv_epi8(v, bottom, out));
    }
  }
  alignas(32) int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), rejected);
  uint64_t dropped = 0;
  for (int32_t l : lanes) dropped += static_cast<uint32_t>(l);
  RangeAggregate agg;
  agg.count = iters * 8 - dropped;
  if constexpr (kSum) {
    agg.sum = HorizontalSum64(acc_lo) + HorizontalSum64(acc_hi);
  }
  if constexpr (kMinMax) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmn);
    for (int32_t l : lanes) agg.min = std::min(agg.min, l);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmx);
    for (int32_t l : lanes) agg.max = std::max(agg.max, l);
  }
  for (size_t i = iters * 8; i < n; ++i) {
    const int32_t v = values[i];
    if (v < lo || v > hi) continue;
    ++agg.count;
    if constexpr (kSum) agg.sum += v;
    if constexpr (kMinMax) {
      agg.min = std::min(agg.min, v);
      agg.max = std::max(agg.max, v);
    }
  }
  return agg;
}

/// Residuals per piece of a PackedRampSum: keeps every 64-bit lane sum and
/// the piece's sum_k k r_k below 2^63 at width 32, and every vector index
/// below 2^32 for _mm256_mul_epu32.
constexpr size_t kRampPiece = size_t{1} << 16;

/// The column buffer's readable slack past a block's packed bytes.
constexpr size_t kPackedSlack = 32;

/// Vectors whose 32-bit S and B lanes cannot wrap at `width`: the largest K
/// with K (2^w - 1) and K (K - 1) / 2 (2^w - 1) both below 2^32.
size_t FlushVectors(int width) {
  static const std::array<uint32_t, 33> table = [] {
    std::array<uint32_t, 33> t{};
    constexpr uint64_t kLimit = uint64_t{1} << 32;
    for (int w = 1; w <= 32; ++w) {
      const uint64_t r = (uint64_t{1} << w) - 1;
      uint64_t k = 1;
      while (k < kRampPiece / 8 && (k + 1) * r < kLimit &&
             (k + 1) * k / 2 * r < kLimit) {
        ++k;
      }
      t[w] = static_cast<uint32_t>(k);
    }
    return t;
  }();
  return table[width];
}

/// Folds the lane sums of a run of vectors into the 64-bit lane
/// accumulators: s and b hold the run's S and B, and `last` is the index
/// of its last vector, so sum_t t r_t over the run is last * S - B.
inline void FlushLanes(__m256i s, __m256i b, uint64_t last, __m256i w64[2],
                       __m256i s64[2]) {
  const __m256i vlast = _mm256_set1_epi64x(static_cast<long long>(last));
  const __m256i s_lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(s));
  const __m256i s_hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(s, 1));
  const __m256i b_lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(b));
  const __m256i b_hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(b, 1));
  w64[0] = _mm256_add_epi64(
      w64[0], _mm256_sub_epi64(_mm256_mul_epu32(s_lo, vlast), b_lo));
  w64[1] = _mm256_add_epi64(
      w64[1], _mm256_sub_epi64(_mm256_mul_epu32(s_hi, vlast), b_hi));
  s64[0] = _mm256_add_epi64(s64[0], s_lo);
  s64[1] = _mm256_add_epi64(s64[1], s_hi);
}

/// Residuals [first, first + n), n in [1, kRampPiece]: *sum = sum_k r_k and
/// *weighted = sum_k k r_k. Vector t holds residuals 8 (j0 + t) + l, the
/// `width` bytes at packed + (j0 + t) * width; r_k sits at t = (k + off) / 8,
/// lane l = (k + off) % 8.
template <bool kWide>
void RampPieceAvx2(const uint8_t* packed, size_t packed_bytes,
                   const UnpackPlan& plan, size_t first, size_t n,
                   uint64_t* sum, uint64_t* weighted) {
  const size_t width = static_cast<size_t>(plan.width);
  const size_t j0 = first / 8;
  const size_t j1 = (first + n - 1) / 8;
  const size_t nv = j1 - j0 + 1;
  const int off = static_cast<int>(first % 8);
  const int end_lane = static_cast<int>((first + n - 1) % 8);
  auto unpack = [&plan](const uint8_t* src) {
    return kWide ? UnpackIterWide(src, plan) : UnpackIterFast(src, plan);
  };
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i head = _mm256_cmpgt_epi32(lane, _mm256_set1_epi32(off - 1));
  const __m256i tail =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(end_lane + 1), lane);
  const __m256i zero = _mm256_setzero_si256();
  __m256i w64[2] = {zero, zero};
  __m256i s64[2] = {zero, zero};

  // The last vector may end the block: where its loads would pass the
  // slack, its residuals come one at a time.
  __m256i last;
  if (j1 * width + UnpackIterReadBytes(plan) <= packed_bytes + kPackedSlack) {
    last = unpack(packed + j1 * width);
  } else {
    alignas(32) uint32_t lanes[8] = {};
    for (int l = nv == 1 ? off : 0; l <= end_lane; ++l) {
      lanes[l] = static_cast<uint32_t>(
          enc::UnpackOneBE(packed, (8 * j1 + l) * width, plan.width));
    }
    last = _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
  }
  last = _mm256_and_si256(last, tail);

  if (nv == 1) {
    FlushLanes(_mm256_and_si256(last, head), zero, 0, w64, s64);
  } else {
    FlushLanes(_mm256_and_si256(unpack(packed + j0 * width), head), zero, 0,
               w64, s64);
    // Whole vectors 1 .. nv-2, in runs short enough for 32-bit lanes.
    const size_t run = FlushVectors(plan.width);
    for (size_t t = 1; t + 1 < nv;) {
      const size_t kc = std::min(run, nv - 1 - t);
      const uint8_t* src = packed + (j0 + t) * width;
      __m256i s = zero;
      __m256i b = zero;
      for (size_t u = 0; u < kc; ++u, src += width) {
        b = _mm256_add_epi32(b, s);
        s = _mm256_add_epi32(s, unpack(src));
      }
      t += kc;
      FlushLanes(s, b, t - 1, w64, s64);
    }
    FlushLanes(last, zero, nv - 1, w64, s64);
  }

  // k = 8 t + l - off, so sum_k k r_k = sum_l 8 W_l + (l - off) S_l, where
  // W_l = sum_t t r_{t,l}. Unsigned wrap-around is exact: the total is
  // non-negative and below 2^64.
  alignas(32) uint64_t w_lanes[8];
  alignas(32) uint64_t s_lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(w_lanes), w64[0]);
  _mm256_store_si256(reinterpret_cast<__m256i*>(w_lanes + 4), w64[1]);
  _mm256_store_si256(reinterpret_cast<__m256i*>(s_lanes), s64[0]);
  _mm256_store_si256(reinterpret_cast<__m256i*>(s_lanes + 4), s64[1]);
  uint64_t s = 0;
  uint64_t wk = 0;
  for (int l = 0; l < 8; ++l) {
    s += s_lanes[l];
    wk += 8 * w_lanes[l] + static_cast<uint64_t>(l - off) * s_lanes[l];
  }
  *sum = s;
  *weighted = wk;
}

}  // namespace

RangeAggregate RangeAggregateInt32Scalar(const int32_t* values, size_t n,
                                         int32_t lo, int32_t hi,
                                         bool want_sum, bool want_min_max) {
  RangeAggregate agg;
  for (size_t i = 0; i < n; ++i) {
    const int32_t v = values[i];
    if (v < lo || v > hi) continue;
    ++agg.count;
    if (want_sum) agg.sum += v;
    if (want_min_max) {
      agg.min = std::min(agg.min, v);
      agg.max = std::max(agg.max, v);
    }
  }
  return agg;
}

RangeAggregate RangeAggregateInt32Avx2(const int32_t* values, size_t n,
                                       int32_t lo, int32_t hi, bool want_sum,
                                       bool want_min_max) {
  if (want_sum) {
    return want_min_max
               ? RangeAggregateAvx2Impl<true, true>(values, n, lo, hi)
               : RangeAggregateAvx2Impl<true, false>(values, n, lo, hi);
  }
  return want_min_max
             ? RangeAggregateAvx2Impl<false, true>(values, n, lo, hi)
             : RangeAggregateAvx2Impl<false, false>(values, n, lo, hi);
}

RangeAggregate RangeAggregateInt32(const int32_t* values, size_t n,
                                   int32_t lo, int32_t hi, bool want_sum,
                                   bool want_min_max) {
  return UseAvx2() ? RangeAggregateInt32Avx2(values, n, lo, hi, want_sum,
                                             want_min_max)
                   : RangeAggregateInt32Scalar(values, n, lo, hi, want_sum,
                                               want_min_max);
}

int64_t SumInt32(const int32_t* values, size_t n) {
  if (!UseAvx2()) {
    int64_t sum = 0;
    for (size_t i = 0; i < n; ++i) sum += values[i];
    return sum;
  }
  __m256i acc_lo = _mm256_setzero_si256();
  __m256i acc_hi = _mm256_setzero_si256();
  size_t iters = n / 8;
  for (size_t k = 0; k < iters; ++k) {
    __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + k * 8));
    AccumulateWiden(v, &acc_lo, &acc_hi);
  }
  int64_t sum = HorizontalSum64(acc_lo) + HorizontalSum64(acc_hi);
  for (size_t i = iters * 8; i < n; ++i) sum += values[i];
  return sum;
}

void MinMaxInt32(const int32_t* values, size_t n, int32_t* min_out,
                 int32_t* max_out) {
  int32_t mn = values[0];
  int32_t mx = values[0];
  size_t i = 1;
  if (UseAvx2() && n >= 16) {
    __m256i vmn = _mm256_set1_epi32(mn);
    __m256i vmx = vmn;
    size_t iters = n / 8;
    for (size_t k = 0; k < iters; ++k) {
      __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + k * 8));
      vmn = _mm256_min_epi32(vmn, v);
      vmx = _mm256_max_epi32(vmx, v);
    }
    alignas(32) int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmn);
    for (int l = 0; l < 8; ++l) mn = std::min(mn, lanes[l]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmx);
    for (int l = 0; l < 8; ++l) mx = std::max(mx, lanes[l]);
    i = iters * 8;
  }
  for (; i < n; ++i) {
    mn = std::min(mn, values[i]);
    mx = std::max(mx, values[i]);
  }
  *min_out = mn;
  *max_out = mx;
}

RampSums PackedRampSumScalar(const uint8_t* packed, size_t packed_bytes,
                             int width, size_t first, size_t n) {
  (void)packed_bytes;
  RampSums out;
  for (size_t k = 0; k < n; ++k) {
    const uint64_t r = enc::UnpackOneBE(
        packed, (first + k) * static_cast<size_t>(width), width);
    out.sum += r;
    out.ramp += static_cast<unsigned __int128>(n - k) * r;
  }
  return out;
}

RampSums PackedRampSumAvx2(const uint8_t* packed, size_t packed_bytes,
                           int width, size_t first, size_t n) {
  RampSums out;
  if (width == 0 || n == 0) return out;
  const UnpackPlan& plan = GetUnpackPlan(width);
  unsigned __int128 weighted = 0;  // sum_k k r_k
  for (size_t p = 0; p < n; p += kRampPiece) {
    const size_t m = std::min(kRampPiece, n - p);
    uint64_t s = 0;
    uint64_t wk = 0;
    if (plan.wide) {
      RampPieceAvx2<true>(packed, packed_bytes, plan, first + p, m, &s, &wk);
    } else {
      RampPieceAvx2<false>(packed, packed_bytes, plan, first + p, m, &s, &wk);
    }
    out.sum += s;
    weighted += wk + static_cast<unsigned __int128>(p) * s;
  }
  out.ramp = static_cast<unsigned __int128>(n) * out.sum - weighted;
  return out;
}

RampSums PackedRampSum(const uint8_t* packed, size_t packed_bytes, int width,
                       size_t first, size_t n) {
  return UseAvx2() ? PackedRampSumAvx2(packed, packed_bytes, width, first, n)
                   : PackedRampSumScalar(packed, packed_bytes, width, first,
                                         n);
}

}  // namespace etsqp::simd
