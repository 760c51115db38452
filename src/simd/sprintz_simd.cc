#include "simd/sprintz_simd.h"

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "common/bit_util.h"
#include "common/bitstream.h"
#include "simd/unpack_avx2.h"
#include "simd/unpack_plan.h"

namespace etsqp::simd {

namespace {

constexpr size_t kBlockValues = 8;

/// Un-zigzags 8 32-bit codes.
inline __m256i UnZigZag32(__m256i z) {
  const __m256i sign = _mm256_sub_epi32(
      _mm256_setzero_si256(), _mm256_and_si256(z, _mm256_set1_epi32(1)));
  return _mm256_xor_si256(_mm256_srli_epi32(z, 1), sign);
}

/// Un-zigzags 4 64-bit codes.
inline __m256i UnZigZag64(__m256i z) {
  const __m256i sign = _mm256_sub_epi64(
      _mm256_setzero_si256(), _mm256_and_si256(z, _mm256_set1_epi64x(1)));
  return _mm256_xor_si256(_mm256_srli_epi64(z, 1), sign);
}

/// Inclusive prefix sum of 4 int64 lanes (wrapping).
inline __m256i PrefixSum4(__m256i x) {
  x = _mm256_add_epi64(x, _mm256_slli_si256(x, 8));
  const __m256i low_pair = _mm256_blend_epi32(
      _mm256_permute4x64_epi64(x, _MM_SHUFFLE(1, 1, 1, 1)),
      _mm256_setzero_si256(), 0x0F);
  return _mm256_add_epi64(x, low_pair);
}

/// The first `m` deltas of a block of width 33..64, one 9-byte window per
/// value, as their prefix sums in lanes 0-3 and 4-7; lanes past `m` add 0.
inline void WideBlockSums(const uint8_t* src, size_t m, int width,
                          __m256i* lo, __m256i* hi) {
  alignas(32) int64_t d[kBlockValues] = {};
  for (size_t i = 0; i < m; ++i) {
    const size_t bit = i * static_cast<size_t>(width);
    const uint8_t* p = src + (bit >> 3);
    const int in_byte = static_cast<int>(bit & 7);
    const uint64_t window = (GetFixed64BE(p) << in_byte) |
                            (static_cast<uint64_t>(p[8]) >> (8 - in_byte));
    d[i] = ZigZagDecode64(window >> (64 - width));
  }
  *lo = PrefixSum4(_mm256_load_si256(reinterpret_cast<const __m256i*>(d)));
  *hi = PrefixSum4(
      _mm256_load_si256(reinterpret_cast<const __m256i*>(d + 4)));
}

/// The running sums of one block's 8 deltas from the block start, lanes
/// 0-3 and 4-7 as int64. `plan` caches the last width's unpack plan.
inline void BlockSums(const uint8_t* src, size_t m, int width,
                      const UnpackPlan*& plan, __m256i* lo, __m256i* hi) {
  if (width == 0) {
    *lo = *hi = _mm256_setzero_si256();
    return;
  }
  if (width > 32) {
    WideBlockSums(src, m, width, lo, hi);
  } else {
    if (width != plan->width) plan = &GetUnpackPlan(width);
    if (plan->wide) {
      // Widths 26..32 unpack into 64-bit lanes: they stay there.
      __m256i halves[2];
      UnpackIterWideHalves(src, *plan, halves);
      *lo = PrefixSum4(UnZigZag64(halves[0]));
      *hi = PrefixSum4(UnZigZag64(halves[1]));
    } else {
      // Deltas of width <= 25 lie in [-2^24, 2^24): four of them sum
      // within int32, so each half sums in 32-bit lanes before widening.
      __m256i d = UnZigZag32(UnpackIterFast(src, *plan));
      d = _mm256_add_epi32(d, _mm256_slli_si256(d, 4));
      d = _mm256_add_epi32(d, _mm256_slli_si256(d, 8));
      *lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(d));
      *hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(d, 1));
    }
  }
  *hi = _mm256_add_epi64(
      *hi, _mm256_permute4x64_epi64(*lo, _MM_SHUFFLE(3, 3, 3, 3)));
}

}  // namespace

Status SprintzDecodeAvx2(const uint8_t* blocks, size_t blocks_bytes,
                         uint32_t count, int64_t first_value, size_t begin,
                         size_t end, int64_t* out) {
  end = std::min<size_t>(end, count);
  if (begin >= end) return Status::Ok();
  if (begin == 0) out[0] = first_value;
  __m256i carry = _mm256_set1_epi64x(first_value);
  size_t pos = 1;  // column position of the block's first value
  size_t byte = 0;
  const UnpackPlan* plan = &GetUnpackPlan(1);  // the last width's plan
  alignas(32) uint8_t padded[kBlockValues * 8 + 32];
  while (pos < end) {
    if (byte >= blocks_bytes) {
      return Status::Corruption("sprintz: block header truncated");
    }
    const int width = blocks[byte++];
    if (width > 64) return Status::Corruption("sprintz: bad block width");
    const size_t m = std::min<size_t>(kBlockValues, count - pos);
    // A full block packs 8 values into exactly `width` bytes.
    const size_t packed = m == kBlockValues
                              ? static_cast<size_t>(width)
                              : (m * static_cast<size_t>(width) + 7) / 8;
    if (packed > blocks_bytes - byte) {
      return Status::Corruption("sprintz: packed data truncated");
    }
    const uint8_t* src = blocks + byte;
    byte += packed;
    // A full block's loads end at most 15 bytes past it; a short last
    // block's could run 36 past the column, so it unpacks from a copy.
    if (m < kBlockValues) {
      std::memset(padded, 0, sizeof(padded));
      std::memcpy(padded, src, packed);
      src = padded;
    }

    // Lanes past `m` of a short last block hold garbage; the prefix sum
    // carries it only to later lanes, which are never stored. The block
    // sums come first, so the running value costs one add per block on
    // the loop-carried chain.
    __m256i lo_sum, hi_sum;
    BlockSums(src, m, width, plan, &lo_sum, &hi_sum);
    const __m256i lo = _mm256_add_epi64(lo_sum, carry);
    const __m256i hi = _mm256_add_epi64(hi_sum, carry);

    // A short last block never stores directly: pos + 8 > count >= end.
    if (pos >= begin && pos + kBlockValues <= end) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + (pos - begin)), lo);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + (pos - begin) + 4), hi);
    } else if (pos + m > begin) {
      alignas(32) int64_t v[kBlockValues];
      _mm256_store_si256(reinterpret_cast<__m256i*>(v), lo);
      _mm256_store_si256(reinterpret_cast<__m256i*>(v + 4), hi);
      const size_t from = std::max(pos, begin);
      const size_t to = std::min(pos + m, end);
      std::copy(v + (from - pos), v + (to - pos), out + (from - begin));
    }
    carry = _mm256_add_epi64(
        carry, _mm256_permute4x64_epi64(hi_sum, _MM_SHUFFLE(3, 3, 3, 3)));
    pos += m;
  }
  return Status::Ok();
}

}  // namespace etsqp::simd
