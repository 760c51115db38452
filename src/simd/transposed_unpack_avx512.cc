#include "simd/transposed_unpack_avx512.h"

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <mutex>
#include <vector>

#include "common/bit_util.h"
#include "common/cpu.h"
#include "encoding/bitpack.h"
#include "simd/transposed_unpack.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace etsqp::simd {

namespace {

#if defined(__x86_64__)
bool DetectAvx512() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  bool f = (ebx & (1u << 16)) != 0;     // AVX512F
  bool bw = (ebx & (1u << 30)) != 0;    // AVX512BW
  bool vbmi = (ecx & (1u << 1)) != 0;   // AVX512VBMI
  return f && bw && vbmi;
}
#else
bool DetectAvx512() { return false; }
#endif

/// 512-bit decode plan: value c of a chunk of n_v*16 lands in vector
/// j = c % n_v, lane l = c / n_v. Each 64-byte segment feeds lanes via one
/// masked vpermb per output vector.
struct Plan512 {
  int width = 0;
  int n_v = 0;
  int values_per_chunk = 0;  // n_v * 16
  int bytes_per_chunk = 0;   // n_v * 2 * width
  struct Segment {
    int byte_offset = 0;
  };
  std::vector<Segment> segments;
  /// permute[s * n_v + j]: 64-byte vpermb index; mask64[s * n_v + j]: byte
  /// validity mask (zeroed lanes where the segment feeds nothing).
  std::vector<std::array<uint8_t, 64>> permutes;
  std::vector<uint64_t> byte_masks;
  std::vector<std::array<uint32_t, 16>> shifts;  // per output vector
  uint32_t mask = 0;
};

Plan512 BuildPlan512(int width, int n_v) {
  Plan512 plan;
  plan.width = width;
  plan.n_v = n_v;
  plan.values_per_chunk = n_v * 16;
  plan.bytes_per_chunk = n_v * 2 * width;
  plan.mask = MaskLow32(width);
  plan.shifts.assign(n_v, {});

  struct Slot {
    int segment;
    int local_bit;
  };
  std::vector<Slot> slots(plan.values_per_chunk);
  size_t pos_bits = 0;
  int c = 0;
  while (c < plan.values_per_chunk) {
    int byte_off = static_cast<int>(pos_bits / 8);
    int phase = static_cast<int>(pos_bits - 8 * static_cast<size_t>(byte_off));
    int fit = (512 - phase) / width;
    assert(fit > 0);
    int seg = static_cast<int>(plan.segments.size());
    plan.segments.push_back(Plan512::Segment{byte_off});
    for (int t = 0; t < fit && c < plan.values_per_chunk; ++t, ++c) {
      slots[c] = Slot{seg, phase + t * width};
      pos_bits += width;
    }
  }

  plan.permutes.assign(plan.segments.size() * n_v, {});
  plan.byte_masks.assign(plan.segments.size() * n_v, 0);
  for (auto& p : plan.permutes) p.fill(0);

  for (c = 0; c < plan.values_per_chunk; ++c) {
    int j = c % n_v;
    int lane = c / n_v;
    const Slot& slot = slots[c];
    int end_byte = (slot.local_bit + width - 1) / 8;
    int w = end_byte >= 3 ? end_byte - 3 : 0;
    assert(w + 3 <= 63);
    auto& perm = plan.permutes[slot.segment * n_v + j];
    uint64_t& bmask = plan.byte_masks[slot.segment * n_v + j];
    for (int i = 0; i < 4; ++i) {
      perm[4 * lane + i] = static_cast<uint8_t>(w + 3 - i);
      bmask |= 1ull << (4 * lane + i);
    }
    plan.shifts[j][lane] =
        static_cast<uint32_t>(32 - (slot.local_bit - 8 * w) - width);
  }
  return plan;
}

const Plan512& GetPlan512(int width, int n_v) {
  static std::mutex mu;
  static Plan512* cache[26][17] = {};
  std::lock_guard<std::mutex> lock(mu);
  Plan512*& slot = cache[width][n_v];
  if (slot == nullptr) slot = new Plan512(BuildPlan512(width, n_v));
  return *slot;
}

/// Shifts 32-bit lanes towards higher indices by K, zero fill.
template <int K>
inline __m512i ShiftUp512(__m512i x) {
  alignas(64) int32_t idx[16];
  for (int i = 0; i < 16; ++i) idx[i] = i >= K ? i - K : 0;
  __m512i perm = _mm512_load_si512(idx);
  __mmask16 keep = static_cast<__mmask16>(~((1u << K) - 1));
  return _mm512_maskz_permutexvar_epi32(keep, perm, x);
}

/// permutex2var indices that interleave two streams of 32-bit lanes in units
/// of U = 2^u lanes: kInterleave512[u][0] pairs up the units of both sources'
/// low halves (lanes 0..7), kInterleave512[u][1] those of their high halves.
struct Interleave512Table {
  alignas(64) int32_t idx[4][2][16];
};
constexpr Interleave512Table MakeInterleave512() {
  Interleave512Table t{};
  for (int u = 0; u < 4; ++u) {
    const int unit = 1 << u;
    for (int half = 0; half < 2; ++half) {
      for (int i = 0; i < 16; ++i) {
        const int pair = i / (2 * unit);
        const int within = i % (2 * unit);
        const int lane = 8 * half + pair * unit + within % unit;
        t.idx[u][half][i] = within < unit ? lane : 16 + lane;
      }
    }
  }
  return t;
}
constexpr Interleave512Table kInterleave512 = MakeInterleave512();

/// Turns the transposed layout of one chunk (value g*NV + j in vector j,
/// lane g) into natural order in registers: v[k] ends up holding values
/// 16k..16k+15. NV is a power of two. Stage U merges neighbouring pairs of
/// interleaved streams of U vectors each, one permutex2var per output
/// vector, so the chunk costs log2(NV) * NV permutes and no scalar store.
/// The stages recurse at compile time so that v stays in registers.
template <int NV, int U = 1>
inline void InterleaveToNatural512(__m512i (&v)[NV]) {
  static_assert(NV > 0 && NV <= 16 && (NV & (NV - 1)) == 0);
  if constexpr (U < NV) {
    constexpr int kStage = std::countr_zero(static_cast<unsigned>(U));
    const __m512i lo = _mm512_load_si512(kInterleave512.idx[kStage][0]);
    const __m512i hi = _mm512_load_si512(kInterleave512.idx[kStage][1]);
    __m512i t[NV];
    for (int s = 0; s < NV; s += 2 * U) {
      for (int r = 0; r < U; ++r) {
        t[s + 2 * r] = _mm512_permutex2var_epi32(v[s + r], lo, v[s + U + r]);
        t[s + 2 * r + 1] =
            _mm512_permutex2var_epi32(v[s + r], hi, v[s + U + r]);
      }
    }
    for (int j = 0; j < NV; ++j) v[j] = t[j];
    InterleaveToNatural512<NV, 2 * U>(v);
  }
}

template <int NV, bool kNaturalOrder>
void Chunks512(const Plan512& plan, const uint8_t* data, size_t chunks,
               int32_t min_delta, int32_t init, int32_t* out,
               int32_t* base_out) {
  const __m512i vmask = _mm512_set1_epi32(static_cast<int>(plan.mask));
  const __m512i vmind = _mm512_set1_epi32(min_delta);
  const __m512i lane15 = _mm512_set1_epi32(15);
  __m512i base_vec = _mm512_set1_epi32(init);
  const uint8_t* src = data;
  const size_t num_segments = plan.segments.size();
  const size_t chunk_values = static_cast<size_t>(NV) * 16;

  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    __m512i v[NV];
    for (int j = 0; j < NV; ++j) v[j] = _mm512_setzero_si512();
    for (size_t s = 0; s < num_segments; ++s) {
      __m512i seg = _mm512_loadu_si512(src + plan.segments[s].byte_offset);
      const auto* perms = &plan.permutes[s * NV];
      const uint64_t* bmask = &plan.byte_masks[s * NV];
      for (int j = 0; j < NV; ++j) {
        if (bmask[j] == 0) continue;
        __m512i idx = _mm512_loadu_si512(perms[j].data());
        v[j] = _mm512_or_si512(
            v[j], _mm512_maskz_permutexvar_epi8(
                      static_cast<__mmask64>(bmask[j]), idx, seg));
      }
    }
    for (int j = 0; j < NV; ++j) {
      __m512i shift = _mm512_loadu_si512(plan.shifts[j].data());
      v[j] = _mm512_and_si512(_mm512_srlv_epi32(v[j], shift), vmask);
      v[j] = _mm512_add_epi32(v[j], vmind);
    }
    for (int j = 1; j < NV; ++j) v[j] = _mm512_add_epi32(v[j], v[j - 1]);

    // Prefix across 16 lanes: ceil(log2 16) = 4 permute+add rounds.
    __m512i totals = v[NV - 1];
    __m512i e = ShiftUp512<1>(totals);
    e = _mm512_add_epi32(e, ShiftUp512<1>(e));
    e = _mm512_add_epi32(e, ShiftUp512<2>(e));
    e = _mm512_add_epi32(e, ShiftUp512<4>(e));
    e = _mm512_add_epi32(e, ShiftUp512<8>(e));
    __m512i incl = _mm512_add_epi32(e, totals);
    __m512i prefix = _mm512_add_epi32(e, base_vec);

    for (int j = 0; j < NV; ++j) v[j] = _mm512_add_epi32(v[j], prefix);
    if constexpr (kNaturalOrder) InterleaveToNatural512<NV>(v);
    int32_t* dst = out + chunk * chunk_values;
    for (int j = 0; j < NV; ++j) _mm512_storeu_si512(dst + j * 16, v[j]);
    base_vec = _mm512_add_epi32(base_vec,
                                _mm512_permutexvar_epi32(lane15, incl));
    src += plan.bytes_per_chunk;
  }
  *base_out = _mm_cvtsi128_si32(_mm512_castsi512_si128(base_vec));
}

template <bool kNaturalOrder>
void DecodeImpl512(const uint8_t* data, size_t data_size, size_t n, int width,
                   int32_t min_delta, int n_v, int32_t init, int32_t* out) {
  if (width == 0 || width > 25) {
    DeltaDecodeOffsetsScalar(data, data_size, n, width, min_delta, init, out);
    return;
  }
  if (n_v <= 0) n_v = DefaultNumVectors(width);
  n_v = kNaturalOrder ? OrderedNumVectors(n_v) : std::clamp(n_v, 1, 16);
  const Plan512& plan = GetPlan512(width, n_v);
  const size_t chunk_values = static_cast<size_t>(plan.values_per_chunk);
  const size_t chunks = n / chunk_values;

  int32_t base = init;
  // The natural-order path runs only the power-of-two n_v that
  // OrderedNumVectors picks, so only those are instantiated.
  switch (n_v) {
#define ETSQP_NV512_CASE(NV)                                                 \
  case NV:                                                                   \
    if constexpr (!kNaturalOrder || std::has_single_bit(unsigned{NV})) {     \
      Chunks512<NV, kNaturalOrder>(plan, data, chunks, min_delta, init, out, \
                                   &base);                                   \
    }                                                                        \
    break;
    ETSQP_NV512_CASE(1)
    ETSQP_NV512_CASE(2)
    ETSQP_NV512_CASE(3)
    ETSQP_NV512_CASE(4)
    ETSQP_NV512_CASE(5)
    ETSQP_NV512_CASE(6)
    ETSQP_NV512_CASE(7)
    ETSQP_NV512_CASE(8)
    ETSQP_NV512_CASE(9)
    ETSQP_NV512_CASE(10)
    ETSQP_NV512_CASE(11)
    ETSQP_NV512_CASE(12)
    ETSQP_NV512_CASE(13)
    ETSQP_NV512_CASE(14)
    ETSQP_NV512_CASE(15)
    ETSQP_NV512_CASE(16)
    default:
      break;
  }
#undef ETSQP_NV512_CASE

  // The whole 16-value chunks left over decode at n_v = 1, where the
  // transposed order is the natural one, so a large n_v leaves fewer than
  // 16 values to the scalar tail (a 1023-residual block at n_v = 8 would
  // leave 127).
  size_t done = chunks * chunk_values;
  if (n_v > 1 && n - done >= 16) {
    const size_t rest = (n - done) / 16;
    Chunks512<1, kNaturalOrder>(GetPlan512(width, 1),
                                data + done * width / 8, rest, min_delta,
                                base, out + done, &base);
    done += rest * 16;
  }
  if (done < n) {
    size_t pos = done * static_cast<size_t>(width);
    int32_t running = base;
    for (size_t i = done; i < n; ++i) {
      uint32_t r = static_cast<uint32_t>(enc::UnpackOneBE(data, pos, width));
      pos += width;
      running =
          WrapAdd32(running, WrapAdd32(min_delta, static_cast<int32_t>(r)));
      out[i] = running;
    }
  }
  (void)data_size;
}

/// Natural-order unpack plan: 16 values per iteration consuming 2*width
/// bytes; every 4-byte window of values 0..15 fits the 64-byte load.
struct UnpackPlan512 {
  int width = 0;
  int bytes_per_iter = 0;  // 2 * width
  alignas(64) uint8_t perm[64] = {};
  uint64_t byte_mask = ~0ull;
  alignas(64) uint32_t shift[16] = {};
  uint32_t mask = 0;
};

UnpackPlan512 BuildUnpackPlan512(int width) {
  UnpackPlan512 plan;
  plan.width = width;
  plan.bytes_per_iter = 2 * width;
  plan.mask = MaskLow32(width);
  for (int v = 0; v < 16; ++v) {
    int bit = v * width;
    int end_byte = (bit + width - 1) / 8;
    int w = end_byte >= 3 ? end_byte - 3 : 0;
    assert(w + 3 <= 63);
    for (int i = 0; i < 4; ++i) {
      plan.perm[4 * v + i] = static_cast<uint8_t>(w + 3 - i);
    }
    plan.shift[v] = static_cast<uint32_t>(32 - (bit - 8 * w) - width);
  }
  return plan;
}

const UnpackPlan512& GetUnpackPlan512(int width) {
  static UnpackPlan512* plans = [] {
    auto* p = new UnpackPlan512[26];
    for (int w = 1; w <= 25; ++w) p[w] = BuildUnpackPlan512(w);
    return p;
  }();
  return plans[width];
}

}  // namespace

void UnpackBE32Avx512(const uint8_t* data, size_t data_size, size_t n,
                      int width, uint32_t* out) {
  if (width == 0) {
    for (size_t i = 0; i < n; ++i) out[i] = 0;
    return;
  }
  assert(width <= 25);
  const UnpackPlan512& plan = GetUnpackPlan512(width);
  const __m512i perm = _mm512_load_si512(plan.perm);
  const __m512i shift = _mm512_load_si512(plan.shift);
  const __m512i vmask = _mm512_set1_epi32(static_cast<int>(plan.mask));
  size_t iters = n / 16;
  const uint8_t* src = data;
  for (size_t k = 0; k < iters; ++k) {
    __m512i seg = _mm512_loadu_si512(src);
    __m512i v = _mm512_permutexvar_epi8(perm, seg);
    v = _mm512_and_si512(_mm512_srlv_epi32(v, shift), vmask);
    _mm512_storeu_si512(out + k * 16, v);
    src += plan.bytes_per_iter;
  }
  size_t done = iters * 16;
  if (done < n) {
    enc::UnpackBE32(data, data_size, done * static_cast<size_t>(width),
                    n - done, width, out + done);
  }
}

bool Avx512Available() {
  static const bool ok = DetectAvx512();
  return ok && !SimdDisabledForTesting();
}

void DeltaDecodeOffsetsAvx512(const uint8_t* data, size_t data_size, size_t n,
                              int width, int32_t min_delta, int n_v,
                              int32_t init, int32_t* out) {
  DecodeImpl512<true>(data, data_size, n, width, min_delta, n_v, init, out);
}

void DeltaDecodeOffsetsAvx512Unordered(const uint8_t* data, size_t data_size,
                                       size_t n, int width, int32_t min_delta,
                                       int n_v, int32_t init, int32_t* out) {
  DecodeImpl512<false>(data, data_size, n, width, min_delta, n_v, init, out);
}

}  // namespace etsqp::simd
