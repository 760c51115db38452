#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <string>
#include <tuple>

#include "common/aligned_buffer.h"
#include "common/bit_util.h"
#include "common/bitstream.h"
#include "common/cpu.h"
#include "encoding/bitpack.h"
#include "simd/agg_simd.h"
#include "simd/delta_simd.h"
#include "simd/filter_simd.h"
#include "simd/merge_simd.h"
#include "simd/rle_flatten.h"
#include "simd/transposed_unpack.h"
#include "simd/transposed_unpack_avx512.h"
#include "simd/unpack.h"
#include "simd/unpack_plan.h"

namespace etsqp::simd {
namespace {

AlignedBuffer PackValues(const std::vector<uint64_t>& values, int width) {
  BitWriter w;
  enc::PackBE(values.data(), values.size(), width, &w);
  auto bytes = w.TakeBuffer();
  AlignedBuffer buf;
  buf.Assign(bytes.data(), bytes.size());
  return buf;
}

// --------------------------------------------------------------- unpack

class UnpackWidthSizeTest
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(UnpackWidthSizeTest, Avx2MatchesScalar) {
  auto [width, n] = GetParam();
  if (!CpuHasAvx2()) GTEST_SKIP() << "no AVX2";
  std::mt19937_64 rng(width * 1000 + n);
  std::vector<uint64_t> values(n);
  for (auto& v : values) v = rng() & MaskLow64(width);
  AlignedBuffer buf = PackValues(values, width);
  std::vector<uint32_t> simd_out(n, 0xDEADBEEF), scalar_out(n, 1);
  UnpackBE32Avx2(buf.data(), buf.size(), n, width, simd_out.data());
  UnpackBE32Scalar(buf.data(), buf.size(), n, width, scalar_out.data());
  ASSERT_EQ(simd_out, scalar_out) << "width=" << width << " n=" << n;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(scalar_out[i], static_cast<uint32_t>(values[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UnpackWidthSizeTest,
    ::testing::Combine(::testing::Range(1, 33),
                       ::testing::Values<size_t>(1, 8, 63, 257, 4096)));

class Unpack512Test : public ::testing::TestWithParam<int> {};

TEST_P(Unpack512Test, MatchesScalar) {
  if (!Avx512Available()) GTEST_SKIP() << "no AVX-512 VBMI";
  int width = GetParam();
  std::mt19937_64 rng(width + 900);
  for (size_t n : {1ul, 16ul, 17ul, 500ul, 4096ul}) {
    std::vector<uint64_t> values(n);
    for (auto& v : values) v = rng() & MaskLow64(width);
    AlignedBuffer buf = PackValues(values, width);
    std::vector<uint32_t> a(n, 1), b(n, 2);
    UnpackBE32Avx512(buf.data(), buf.size(), n, width, a.data());
    UnpackBE32Scalar(buf.data(), buf.size(), n, width, b.data());
    ASSERT_EQ(a, b) << "width=" << width << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, Unpack512Test, ::testing::Range(1, 26));

TEST(UnpackPlanTest, FastPlanInvariants) {
  for (int width = 1; width <= 25; ++width) {
    const UnpackPlan& plan = GetUnpackPlan(width);
    EXPECT_FALSE(plan.wide);
    EXPECT_EQ(plan.bytes_per_iter, width);
    EXPECT_EQ(plan.mask, MaskLow32(width));
    for (int i = 0; i < 32; ++i) {
      EXPECT_TRUE(plan.shuffle[i] == 0x80 || plan.shuffle[i] <= 15);
    }
    for (int j = 0; j < 8; ++j) {
      EXPECT_LT(plan.shift[j], 32u);
    }
  }
}

TEST(UnpackPlanTest, WidePlanInvariants) {
  for (int width = 26; width <= 32; ++width) {
    const UnpackPlan& plan = GetUnpackPlan(width);
    EXPECT_TRUE(plan.wide);
    EXPECT_EQ(plan.mask64, MaskLow64(width));
    for (int s = 0; s < 2; ++s) {
      for (int k = 0; k < 4; ++k) {
        EXPECT_LT(plan.steps[s].shift[k], 64u);
      }
    }
  }
}

TEST(UnpackPlanTest, TransposedPlanCoversAllValues) {
  for (int width : {1, 7, 10, 13, 25}) {
    for (int n_v : {1, 3, 6, 8, 16}) {
      const TransposedPlan& plan = GetTransposedPlan(width, n_v);
      EXPECT_EQ(plan.values_per_chunk, n_v * 8);
      EXPECT_EQ(plan.bytes_per_chunk, n_v * width);
      // Every (vector, lane) slot must be written by exactly one segment.
      for (int j = 0; j < n_v; ++j) {
        for (int lane = 0; lane < 8; ++lane) {
          int writers = 0;
          for (size_t s = 0; s < plan.segments.size(); ++s) {
            const auto& shuf = plan.shuffles[s * n_v + j];
            int base = (lane / 4) * 16 + (lane % 4) * 4;
            if (shuf[base] != 0x80) ++writers;
          }
          EXPECT_EQ(writers, 1) << "w=" << width << " nv=" << n_v;
        }
      }
    }
  }
}

TEST(UnpackPlanTest, PlansAreCachedSingletons) {
  // The JIT decoder generator (Section III-B) computes each plan once; the
  // steady state is a lookup.
  const UnpackPlan* a = &GetUnpackPlan(10);
  const UnpackPlan* b = &GetUnpackPlan(10);
  EXPECT_EQ(a, b);
  const TransposedPlan* c = &GetTransposedPlan(10, 6);
  const TransposedPlan* d = &GetTransposedPlan(10, 6);
  EXPECT_EQ(c, d);
  EXPECT_NE(c, &GetTransposedPlan(10, 4));
}

// --------------------------------------------------------------- delta

/// Residuals that reach every bit of a `width`-bit field. min_delta is
/// -2^(width-1), so the deltas centre on zero; a residual that would carry
/// the running sum past +-2^30 is mirrored (r -> mask - r negates the delta
/// minus one), so the sums stay inside int32 as the kernels require.
struct FullWidthDeltas {
  std::vector<uint64_t> residuals;
  int32_t min_delta = 0;
};

FullWidthDeltas MakeFullWidthDeltas(int width, size_t n, int32_t init,
                                    uint64_t seed) {
  const uint64_t mask = MaskLow64(width);
  FullWidthDeltas d;
  d.min_delta = -static_cast<int32_t>(1u << (width - 1));
  d.residuals.resize(n);
  std::mt19937_64 rng(seed);
  int64_t running = init;
  for (uint64_t& r : d.residuals) {
    r = rng() & mask;
    int64_t next = running + d.min_delta + static_cast<int64_t>(r);
    if (next > (1 << 30) || next < -(1 << 30)) {
      r = mask - r;
      next = running + d.min_delta + static_cast<int64_t>(r);
    }
    running = next;
  }
  return d;
}

/// Lengths around the chunk sizes of both layouts a request for `n_v` may
/// run (the unordered kernel's n_v and the ordered kernel's
/// OrderedNumVectors(n_v)), plus several chunks with a tail.
std::vector<size_t> ChunkEdgeLengths(int n_v, int lanes) {
  std::vector<size_t> lengths = {0, 1, 1023, 1337};
  for (int nv : {n_v, OrderedNumVectors(n_v)}) {
    const size_t chunk = static_cast<size_t>(nv) * lanes;
    for (size_t n : {chunk - 1, chunk, chunk + 1, 3 * chunk + 5}) {
      lengths.push_back(n);
    }
  }
  return lengths;
}

class TransposedDeltaTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TransposedDeltaTest, Avx2MatchesScalar) {
  auto [width, n_v] = GetParam();
  if (!CpuHasAvx2()) GTEST_SKIP() << "no AVX2";
  for (size_t n : ChunkEdgeLengths(n_v, 8)) {
    FullWidthDeltas d = MakeFullWidthDeltas(width, n, 100, width * 100 + n_v);
    AlignedBuffer buf = PackValues(d.residuals, width);
    std::vector<int32_t> simd_out(n), scalar_out(n), unordered(n);
    DeltaDecodeOffsetsAvx2(buf.data(), buf.size(), n, width, d.min_delta, n_v,
                           100, simd_out.data());
    DeltaDecodeOffsetsScalar(buf.data(), buf.size(), n, width, d.min_delta,
                             100, scalar_out.data());
    ASSERT_EQ(simd_out, scalar_out)
        << "width=" << width << " n_v=" << n_v << " n=" << n;

    // Unordered variant: same multiset.
    DeltaDecodeOffsetsAvx2Unordered(buf.data(), buf.size(), n, width,
                                    d.min_delta, n_v, 100, unordered.data());
    std::sort(scalar_out.begin(), scalar_out.end());
    std::sort(unordered.begin(), unordered.end());
    ASSERT_EQ(unordered, scalar_out)
        << "width=" << width << " n_v=" << n_v << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TransposedDeltaTest,
                         ::testing::Combine(::testing::Range(1, 26),
                                            ::testing::Range(1, 17)));

class Avx512DeltaTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Avx512DeltaTest, MatchesScalar) {
  if (!Avx512Available()) GTEST_SKIP() << "no AVX-512 VBMI";
  auto [width, n_v] = GetParam();
  for (size_t n : ChunkEdgeLengths(n_v, 16)) {
    FullWidthDeltas d = MakeFullWidthDeltas(width, n, 42, width * 31 + n_v);
    AlignedBuffer buf = PackValues(d.residuals, width);
    std::vector<int32_t> simd_out(n), scalar_out(n), unordered(n);
    DeltaDecodeOffsetsAvx512(buf.data(), buf.size(), n, width, d.min_delta,
                             n_v, 42, simd_out.data());
    DeltaDecodeOffsetsScalar(buf.data(), buf.size(), n, width, d.min_delta, 42,
                             scalar_out.data());
    ASSERT_EQ(simd_out, scalar_out)
        << "width=" << width << " n_v=" << n_v << " n=" << n;

    // Unordered variant: same multiset.
    DeltaDecodeOffsetsAvx512Unordered(buf.data(), buf.size(), n, width,
                                      d.min_delta, n_v, 42, unordered.data());
    std::sort(scalar_out.begin(), scalar_out.end());
    std::sort(unordered.begin(), unordered.end());
    ASSERT_EQ(unordered, scalar_out)
        << "width=" << width << " n_v=" << n_v << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Avx512DeltaTest,
    ::testing::Combine(::testing::Range(1, 26), ::testing::Range(1, 17)));

TEST(TransposedDeltaTest, OrderedNumVectorsIsAPowerOfTwoNotAbove) {
  const int expected[17] = {1, 1, 2, 2, 4, 4, 4, 4, 8,
                            8, 8, 8, 8, 8, 8, 8, 16};
  for (int n_v = 0; n_v <= 16; ++n_v) {
    EXPECT_EQ(OrderedNumVectors(n_v), expected[n_v]) << n_v;
  }
  EXPECT_EQ(OrderedNumVectors(40), 16);
}

TEST(TransposedDeltaTest, DefaultNvInRange) {
  for (int width = 1; width <= 25; ++width) {
    int n_v = DefaultNumVectors(width);
    EXPECT_GE(n_v, 1) << width;
    EXPECT_LE(n_v, 16) << width;
  }
  // The paper's Figure 4 example: width 10 -> 6 vectors.
  EXPECT_EQ(DefaultNumVectors(10), 6);
}

TEST(TransposedDeltaTest, InitParameterShiftsOutput) {
  std::vector<uint64_t> residuals(64, 1);
  AlignedBuffer buf = PackValues(residuals, 4);
  std::vector<int32_t> a(64), b(64);
  DeltaDecodeOffsets(buf.data(), buf.size(), 64, 4, 0, 0, 0, a.data());
  DeltaDecodeOffsets(buf.data(), buf.size(), 64, 4, 0, 0, 50, b.data());
  for (size_t i = 0; i < 64; ++i) EXPECT_EQ(b[i], a[i] + 50);
}

TEST(TransposedDeltaTest, UnorderedIsPermutationWithEqualSums) {
  std::mt19937_64 rng(55);
  size_t n = 1536;
  int width = 9;
  std::vector<uint64_t> residuals(n);
  for (auto& v : residuals) v = rng() & MaskLow64(width);
  AlignedBuffer buf = PackValues(residuals, width);
  std::vector<int32_t> ordered(n), unordered(n);
  DeltaDecodeOffsets(buf.data(), buf.size(), n, width, 2, 0, 5,
                     ordered.data());
  DeltaDecodeOffsetsUnordered(buf.data(), buf.size(), n, width, 2, 0, 5,
                              unordered.data());
  std::vector<int32_t> a = ordered, b = unordered;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);  // same multiset -> same SUM/MIN/MAX/COUNT
  EXPECT_NE(ordered, unordered);  // layout actually differs (n_v=5 chunks)
}

TEST(PrefixSumTest, Avx2MatchesScalar) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "no AVX2";
  std::mt19937_64 rng(77);
  for (size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 100ul, 1000ul}) {
    std::vector<int32_t> a(n), b;
    for (auto& v : a) v = static_cast<int32_t>(rng() % 1000) - 500;
    b = a;
    PrefixSumInt32Avx2(a.data(), n);
    PrefixSumInt32Scalar(b.data(), n);
    EXPECT_EQ(a, b) << n;
  }
}

TEST(SboostTest, MatchesTransposedDecode) {
  std::mt19937_64 rng(88);
  size_t n = 2000;
  int width = 12;
  std::vector<uint64_t> residuals(n);
  for (auto& v : residuals) v = rng() & MaskLow64(width);
  AlignedBuffer buf = PackValues(residuals, width);
  std::vector<int32_t> sboost(n), etsqp(n);
  SboostDeltaDecode(buf.data(), buf.size(), n, width, 3, 11, sboost.data());
  DeltaDecodeOffsets(buf.data(), buf.size(), n, width, 3, 0, 11,
                     etsqp.data());
  EXPECT_EQ(sboost, etsqp);
}

// --------------------------------------------------------------- flatten

TEST(FlattenTest, Avx2MatchesScalar) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "no AVX2";
  std::mt19937_64 rng(99);
  size_t num_pairs = 200;
  std::vector<int32_t> deltas(num_pairs);
  std::vector<uint32_t> runs(num_pairs);
  size_t total = 0;
  for (size_t i = 0; i < num_pairs; ++i) {
    deltas[i] = static_cast<int32_t>(rng() % 21) - 10;
    runs[i] = 1 + static_cast<uint32_t>(rng() % 40);
    total += runs[i];
  }
  std::vector<int32_t> a(total), b(total);
  size_t na = FlattenDeltaRunsAvx2(deltas.data(), runs.data(), num_pairs, 5,
                                   a.data());
  size_t nb = FlattenDeltaRunsScalar(deltas.data(), runs.data(), num_pairs, 5,
                                     b.data());
  ASSERT_EQ(na, total);
  ASSERT_EQ(nb, total);
  EXPECT_EQ(a, b);
}

TEST(FlattenTest, LongRunsUseRamps) {
  std::vector<int32_t> deltas = {3};
  std::vector<uint32_t> runs = {100};
  std::vector<int32_t> out(100);
  size_t n = FlattenDeltaRuns(deltas.data(), runs.data(), 1, 10, out.data());
  ASSERT_EQ(n, 100u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(out[i], 10 + 3 * static_cast<int32_t>(i + 1));
  }
}

// --------------------------------------------------------------- filter

TEST(FilterTest, Avx2MatchesScalar) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "no AVX2";
  std::mt19937_64 rng(111);
  for (size_t n : {1ul, 8ul, 64ul, 65ul, 1000ul}) {
    std::vector<int32_t> values(n);
    for (auto& v : values) v = static_cast<int32_t>(rng() % 2000) - 1000;
    std::vector<uint64_t> ma(CeilDiv(n, 64)), mb(CeilDiv(n, 64));
    RangeFilterMaskInt32Avx2(values.data(), n, -100, 250, ma.data());
    RangeFilterMaskInt32Scalar(values.data(), n, -100, 250, mb.data());
    EXPECT_EQ(ma, mb) << n;
  }
}

TEST(FilterTest, MaskSemantics) {
  std::vector<int32_t> values = {1, 5, 10, 15, 20};
  uint64_t mask = 0;
  RangeFilterMaskInt32(values.data(), values.size(), 5, 15, &mask);
  EXPECT_EQ(mask, 0b01110u);
  EXPECT_EQ(std::popcount(mask), 3);
}

// --------------------------------------------------------------- agg

/// The filtered aggregate of values in [lo, hi], value at a time.
RangeAggregate RangeAggregateReference(const std::vector<int32_t>& values,
                                       int32_t lo, int32_t hi) {
  RangeAggregate agg;
  for (int32_t v : values) {
    if (v < lo || v > hi) continue;
    ++agg.count;
    agg.sum += v;
    agg.min = std::min(agg.min, v);
    agg.max = std::max(agg.max, v);
  }
  return agg;
}

/// Checks `got` against the reference `want` on the accumulators asked for.
void ExpectRangeAggregate(const RangeAggregate& got,
                          const RangeAggregate& want, bool want_sum,
                          bool want_min_max, const std::string& what) {
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.sum, want_sum ? want.sum : 0) << what;
  EXPECT_EQ(got.min, want_min_max ? want.min : INT32_MAX) << what;
  EXPECT_EQ(got.max, want_min_max ? want.max : INT32_MIN) << what;
}

TEST(AggTest, RangeAggregateMatchesScalar) {
  // Every accumulator choice, on the dispatched path, the forced scalar and
  // AVX2 paths and the dispatcher with SIMD disabled, over lengths around
  // the 8-lane step and bounds at the int32 extremes, passing none, some
  // and all of the values.
  std::mt19937_64 rng(222);
  const std::pair<int32_t, int32_t> bounds[] = {
      {INT32_MIN, INT32_MAX}, {INT32_MIN, 0},   {0, INT32_MAX},
      {-100000, 250000},      {INT32_MAX, INT32_MAX},
      {INT32_MIN, INT32_MIN}, {5, 4},           {INT32_MAX, INT32_MIN}};
  for (size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 15ul, 100ul, 4096ul, 4101ul}) {
    std::vector<int32_t> values(n);
    for (auto& v : values) {
      switch (rng() % 4) {
        case 0:
          v = INT32_MIN + static_cast<int32_t>(rng() % 3);
          break;
        case 1:
          v = INT32_MAX - static_cast<int32_t>(rng() % 3);
          break;
        default:
          v = static_cast<int32_t>(rng() % 1000000) - 500000;
      }
    }
    for (const auto& [lo, hi] : bounds) {
      const RangeAggregate want = RangeAggregateReference(values, lo, hi);
      for (bool want_sum : {false, true}) {
        for (bool want_min_max : {false, true}) {
          const std::string what = "n=" + std::to_string(n) +
                                   " lo=" + std::to_string(lo) +
                                   " hi=" + std::to_string(hi) +
                                   " sum=" + std::to_string(want_sum) +
                                   " minmax=" + std::to_string(want_min_max);
          ExpectRangeAggregate(
              RangeAggregateInt32(values.data(), n, lo, hi, want_sum,
                                  want_min_max),
              want, want_sum, want_min_max, what);
          ExpectRangeAggregate(
              RangeAggregateInt32Scalar(values.data(), n, lo, hi, want_sum,
                                        want_min_max),
              want, want_sum, want_min_max, what + " scalar");
          if (CpuHasAvx2()) {
            ExpectRangeAggregate(
                RangeAggregateInt32Avx2(values.data(), n, lo, hi, want_sum,
                                        want_min_max),
                want, want_sum, want_min_max, what + " avx2");
          }
          SetSimdDisabledForTesting(true);
          ExpectRangeAggregate(
              RangeAggregateInt32(values.data(), n, lo, hi, want_sum,
                                  want_min_max),
              want, want_sum, want_min_max, what + " simd off");
          SetSimdDisabledForTesting(false);
        }
      }
    }
  }
}

TEST(AggTest, RangeAggregateMinMax) {
  std::vector<int32_t> values = {5, -3, 100, 42, -77, 8, 9, 10, 11};
  const RangeAggregate agg = RangeAggregateInt32(
      values.data(), values.size(), -80, 100, /*want_sum=*/true,
      /*want_min_max=*/true);
  EXPECT_EQ(agg.count, 9u);
  EXPECT_EQ(agg.sum, 105);
  EXPECT_EQ(agg.min, -77);
  EXPECT_EQ(agg.max, 100);
  const RangeAggregate mid = RangeAggregateInt32(
      values.data(), values.size(), 9, 42, /*want_sum=*/true,
      /*want_min_max=*/true);
  EXPECT_EQ(mid.count, 4u);  // 42, 9, 10, 11
  EXPECT_EQ(mid.sum, 72);
  EXPECT_EQ(mid.min, 9);
  EXPECT_EQ(mid.max, 42);
}

TEST(AggTest, RangeAggregateNonePass) {
  std::vector<int32_t> values(20, 7);
  const RangeAggregate agg = RangeAggregateInt32(
      values.data(), values.size(), 8, 100, /*want_sum=*/true,
      /*want_min_max=*/true);
  EXPECT_EQ(agg.count, 0u);
  EXPECT_EQ(agg.sum, 0);
  EXPECT_EQ(agg.min, INT32_MAX);
  EXPECT_EQ(agg.max, INT32_MIN);
}

TEST(AggTest, SumInt32LargeMagnitudes) {
  std::vector<int32_t> values(100000, INT32_MAX);
  int64_t expected = static_cast<int64_t>(INT32_MAX) * 100000;
  EXPECT_EQ(SumInt32(values.data(), values.size()), expected);
}

TEST(AggTest, MinMaxUnmaskedMatchesScalar) {
  std::mt19937_64 rng(555);
  for (size_t n : {1ul, 2ul, 15ul, 16ul, 100ul, 4097ul}) {
    std::vector<int32_t> values(n);
    for (auto& v : values) v = static_cast<int32_t>(rng());
    int32_t mn, mx;
    MinMaxInt32(values.data(), n, &mn, &mx);
    EXPECT_EQ(mn, *std::min_element(values.begin(), values.end())) << n;
    EXPECT_EQ(mx, *std::max_element(values.begin(), values.end())) << n;
  }
}

/// A block's residuals packed Big-Endian at `width` bits, in a buffer that
/// ends exactly 32 bytes past the packed bytes (the slack a page column
/// guarantees), so a read past it shows under AddressSanitizer.
struct PackedResiduals {
  std::vector<uint64_t> values;
  std::vector<uint8_t> bytes;
  size_t packed_bytes = 0;
};

PackedResiduals PackResiduals(std::vector<uint64_t> values, int width) {
  PackedResiduals p;
  BitWriter w;
  enc::PackBE(values.data(), values.size(), width, &w);
  p.bytes = w.TakeBuffer();
  p.packed_bytes = p.bytes.size();
  p.bytes.resize(p.packed_bytes + 32, 0xA5);
  p.values = std::move(values);
  return p;
}

/// The ramp sums of residuals [first, first + n), value at a time.
RampSums RampReference(const std::vector<uint64_t>& r, size_t first,
                       size_t n) {
  RampSums want;
  for (size_t k = 0; k < n; ++k) {
    want.sum += r[first + k];
    want.ramp += static_cast<unsigned __int128>(n - k) * r[first + k];
  }
  return want;
}

/// Checks every path of PackedRampSum on residuals [first, first + n).
void ExpectRampSums(const PackedResiduals& p, int width, size_t first,
                    size_t n) {
  const RampSums want = RampReference(p.values, first, n);
  const std::string what = "w=" + std::to_string(width) +
                           " first=" + std::to_string(first) +
                           " n=" + std::to_string(n);
  auto check = [&](const RampSums& got, const char* path) {
    EXPECT_EQ(got.sum, want.sum) << what << " " << path;
    EXPECT_TRUE(got.ramp == want.ramp) << what << " " << path;
  };
  check(PackedRampSum(p.bytes.data(), p.packed_bytes, width, first, n),
        "dispatched");
  check(PackedRampSumScalar(p.bytes.data(), p.packed_bytes, width, first, n),
        "scalar");
  if (CpuHasAvx2()) {
    check(PackedRampSumAvx2(p.bytes.data(), p.packed_bytes, width, first, n),
          "avx2");
  }
}

TEST(AggTest, PackedRampSumMatchesScalar) {
  // Every width the fused reader takes (and 32), slices starting at every
  // residual offset mod 16, lengths around the 8-lane vector and the whole
  // of a 1023-residual block.
  std::mt19937_64 rng(333);
  constexpr size_t kBlock = 1023;
  for (int width = 0; width <= 32; ++width) {
    std::vector<uint64_t> r(kBlock);
    for (auto& v : r) v = rng() & MaskLow64(width);
    const PackedResiduals p = PackResiduals(r, width);
    for (size_t first = 0; first < 16; ++first) {
      for (size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 16ul, 17ul, 100ul}) {
        ExpectRampSums(p, width, first, n);
      }
      ExpectRampSums(p, width, first, kBlock - first);  // to the block end
      // Slices ending at every offset mod 16 before the block end.
      for (size_t cut = 1; cut <= 16; ++cut) {
        ExpectRampSums(p, width, first, kBlock - first - cut);
      }
    }
    ExpectRampSums(p, width, 0, kBlock);
  }
}

TEST(AggTest, PackedRampSumAllOnesHitsFlushBound) {
  // All-ones residuals make every 32-bit lane sum as large as it can get,
  // so a flush one vector late wraps. Whole blocks, and a run longer than
  // one 2^16-residual piece.
  for (int width = 1; width <= 32; ++width) {
    const PackedResiduals p = PackResiduals(
        std::vector<uint64_t>(1023, MaskLow64(width)), width);
    ExpectRampSums(p, width, 0, 1023);
    ExpectRampSums(p, width, 5, 1011);
  }
  for (int width : {1, 19, 20, 31}) {
    const PackedResiduals p = PackResiduals(
        std::vector<uint64_t>(70001, MaskLow64(width)), width);
    ExpectRampSums(p, width, 3, 69998);
  }
}

TEST(AggTest, PackedRampSumFormula) {
  // r = [1, 1, 1] at width 1: ramp 3 + 2 + 1 = 6, plain sum 3.
  const PackedResiduals p = PackResiduals({1, 1, 1}, 1);
  const RampSums s = PackedRampSum(p.bytes.data(), p.packed_bytes, 1, 0, 3);
  EXPECT_EQ(s.sum, 3u);
  EXPECT_TRUE(s.ramp == 6);
}

// ------------------------------------------------------------ merge kernels

/// Sorted stream with duplicate runs (1-3 long when allowed) separated by
/// gaps of 1-64 — the shapes the merge kernels must agree on.
std::vector<int64_t> RandomSortedTimes(std::mt19937_64& rng, size_t n,
                                       bool allow_dups) {
  std::vector<int64_t> t;
  t.reserve(n);
  int64_t cur = static_cast<int64_t>(rng() % 1000);
  while (t.size() < n) {
    size_t run = allow_dups ? 1 + rng() % 3 : 1;
    for (size_t i = 0; i < run && t.size() < n; ++i) t.push_back(cur);
    cur += 1 + static_cast<int64_t>(rng() % 64);
  }
  return t;
}

std::vector<std::pair<uint32_t, uint32_t>> IntersectWith(
    const std::vector<int64_t>& l, const std::vector<int64_t>& r,
    MergeIsa isa) {
  std::vector<uint32_t> il(std::min(l.size(), r.size()));
  std::vector<uint32_t> ir(il.size());
  size_t m = IntersectIndicesInt64(l.data(), l.size(), r.data(), r.size(),
                                   il.data(), ir.data(), isa);
  std::vector<std::pair<uint32_t, uint32_t>> out(m);
  for (size_t k = 0; k < m; ++k) out[k] = {il[k], ir[k]};
  return out;
}

constexpr MergeIsa kAllMergeIsas[] = {MergeIsa::kScalar, MergeIsa::kAvx2,
                                      MergeIsa::kAvx512};

TEST(MergeSimdTest, IntersectDifferentialRandomStreams) {
  std::mt19937_64 rng(2024);
  const MergeIsa kIsas[] = {MergeIsa::kAvx2, MergeIsa::kAvx512};
  for (int iter = 0; iter < 60; ++iter) {
    size_t nl = rng() % 500;
    size_t nr = rng() % 500;
    bool dups = (iter % 2) == 0;
    auto l = RandomSortedTimes(rng, nl, dups);
    auto r = RandomSortedTimes(rng, nr, dups);
    if (iter % 3 == 2 && !l.empty()) {
      // Heavy-overlap shape: right side samples the left stream.
      r.clear();
      for (int64_t t : l) {
        if (rng() % 3 != 0) r.push_back(t);
      }
    }
    nl = l.size();
    nr = r.size();
    std::vector<uint32_t> il(std::min(nl, nr)), ir(std::min(nl, nr));
    size_t m = IntersectIndicesInt64Scalar(l.data(), nl, r.data(), nr,
                                           il.data(), ir.data());
    std::vector<std::pair<uint32_t, uint32_t>> ref(m);
    for (size_t k = 0; k < m; ++k) ref[k] = {il[k], ir[k]};
    for (MergeIsa isa : kIsas) {
      EXPECT_EQ(IntersectWith(l, r, isa), ref)
          << "iter=" << iter << " isa=" << static_cast<int>(isa);
    }
  }
}

TEST(MergeSimdTest, IntersectSkewedSizesHitGallop) {
  std::mt19937_64 rng(77);
  // 40 short vs 5000 long: the dispatcher takes the galloping path.
  auto longside = RandomSortedTimes(rng, 5000, /*allow_dups=*/true);
  std::vector<int64_t> shortside;
  for (size_t i = 0; i < 40; ++i) {
    shortside.push_back(longside[(i * 127) % longside.size()]);
  }
  std::sort(shortside.begin(), shortside.end());
  std::vector<uint32_t> il(40), ir(40);
  size_t m = IntersectIndicesInt64Scalar(shortside.data(), 40, longside.data(),
                                         longside.size(), il.data(),
                                         ir.data());
  std::vector<std::pair<uint32_t, uint32_t>> ref(m);
  for (size_t k = 0; k < m; ++k) ref[k] = {il[k], ir[k]};
  EXPECT_EQ(IntersectWith(shortside, longside, MergeIsa::kAvx2), ref);
  // Swapped operand order exercises the other gallop branch.
  m = IntersectIndicesInt64Scalar(longside.data(), longside.size(),
                                  shortside.data(), 40, il.data(), ir.data());
  ref.assign(m, {});
  for (size_t k = 0; k < m; ++k) ref[k] = {il[k], ir[k]};
  EXPECT_EQ(IntersectWith(longside, shortside, MergeIsa::kAvx2), ref);
}

TEST(MergeSimdTest, IntersectEmptyAndDisjoint) {
  std::vector<int64_t> a = {1, 2, 3};
  std::vector<int64_t> b = {10, 20, 30};
  uint32_t il[3], ir[3];
  for (MergeIsa isa : kAllMergeIsas) {
    EXPECT_EQ(IntersectIndicesInt64(a.data(), 3, b.data(), 3, il, ir, isa),
              0u);
    EXPECT_EQ(IntersectIndicesInt64(a.data(), 0, b.data(), 3, il, ir, isa),
              0u);
    EXPECT_EQ(IntersectIndicesInt64(a.data(), 3, b.data(), 0, il, ir, isa),
              0u);
  }
}

TEST(MergeSimdTest, IntersectDuplicateRunsPairwise) {
  // Run of 3 vs run of 2 at t=5 pairs element-wise: min(3,2) = 2 pairs.
  std::vector<int64_t> l = {5, 5, 5, 9};
  std::vector<int64_t> r = {5, 5, 9, 9};
  for (MergeIsa isa : kAllMergeIsas) {
    auto got = IntersectWith(l, r, isa);
    std::vector<std::pair<uint32_t, uint32_t>> want = {
        {0, 0}, {1, 1}, {3, 2}};
    EXPECT_EQ(got, want) << "isa=" << static_cast<int>(isa);
  }
}

TEST(MergeSimdTest, UnionDifferentialTieOrder) {
  std::mt19937_64 rng(99);
  for (int iter = 0; iter < 40; ++iter) {
    size_t nl = rng() % 400;
    size_t nr = rng() % 400;
    auto lt = RandomSortedTimes(rng, nl, /*allow_dups=*/true);
    auto rt = RandomSortedTimes(rng, nr, /*allow_dups=*/true);
    // Values distinguish provenance so tie-order bugs change the output.
    std::vector<int64_t> lv(nl), rv(nr);
    for (size_t i = 0; i < nl; ++i) lv[i] = static_cast<int64_t>(i) * 2;
    for (size_t i = 0; i < nr; ++i) rv[i] = static_cast<int64_t>(i) * 2 + 1;
    std::vector<int64_t> ref_t(nl + nr), ref_v(nl + nr);
    ASSERT_EQ(MergeUnionInt64Scalar(lt.data(), lv.data(), nl, rt.data(),
                                    rv.data(), nr, ref_t.data(),
                                    ref_v.data()),
              nl + nr);
    for (MergeIsa isa : {MergeIsa::kAvx2, MergeIsa::kAvx512}) {
      std::vector<int64_t> got_t(nl + nr), got_v(nl + nr);
      ASSERT_EQ(MergeUnionInt64(lt.data(), lv.data(), nl, rt.data(),
                                rv.data(), nr, got_t.data(), got_v.data(),
                                isa),
                nl + nr);
      EXPECT_EQ(got_t, ref_t) << "iter=" << iter;
      EXPECT_EQ(got_v, ref_v) << "iter=" << iter;
    }
  }
}

/// Two-way input shapes the adaptive merge loops switch between: one-tuple
/// interleaves (branchless steps), one-sided blocks (run-skip), rate
/// mismatches and duplicate runs that straddle a 16-step block edge.
struct MergeShape {
  const char* name;
  std::pair<std::vector<int64_t>, std::vector<int64_t>> (*make)(size_t n);
};

std::vector<int64_t> Clock(size_t n, int64_t start, int64_t step) {
  std::vector<int64_t> t(n);
  for (size_t i = 0; i < n; ++i) t[i] = start + static_cast<int64_t>(i) * step;
  return t;
}

std::vector<int64_t> EveryKth(const std::vector<int64_t>& t, size_t k) {
  std::vector<int64_t> out;
  for (size_t i = 0; i < t.size(); i += k) out.push_back(t[i]);
  return out;
}

/// Alternating runs of `run` ticks: the first run goes left, the next
/// right, and so on, n ticks in all.
std::pair<std::vector<int64_t>, std::vector<int64_t>> Runs(size_t n,
                                                           size_t run) {
  std::pair<std::vector<int64_t>, std::vector<int64_t>> lr;
  for (size_t i = 0; i < n; ++i) {
    auto& side = (i / run) % 2 == 0 ? lr.first : lr.second;
    side.push_back(static_cast<int64_t>(i) * 3);
  }
  return lr;
}

/// Run lengths cycling 1..20, so equal-timestamp runs start and end on
/// every offset of a 16-step block; the right side shifts its runs.
std::vector<int64_t> DupRuns(size_t n, size_t phase) {
  std::vector<int64_t> t;
  int64_t cur = 100;
  for (size_t r = phase; t.size() < n; ++r) {
    for (size_t i = 0; i < 1 + r % 20 && t.size() < n; ++i) t.push_back(cur);
    cur += 1 + static_cast<int64_t>(r % 3);
  }
  return t;
}

const MergeShape kMergeShapes[] = {
    {"identical", [](size_t n) { return std::make_pair(Clock(n, 0, 10),
                                                       Clock(n, 0, 10)); }},
    {"offset", [](size_t n) { return std::make_pair(Clock(n, 0, 10),
                                                    Clock(n, 5, 10)); }},
    {"decimated2", [](size_t n) {
       return std::make_pair(Clock(n, 0, 10), EveryKth(Clock(n, 0, 10), 2));
     }},
    {"decimated4", [](size_t n) {
       return std::make_pair(Clock(n, 0, 10), EveryKth(Clock(n, 0, 10), 4));
     }},
    {"decimated8", [](size_t n) {
       return std::make_pair(Clock(n, 0, 10), EveryKth(Clock(n, 0, 10), 8));
     }},
    {"decimated32", [](size_t n) {
       return std::make_pair(Clock(n, 0, 10), EveryKth(Clock(n, 0, 10), 32));
     }},
    {"runs15", [](size_t n) { return Runs(n, 15); }},
    {"runs16", [](size_t n) { return Runs(n, 16); }},
    {"runs17", [](size_t n) { return Runs(n, 17); }},
    {"runs500", [](size_t n) { return Runs(n, 500); }},
    {"disjoint", [](size_t n) { return std::make_pair(Clock(n, 0, 1),
                                                      Clock(n, 1 << 20, 1)); }},
    {"one_empty", [](size_t n) {
       return std::make_pair(Clock(n, 0, 1), std::vector<int64_t>{});
     }},
    {"dup_runs", [](size_t n) { return std::make_pair(DupRuns(n, 0),
                                                      DupRuns(n, 7)); }},
};

std::vector<size_t> MergeShapeLengths() {
  std::vector<size_t> ns;
  for (size_t n = 0; n <= 40; ++n) ns.push_back(n);
  for (size_t n : {4095, 4096, 4097}) ns.push_back(n);
  return ns;
}

TEST(MergeSimdTest, UnionShapesMatchScalar) {
  for (const MergeShape& shape : kMergeShapes) {
    for (size_t n : MergeShapeLengths()) {
      auto [a, b] = shape.make(n);
      // Both operand orders: tie order and the one-sided hand-off differ
      // per side.
      for (int swap = 0; swap < 2; ++swap) {
        const auto& lt = swap ? b : a;
        const auto& rt = swap ? a : b;
        const size_t nl = lt.size(), nr = rt.size();
        // Values record provenance, so a tie emitted right-first differs.
        std::vector<int64_t> lv(nl), rv(nr);
        for (size_t i = 0; i < nl; ++i) lv[i] = static_cast<int64_t>(i) * 2;
        for (size_t i = 0; i < nr; ++i) rv[i] = static_cast<int64_t>(i) * 2 + 1;
        std::vector<int64_t> ref_t(nl + nr), ref_v(nl + nr);
        ASSERT_EQ(MergeUnionInt64Scalar(lt.data(), lv.data(), nl, rt.data(),
                                        rv.data(), nr, ref_t.data(),
                                        ref_v.data()),
                  nl + nr);
        for (MergeIsa isa : kAllMergeIsas) {
          std::vector<int64_t> got_t(nl + nr), got_v(nl + nr);
          ASSERT_EQ(MergeUnionInt64(lt.data(), lv.data(), nl, rt.data(),
                                    rv.data(), nr, got_t.data(), got_v.data(),
                                    isa),
                    nl + nr);
          for (size_t k = 0; k < nl + nr; ++k) {
            ASSERT_EQ(got_t[k], ref_t[k])
                << shape.name << " n=" << n << " swap=" << swap
                << " isa=" << static_cast<int>(isa) << " k=" << k;
            ASSERT_EQ(got_v[k], ref_v[k])
                << shape.name << " n=" << n << " swap=" << swap
                << " isa=" << static_cast<int>(isa) << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(MergeSimdTest, IntersectShapesMatchScalar) {
  for (const MergeShape& shape : kMergeShapes) {
    for (size_t n : MergeShapeLengths()) {
      auto [a, b] = shape.make(n);
      for (int swap = 0; swap < 2; ++swap) {
        const auto& l = swap ? b : a;
        const auto& r = swap ? a : b;
        std::vector<uint32_t> il(std::min(l.size(), r.size()));
        std::vector<uint32_t> ir(il.size());
        const size_t m = IntersectIndicesInt64Scalar(
            l.data(), l.size(), r.data(), r.size(), il.data(), ir.data());
        for (MergeIsa isa : kAllMergeIsas) {
          const auto got = IntersectWith(l, r, isa);
          ASSERT_EQ(got.size(), m) << shape.name << " n=" << n
                                   << " swap=" << swap
                                   << " isa=" << static_cast<int>(isa);
          for (size_t k = 0; k < m; ++k) {
            ASSERT_EQ(got[k], std::make_pair(il[k], ir[k]))
                << shape.name << " n=" << n << " swap=" << swap
                << " isa=" << static_cast<int>(isa) << " k=" << k;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace etsqp::simd
