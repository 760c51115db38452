// Google-benchmark microbenchmarks of the SIMD kernels (the instruction-level
// building blocks of Sections II-B/III-A): constant-width unpack, transposed
// Delta recovery in natural order and in the transposed layout (AVX2 and
// AVX-512; the natural-order rows run at the n_v OrderedNumVectors picks for
// the Prop. 1 default), SBoost-style prefix-sum decode, Repeat flatten, range
// filter, masked aggregation, and the fused weighted-ramp SUM.

#include <benchmark/benchmark.h>

#include <random>

#include "common/aligned_buffer.h"
#include "common/bit_util.h"
#include "common/bitstream.h"
#include "encoding/bitpack.h"
#include "simd/agg_simd.h"
#include "simd/delta_simd.h"
#include "simd/filter_simd.h"
#include "simd/rle_flatten.h"
#include "simd/transposed_unpack.h"
#include "simd/transposed_unpack_avx512.h"
#include "simd/unpack.h"

namespace etsqp {
namespace {

constexpr size_t kN = 1 << 20;

AlignedBuffer MakePacked(int width, size_t n) {
  std::mt19937_64 rng(width);
  std::vector<uint64_t> values(n);
  for (auto& v : values) v = rng() & MaskLow64(width);
  BitWriter w;
  enc::PackBE(values.data(), n, width, &w);
  auto bytes = w.TakeBuffer();
  AlignedBuffer buf;
  buf.Assign(bytes.data(), bytes.size());
  return buf;
}

void BM_UnpackScalar(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  AlignedBuffer buf = MakePacked(width, kN);
  std::vector<uint32_t> out(kN);
  for (auto _ : state) {
    simd::UnpackBE32Scalar(buf.data(), buf.size(), kN, width, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_UnpackScalar)->Arg(10)->Arg(25);

void BM_UnpackAvx2(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  AlignedBuffer buf = MakePacked(width, kN);
  std::vector<uint32_t> out(kN);
  for (auto _ : state) {
    simd::UnpackBE32Avx2(buf.data(), buf.size(), kN, width, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_UnpackAvx2)->Arg(3)->Arg(10)->Arg(17)->Arg(25)->Arg(30);

void BM_UnpackAvx512(benchmark::State& state) {
  if (!simd::Avx512Available()) {
    state.SkipWithError("no AVX-512 VBMI");
    return;
  }
  int width = static_cast<int>(state.range(0));
  AlignedBuffer buf = MakePacked(width, kN);
  std::vector<uint32_t> out(kN);
  for (auto _ : state) {
    simd::UnpackBE32Avx512(buf.data(), buf.size(), kN, width, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_UnpackAvx512)->Arg(3)->Arg(10)->Arg(25);

void BM_DeltaDecodeScalar(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  AlignedBuffer buf = MakePacked(width, kN);
  std::vector<int32_t> out(kN);
  for (auto _ : state) {
    simd::DeltaDecodeOffsetsScalar(buf.data(), buf.size(), kN, width, 1, 0,
                                   out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_DeltaDecodeScalar)->Arg(10);

void BM_DeltaDecodeTransposed(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  AlignedBuffer buf = MakePacked(width, kN);
  std::vector<int32_t> out(kN);
  for (auto _ : state) {
    simd::DeltaDecodeOffsetsAvx2(buf.data(), buf.size(), kN, width, 1, 0, 0,
                                 out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_DeltaDecodeTransposed)->Arg(3)->Arg(10)->Arg(25);

void BM_DeltaDecodeTransposedUnordered(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  AlignedBuffer buf = MakePacked(width, kN);
  std::vector<int32_t> out(kN);
  for (auto _ : state) {
    simd::DeltaDecodeOffsetsUnordered(buf.data(), buf.size(), kN, width, 1, 0,
                                      0, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_DeltaDecodeTransposedUnordered)->Arg(3)->Arg(10)->Arg(25);

void BM_DeltaDecodeAvx2Unordered(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  AlignedBuffer buf = MakePacked(width, kN);
  std::vector<int32_t> out(kN);
  for (auto _ : state) {
    simd::DeltaDecodeOffsetsAvx2Unordered(buf.data(), buf.size(), kN, width, 1,
                                          0, 0, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_DeltaDecodeAvx2Unordered)->Arg(3)->Arg(10)->Arg(25);

void BM_DeltaDecodeAvx512(benchmark::State& state) {
  if (!simd::Avx512Available()) {
    state.SkipWithError("no AVX-512 VBMI");
    return;
  }
  int width = static_cast<int>(state.range(0));
  AlignedBuffer buf = MakePacked(width, kN);
  std::vector<int32_t> out(kN);
  for (auto _ : state) {
    simd::DeltaDecodeOffsetsAvx512(buf.data(), buf.size(), kN, width, 1, 0, 0,
                                   out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_DeltaDecodeAvx512)->Arg(3)->Arg(10)->Arg(25);

void BM_DeltaDecodeAvx512Unordered(benchmark::State& state) {
  if (!simd::Avx512Available()) {
    state.SkipWithError("no AVX-512 VBMI");
    return;
  }
  int width = static_cast<int>(state.range(0));
  AlignedBuffer buf = MakePacked(width, kN);
  std::vector<int32_t> out(kN);
  for (auto _ : state) {
    simd::DeltaDecodeOffsetsAvx512Unordered(buf.data(), buf.size(), kN, width,
                                            1, 0, 0, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_DeltaDecodeAvx512Unordered)->Arg(3)->Arg(10)->Arg(25);

void BM_DeltaDecodeSboost(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  AlignedBuffer buf = MakePacked(width, kN);
  std::vector<int32_t> out(kN);
  for (auto _ : state) {
    simd::SboostDeltaDecode(buf.data(), buf.size(), kN, width, 1, 0,
                            out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_DeltaDecodeSboost)->Arg(3)->Arg(10)->Arg(25);

void BM_RleFlatten(benchmark::State& state) {
  size_t run = static_cast<size_t>(state.range(0));
  size_t pairs = kN / run;
  std::vector<int32_t> deltas(pairs, 3);
  std::vector<uint32_t> runs(pairs, static_cast<uint32_t>(run));
  std::vector<int32_t> out(kN);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::FlattenDeltaRuns(
        deltas.data(), runs.data(), pairs, 0, out.data()));
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_RleFlatten)->Arg(4)->Arg(64)->Arg(1024);

void BM_RangeFilter(benchmark::State& state) {
  std::mt19937_64 rng(7);
  std::vector<int32_t> values(kN);
  for (auto& v : values) v = static_cast<int32_t>(rng());
  std::vector<uint64_t> mask(kN / 64);
  for (auto _ : state) {
    simd::RangeFilterMaskInt32(values.data(), kN, -1000000, 1000000,
                               mask.data());
    benchmark::DoNotOptimize(mask.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_RangeFilter);

void BM_MaskedSum(benchmark::State& state) {
  std::mt19937_64 rng(9);
  std::vector<int32_t> values(kN);
  for (auto& v : values) v = static_cast<int32_t>(rng() % 100000);
  std::vector<uint64_t> mask(kN / 64);
  for (auto& m : mask) m = rng();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simd::MaskedSumInt32(values.data(), mask.data(), kN));
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_MaskedSum);

void BM_FusedWeightedRampSum(benchmark::State& state) {
  std::mt19937_64 rng(11);
  std::vector<int32_t> values(kN);
  for (auto& v : values) v = static_cast<int32_t>(rng() % 1024);
  for (auto _ : state) {
    int64_t sum = 0;
    benchmark::DoNotOptimize(
        simd::WeightedRampSumInt32(values.data(), kN, &sum));
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_FusedWeightedRampSum);

void BM_JoinMasks(benchmark::State& state) {
  std::mt19937_64 rng(15);
  size_t n = kN / 4;
  std::vector<int64_t> l(n), r(n);
  int64_t t = 0;
  for (auto& x : l) x = (t += 1 + static_cast<int64_t>(rng() % 3));
  t = 1;
  for (auto& x : r) x = (t += 1 + static_cast<int64_t>(rng() % 3));
  std::vector<uint64_t> ml((n + 63) / 64), mr((n + 63) / 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simd::JoinMasksInt64(l.data(), n, r.data(), n, ml.data(), mr.data()));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_JoinMasks);

void BM_PrefixSum(benchmark::State& state) {
  std::mt19937_64 rng(13);
  std::vector<int32_t> base(kN);
  for (auto& v : base) v = static_cast<int32_t>(rng() % 100);
  std::vector<int32_t> work(kN);
  for (auto _ : state) {
    work = base;
    simd::PrefixSumInt32(work.data(), kN);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_PrefixSum);

}  // namespace
}  // namespace etsqp

BENCHMARK_MAIN();
