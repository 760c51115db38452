// Google-benchmark microbenchmarks of the SIMD kernels (the instruction-level
// building blocks of Sections II-B/III-A): constant-width unpack, transposed
// Delta recovery in natural order and in the transposed layout (AVX2 and
// AVX-512; the natural-order rows run at the n_v OrderedNumVectors picks for
// the Prop. 1 default), SBoost-style prefix-sum decode, Repeat flatten, range
// filter, the one-pass filtered SUM, the fused TS2DIFF window SUM, and the
// decoders of the codecs compaction picks: Sprintz (reference and AVX2) and
// the XOR float codecs (Gorilla, Chimp, Elf).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "common/aligned_buffer.h"
#include "common/bit_util.h"
#include "common/bitstream.h"
#include "common/cpu.h"
#include "encoding/bitpack.h"
#include "encoding/chimp.h"
#include "encoding/elf.h"
#include "encoding/gorilla.h"
#include "encoding/sprintz.h"
#include "encoding/ts2diff.h"
#include "exec/fusion.h"
#include "simd/agg_simd.h"
#include "simd/delta_simd.h"
#include "simd/filter_simd.h"
#include "simd/rle_flatten.h"
#include "simd/sprintz_simd.h"
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

/// The AVX-512 Delta decode at every (width, n_v) in the shape a page
/// decodes: 16 TS2DIFF blocks of 1023 residuals each, cache-resident, each
/// block's output one value past its stored first value. These are the rows
/// the per-width n_v tables in simd/transposed_unpack.cc are read from.
/// Args: ordered (1) or transposed-order (0) output, width, n_v.
void BM_Avx512NumVectors(benchmark::State& state) {
  if (!simd::Avx512Available()) {
    state.SkipWithError("no AVX-512 VBMI");
    return;
  }
  constexpr size_t kBlocks = 16;
  constexpr size_t kDeltas = 1023;
  const bool ordered = state.range(0) != 0;
  const int width = static_cast<int>(state.range(1));
  const int n_v = static_cast<int>(state.range(2));
  AlignedBuffer buf = MakePacked(width, kDeltas);
  AlignedBuffer out_buf(kBlocks * (kDeltas + 1) * sizeof(int32_t));
  int32_t* out = reinterpret_cast<int32_t*>(out_buf.data());
  for (auto _ : state) {
    for (size_t b = 0; b < kBlocks; ++b) {
      int32_t* dst = out + b * (kDeltas + 1) + 1;
      if (ordered) {
        simd::DeltaDecodeOffsetsAvx512(buf.data(), buf.size(), kDeltas,
                                       width, 1, n_v, 0, dst);
      } else {
        simd::DeltaDecodeOffsetsAvx512Unordered(buf.data(), buf.size(),
                                                kDeltas, width, 1, n_v, 0,
                                                dst);
      }
    }
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBlocks * kDeltas);
}
BENCHMARK(BM_Avx512NumVectors)
    ->ArgsProduct(
        {{1}, benchmark::CreateDenseRange(1, 25, 1), {1, 2, 4, 8, 16}})
    ->ArgsProduct({{0}, benchmark::CreateDenseRange(1, 25, 1),
                   benchmark::CreateDenseRange(1, 16, 1)});

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

/// A 4096-value page column whose TS2DIFF blocks (1024 values) carry
/// residuals of exactly `width` bits.
AlignedBuffer MakeTs2DiffPage(int width) {
  constexpr size_t kPage = 4096;
  std::mt19937_64 rng(100 + width);
  std::vector<int64_t> values(kPage);
  int64_t v = 1000;
  for (size_t i = 0; i < kPage; ++i) {
    // Every block holds a 0 and a 2^w - 1 residual, so its width is w.
    const uint64_t r = i % 512 == 1   ? 0
                       : i % 512 == 2 ? MaskLow64(width)
                                      : rng() & MaskLow64(width);
    values[i] = v;
    v += 5 + static_cast<int64_t>(r);
  }
  enc::EncodedColumn col =
      enc::Ts2DiffEncoder(1024).Encode(values.data(), kPage);
  AlignedBuffer buf;
  buf.Assign(col.bytes.data(), col.bytes.size());
  return buf;
}

/// The fused window SUM of a sliding-window query over one page: open the
/// reader, then SUM each 1000-value window in order, resuming from the
/// previous window's end.
void BM_FusedWindowSum(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  AlignedBuffer buf = MakeTs2DiffPage(width);
  for (auto _ : state) {
    Result<exec::Ts2DiffFusedReader> reader =
        exec::Ts2DiffFusedReader::Open(buf.data(), buf.size());
    const size_t n = reader.value().count();
    for (size_t p = 0; p < n; p += 1000) {
      int64_t sum = 0;
      if (!reader.value().SumRange(p, std::min(p + 1000, n), &sum).ok()) {
        state.SkipWithError("fused sum failed");
      }
      benchmark::DoNotOptimize(sum);
    }
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_FusedWindowSum)->Arg(1)->Arg(2)->Arg(3)->Arg(8)->Arg(16);

/// The filtered SUM over one L1-resident decoded chunk (about half the
/// values pass).
void BM_FilteredSum(benchmark::State& state) {
  constexpr size_t kChunk = 4096;
  std::mt19937_64 rng(9);
  std::vector<int32_t> values(kChunk);
  for (auto& v : values) v = static_cast<int32_t>(rng() % 100000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::RangeAggregateInt32(
        values.data(), kChunk, 25000, 75000, /*want_sum=*/true,
        /*want_min_max=*/false));
  }
  state.SetItemsProcessed(state.iterations() * kChunk);
}
BENCHMARK(BM_FilteredSum);

/// One 1024-value Sprintz column whose every block packs at `width` bits:
/// the reference decoder (impl 0, SprintzColumn::DecodeAll) against the AVX2
/// block decoder (impl 1).
void BM_SprintzDecode(benchmark::State& state) {
  const bool avx2 = state.range(0) != 0;
  const int width = static_cast<int>(state.range(1));
  if (avx2 && !CpuHasAvx2()) {
    state.SkipWithError("no AVX2");
    return;
  }
  constexpr size_t kCol = 1024;
  std::mt19937_64 rng(width);
  std::vector<int64_t> values(kCol);
  int64_t v = 0;
  for (size_t i = 0; i < kCol; ++i) {
    if (i > 0) {
      uint64_t zz = rng() & MaskLow64(width);
      if ((i - 1) % 8 == 0) zz |= 1ull << (width - 1);
      v = WrapAdd64(v, ZigZagDecode64(zz));
    }
    values[i] = v;
  }
  enc::EncodedColumn col = enc::SprintzEncoder().Encode(values.data(), kCol);
  AlignedBuffer buf;
  buf.Assign(col.bytes.data(), col.bytes.size());
  enc::SprintzColumn parsed =
      enc::SprintzColumn::Parse(buf.data(), buf.size()).value();
  std::vector<int64_t> out(kCol);
  for (auto _ : state) {
    Status st = avx2 ? simd::SprintzDecodeAvx2(
                           parsed.blocks(), parsed.blocks_bytes(), kCol,
                           parsed.first_value(), 0, kCol, out.data())
                     : parsed.DecodeAll(out.data());
    if (!st.ok()) state.SkipWithError("sprintz decode failed");
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kCol);
}
BENCHMARK(BM_SprintzDecode)
    ->ArgNames({"avx2", "w"})
    ->ArgsProduct({{0, 1}, {1, 4, 8, 16, 24, 32}});

/// A 4096-value sensor-like float series (a slow daily cycle plus noise,
/// one decimal place) decoded from its page bytes: Gorilla (codec 0), Chimp
/// (1) and Elf (2).
void BM_XorFloatDecode(benchmark::State& state) {
  constexpr size_t kCol = 4096;
  std::mt19937_64 rng(17);
  std::normal_distribution<double> noise(0.0, 0.3);
  std::vector<double> values(kCol);
  for (size_t i = 0; i < kCol; ++i) {
    const double x = 20.0 + 5.0 * std::sin(static_cast<double>(i) / 300.0) +
                     noise(rng);
    values[i] = std::round(x * 10.0) / 10.0;
  }
  enc::EncodedColumn col;
  switch (state.range(0)) {
    case 0:
      col = enc::GorillaValueEncoder().EncodeDoubles(values.data(), kCol);
      break;
    case 1:
      col = enc::ChimpEncoder().EncodeDoubles(values.data(), kCol);
      break;
    default:
      col = enc::ElfEncoder().EncodeDoubles(values.data(), kCol);
      break;
  }
  std::vector<double> out(kCol);
  for (auto _ : state) {
    Status st;
    switch (state.range(0)) {
      case 0:
        st = enc::GorillaValueDecodeDoubles(col, out.data());
        break;
      case 1:
        st = enc::ChimpDecodeDoubles(col, out.data());
        break;
      default:
        st = enc::ElfDecodeDoubles(col, out.data());
        break;
    }
    if (!st.ok()) state.SkipWithError("float decode failed");
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kCol);
}
BENCHMARK(BM_XorFloatDecode)->ArgName("codec")->Arg(0)->Arg(1)->Arg(2);

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
