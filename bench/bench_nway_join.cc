// Two-way timestamp merge/join microbenchmark: the SIMD merge kernels
// (src/simd/merge_simd.h) against the scalar drains they replaced, on the
// page-vector shapes a merge node meets. The union rows back Q5
// concatenation (Eq. 5); the join rows back the index intersection behind
// binary expressions and CORR (Eq. 6). The dispatched kernel should be at
// least as fast as scalar on every row.
//
// Before timing, every case checks the dispatched kernel's output against
// its scalar reference once; a mismatch exits 1, so a run doubles as a
// correctness smoke on the host's ISA.
//
//   ETSQP_BENCH_SCALE   scales the per-stream point count (default 1.0)
//   ETSQP_BENCH_JSON    appends one JSON line per case

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "simd/merge_simd.h"

namespace etsqp {
namespace {

using bench::PrintCell;
using bench::PrintHeader;
using bench::TimeBest;

/// One sorted operand: ascending timestamps and their values.
struct Stream {
  std::vector<int64_t> times, values;
  size_t n() const { return times.size(); }
};

/// Devices in the fleets the operands are drawn from. Each generator draws
/// the whole fleet's random sequence but keeps only devices 0 and 1, so
/// the two operands have the gaps and run lengths of a fleet this size,
/// and every row reads the same tuples as the trajectory's earlier rows.
constexpr size_t kFleet = 256;

/// Two sensors on a shared tick clock, each keeping (drop_one_in - 1) /
/// drop_one_in of the ticks with independent gaps.
std::pair<Stream, Stream> SharedClockPair(size_t per_stream,
                                          uint64_t drop_one_in) {
  std::mt19937_64 rng(7);
  std::vector<int64_t> universe;
  universe.reserve(per_stream);
  int64_t t = 1'600'000'000'000;
  for (size_t i = 0; i < per_stream; ++i) {
    t += 1 + static_cast<int64_t>(rng() % 50);
    universe.push_back(t);
  }
  std::pair<Stream, Stream> p;
  for (Stream* s : {&p.first, &p.second}) {
    for (int64_t u : universe) {
      if (rng() % drop_one_in != 0) {
        s->times.push_back(u);
        s->values.push_back(static_cast<int64_t>(rng() % 1000));
      }
    }
  }
  return p;
}

/// Batched uploads: the fleet's timeline splits into contiguous blocks of
/// block/2 .. 3*block/2 ticks, each owned by one device, so the two kept
/// devices meet in long one-sided runs.
std::pair<Stream, Stream> BlockyPair(size_t per_stream, size_t block) {
  std::mt19937_64 rng(11);
  std::pair<Stream, Stream> p;
  int64_t t = 1'600'000'000'000;
  size_t remaining = per_stream * kFleet;
  while (remaining > 0) {
    const size_t owner = rng() % kFleet;
    Stream* s = owner == 0 ? &p.first : owner == 1 ? &p.second : nullptr;
    const size_t len = std::min(remaining, block / 2 + rng() % block);
    for (size_t i = 0; i < len; ++i) {
      t += 1 + static_cast<int64_t>(rng() % 8);
      const int64_t v = static_cast<int64_t>(rng() % 1000);
      if (s != nullptr) {
        s->times.push_back(t);
        s->values.push_back(v);
      }
    }
    remaining -= len;
  }
  return p;
}

const char* IsaName(simd::MergeIsa isa) {
  switch (isa) {
    case simd::MergeIsa::kAvx512:
      return "avx512";
    case simd::MergeIsa::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

void ExportCase(const char* case_name, double scalar_s, double simd_s,
                size_t tuples) {
  const char* path = std::getenv("ETSQP_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\"bench\": \"nway_join\", \"case\": \"%s\", "
               "\"scalar_seconds\": %.9f, \"simd_seconds\": %.9f, "
               "\"speedup\": %.3f, \"tuples\": %zu, "
               "\"simd_tuples_per_sec\": %.3f}\n",
               case_name, scalar_s, simd_s,
               simd_s > 0 ? scalar_s / simd_s : 0.0, tuples,
               simd_s > 0 ? static_cast<double>(tuples) / simd_s : 0.0);
  std::fclose(f);
}

void Row(const char* name, double scalar_s, double simd_s, size_t tuples) {
  PrintCell(name);
  PrintCell(scalar_s * 1e3);
  PrintCell(simd_s * 1e3);
  PrintCell(simd_s > 0 ? scalar_s / simd_s : 0.0);
  bench::EndRow();
  ExportCase(name, scalar_s, simd_s, tuples);
}

/// Times one pair of kernels after checking once that `simd` writes what
/// `scalar` does (each call fills its own output, and `same` compares
/// them); a mismatch ends the bench with exit code 1.
template <typename Scalar, typename Simd, typename Same>
void Case(const char* name, size_t tuples, Scalar scalar, Simd simd,
          Same same) {
  scalar();
  simd();
  if (!same()) {
    std::fprintf(stderr, "%s: dispatched kernel output differs from scalar\n",
                 name);
    std::exit(1);
  }
  const double sc = TimeBest(scalar);
  const double sv = TimeBest(simd);
  Row(name, sc, sv, tuples);
}

void UnionCase(const char* name, const Stream& l, const Stream& r,
               simd::MergeIsa isa) {
  const size_t n = l.n() + r.n();
  std::vector<int64_t> ref_t(n), ref_v(n), out_t(n), out_v(n);
  Case(
      name, n,
      [&] {
        simd::MergeUnionInt64Scalar(l.times.data(), l.values.data(), l.n(),
                                    r.times.data(), r.values.data(), r.n(),
                                    ref_t.data(), ref_v.data());
      },
      [&] {
        simd::MergeUnionInt64(l.times.data(), l.values.data(), l.n(),
                              r.times.data(), r.values.data(), r.n(),
                              out_t.data(), out_v.data(), isa);
      },
      [&] { return out_t == ref_t && out_v == ref_v; });
}

void JoinCase(const char* name, const Stream& l, const Stream& r,
              simd::MergeIsa isa) {
  const size_t cap = std::min(l.n(), r.n());
  std::vector<uint32_t> ref_l(cap), ref_r(cap), out_l(cap), out_r(cap);
  size_t ref_m = 0, out_m = 0;
  Case(
      name, l.n() + r.n(),
      [&] {
        ref_m = simd::IntersectIndicesInt64Scalar(
            l.times.data(), l.n(), r.times.data(), r.n(), ref_l.data(),
            ref_r.data());
      },
      [&] {
        out_m = simd::IntersectIndicesInt64(l.times.data(), l.n(),
                                            r.times.data(), r.n(),
                                            out_l.data(), out_r.data(), isa);
      },
      [&] {
        return out_m == ref_m &&
               std::equal(out_l.begin(), out_l.begin() + out_m,
                          ref_l.begin()) &&
               std::equal(out_r.begin(), out_r.begin() + out_m,
                          ref_r.begin());
      });
}

/// Tuples first, first + step, first + 2 * step, ... of `s`.
Stream Strided(const Stream& s, size_t first, size_t step) {
  Stream o;
  for (size_t i = first; i < s.n(); i += step) {
    o.times.push_back(s.times[i]);
    o.values.push_back(s.values[i]);
  }
  return o;
}

}  // namespace
}  // namespace etsqp

int main() {
  using namespace etsqp;
  const size_t per_stream =
      static_cast<size_t>(20'000 * bench::BenchScale());
  const auto [a, b] = SharedClockPair(per_stream, 32);
  const auto [blocky_l, blocky_r] = BlockyPair(per_stream, 2048);
  const simd::MergeIsa isa = simd::BestMergeIsa();
  std::printf("2-way merge/join kernels: ~%zu timestamps per stream "
              "(isa=%s)\n",
              per_stream, IsaName(isa));
  PrintHeader("scalar drain vs SIMD kernel (best-of timing)",
              {"case", "scalar-ms", "simd-ms", "speedup"});

  // 2-way union (Q5 concatenation) on the page-vector shapes the merge
  // node meets: identical clocks and jittered clocks interleave one tuple
  // at a time, a 1:4 rate mismatch gives short left runs, and two batched
  // uploaders give long one-sided runs.
  const Stream deci4 = Strided(a, 0, 4);
  UnionCase("union_2way_identical", a, a, isa);
  UnionCase("union_2way_jittered", a, b, isa);
  UnionCase("union_2way_decimated", a, deci4, isa);
  UnionCase("union_2way_blocky", blocky_l, blocky_r, isa);

  // 2-way index join (binary expressions / CORR): identical clocks (one
  // device, two sensors: the pairwise-equal block path), jittered clocks
  // (~97% overlap), alternating ticks with no match, a 1:4 rate mismatch
  // (below the galloping ratio) and a 1:32 one (galloping).
  const Stream evens = Strided(a, 0, 2);
  const Stream odds = Strided(a, 1, 2);
  const Stream deci32 = Strided(a, 0, 32);
  JoinCase("join_2way_identical", a, a, isa);
  JoinCase("join_2way_jittered", a, b, isa);
  JoinCase("join_2way_alternating", evens, odds, isa);
  JoinCase("join_2way_decimated4", a, deci4, isa);
  JoinCase("join_2way_decimated", a, deci32, isa);

  std::printf(
      "\nExpected shape: unions gain from bulk run copies on blocky data"
      "\nand match scalar on interleaved data; joins gain from equal-vector"
      "\nemits and skips, and from galloping at 1:32.\n");
  return 0;
}
