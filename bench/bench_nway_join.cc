// N-way timestamp merge/join microbenchmark: the SIMD merge kernel family
// (src/simd/merge_simd.h) against the scalar drains it replaced. The
// headline case is a 256-series intersection — the paper's Q5-style
// concatenation fan-in — where the pairwise galloping/block-skip fold must
// beat the scalar k-pointer drain by >= 2x. Also measured: 256-way union
// through the run-extending loser tree, and the 2-way index join that
// backs binary expressions and CORR.
//
//   ETSQP_BENCH_SCALE   scales the per-stream point count (default 1.0)
//   ETSQP_BENCH_JSON    appends one JSON line per case

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "simd/merge_simd.h"

namespace etsqp {
namespace {

using bench::PrintCell;
using bench::PrintHeader;
using bench::TimeBest;

constexpr size_t kWays = 256;

struct Workload {
  std::vector<std::vector<int64_t>> times;
  std::vector<std::vector<int64_t>> values;
  std::vector<simd::MergeStream> streams;
  size_t total = 0;
};

/// 256 strictly-increasing streams drawn from a shared tick universe, each
/// keeping (drop_one_in - 1) / drop_one_in of the ticks — sensors on the
/// same clock with independent gaps. drop_one_in = 32 keeps each stream
/// dense (~97%) yet leaves only a handful of ticks surviving all 256
/// streams: a selective but non-empty intersection.
Workload MakeSharedClockWorkload(size_t per_stream, uint64_t drop_one_in) {
  Workload w;
  w.times.resize(kWays);
  w.values.resize(kWays);
  w.streams.resize(kWays);
  std::mt19937_64 rng(7);
  std::vector<int64_t> universe;
  universe.reserve(per_stream);
  int64_t t = 1'600'000'000'000;
  for (size_t i = 0; i < per_stream; ++i) {
    t += 1 + static_cast<int64_t>(rng() % 50);
    universe.push_back(t);
  }
  for (size_t s = 0; s < kWays; ++s) {
    for (int64_t u : universe) {
      if (rng() % drop_one_in != 0) {
        w.times[s].push_back(u);
        w.values[s].push_back(static_cast<int64_t>(rng() % 1000));
      }
    }
    w.streams[s] = {w.times[s].data(), w.values[s].data(), w.times[s].size()};
    w.total += w.times[s].size();
  }
  return w;
}

/// Correlated-sensor shape for the N-way intersection: every stream
/// carries the fleet's shared sync ticks (they all survive) plus a large
/// body of per-stream event ticks that almost never coincide across 256
/// streams. The intersection is exactly the sync set — selective, so the
/// fold's candidate list collapses after the first stream pair and the
/// remaining 254 streams are galloped through.
Workload MakeSyncPointWorkload(size_t per_stream, size_t sync_points) {
  Workload w;
  w.times.resize(kWays);
  w.values.resize(kWays);
  w.streams.resize(kWays);
  std::mt19937_64 rng(13);
  std::vector<int64_t> sync(sync_points);
  const int64_t base = 1'600'000'000'000;
  for (size_t i = 0; i < sync_points; ++i) {
    sync[i] = base + static_cast<int64_t>(i) * 1'000'000;
  }
  for (size_t s = 0; s < kWays; ++s) {
    std::vector<int64_t>& t = w.times[s];
    t = sync;
    for (size_t i = sync_points; i < per_stream; ++i) {
      // Event ticks land between sync points; off-grid offsets make
      // cross-stream collisions vanishingly rare.
      t.push_back(base + static_cast<int64_t>(rng() % (sync_points * 1'000'000)));
    }
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    w.values[s].resize(t.size());
    for (size_t i = 0; i < t.size(); ++i) {
      w.values[s][i] = static_cast<int64_t>(rng() % 1000);
    }
    w.streams[s] = {t.data(), w.values[s].data(), t.size()};
    w.total += t.size();
  }
  return w;
}

/// Q5 concatenation shape: devices upload in batches, so the global
/// timeline splits into contiguous blocks each owned by one stream — long
/// single-stream runs for the union's bulk-copy path.
Workload MakeBlockyWorkload(size_t per_stream, size_t block) {
  Workload w;
  w.times.resize(kWays);
  w.values.resize(kWays);
  w.streams.resize(kWays);
  std::mt19937_64 rng(11);
  int64_t t = 1'600'000'000'000;
  size_t remaining = per_stream * kWays;
  while (remaining > 0) {
    size_t s = rng() % kWays;
    size_t len = std::min(remaining, block / 2 + rng() % block);
    for (size_t i = 0; i < len; ++i) {
      t += 1 + static_cast<int64_t>(rng() % 8);
      w.times[s].push_back(t);
      w.values[s].push_back(static_cast<int64_t>(rng() % 1000));
    }
    remaining -= len;
  }
  for (size_t s = 0; s < kWays; ++s) {
    w.streams[s] = {w.times[s].data(), w.values[s].data(), w.times[s].size()};
    w.total += w.times[s].size();
  }
  return w;
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

}  // namespace
}  // namespace etsqp

int main() {
  using namespace etsqp;
  const size_t per_stream =
      static_cast<size_t>(20'000 * bench::BenchScale());
  Workload dense = MakeSharedClockWorkload(per_stream, 32);
  Workload synced = MakeSyncPointWorkload(per_stream, 200);
  Workload blocky = MakeBlockyWorkload(per_stream, 2048);
  const simd::MergeIsa isa = simd::BestMergeIsa();
  std::printf("N-way merge/join kernels: %zu streams x ~%zu timestamps "
              "(isa=%d)\n",
              kWays, per_stream, static_cast<int>(isa));
  PrintHeader("scalar drain vs SIMD kernel (best-of timing)",
              {"case", "scalar-ms", "simd-ms", "speedup"});

  // 256-way intersection: scalar k-pointer drain vs pairwise SIMD fold.
  // The fold's candidate list collapses to the sync set after one stream
  // pair, so the remaining streams are galloped through while the scalar
  // drain must walk all ~5M elements.
  std::vector<int64_t> out;
  double sc = TimeBest([&] {
    simd::NwayIntersectScalar(synced.streams.data(), kWays, &out);
  });
  size_t isect = out.size();
  double sv = TimeBest([&] {
    simd::NwayIntersect(synced.streams.data(), kWays, &out, isa);
  });
  Row("intersect_256way", sc, sv, synced.total);

  // Same drain on the dense shared-clock shape: candidates stay wide, so
  // the fold's advantage narrows — the honest worst case.
  sc = TimeBest([&] {
    simd::NwayIntersectScalar(dense.streams.data(), kWays, &out);
  });
  sv = TimeBest([&] {
    simd::NwayIntersect(dense.streams.data(), kWays, &out, isa);
  });
  Row("intersect_256way_dense", sc, sv, dense.total);

  // 256-way union on the batched-upload shape: plain loser tree vs the
  // run-extending loser tree (long single-stream runs bulk-copy).
  std::vector<int64_t> out_t(blocky.total), out_v(blocky.total);
  sc = TimeBest([&] {
    simd::NwayMergeUnionScalar(blocky.streams.data(), kWays, out_t.data(),
                               out_v.data());
  });
  sv = TimeBest([&] {
    simd::NwayMergeUnion(blocky.streams.data(), kWays, out_t.data(),
                         out_v.data(), isa);
  });
  Row("union_256way_blocky", sc, sv, blocky.total);

  // Adversarial union shape — shared clock, so runs are 1-2 elements and
  // the run-extension machinery is pure overhead. Kept honest here: the
  // merge stage runs the host's best datapath whatever the input shape.
  out_t.resize(dense.total);
  out_v.resize(dense.total);
  sc = TimeBest([&] {
    simd::NwayMergeUnionScalar(dense.streams.data(), kWays, out_t.data(),
                               out_v.data());
  });
  sv = TimeBest([&] {
    simd::NwayMergeUnion(dense.streams.data(), kWays, out_t.data(),
                         out_v.data(), isa);
  });
  Row("union_256way_interleaved", sc, sv, dense.total);

  // 2-way index join (binary expressions / CORR), three rate shapes:
  // identical clocks (one device, two sensors — the pairwise-equal block
  // path), jittered clocks (~97% overlap), and a 32x rate mismatch
  // (galloping).
  const simd::MergeStream& a = dense.streams[0];
  const simd::MergeStream& b = dense.streams[1];
  std::vector<uint32_t> il(a.n), ir(a.n);
  sc = TimeBest([&] {
    simd::IntersectIndicesInt64Scalar(a.times, a.n, a.times, a.n, il.data(),
                                      ir.data());
  });
  sv = TimeBest([&] {
    simd::IntersectIndicesInt64(a.times, a.n, a.times, a.n, il.data(),
                                ir.data(), isa);
  });
  Row("join_2way_identical", sc, sv, 2 * a.n);
  sc = TimeBest([&] {
    simd::IntersectIndicesInt64Scalar(a.times, a.n, b.times, b.n, il.data(),
                                      ir.data());
  });
  sv = TimeBest([&] {
    simd::IntersectIndicesInt64(a.times, a.n, b.times, b.n, il.data(),
                                ir.data(), isa);
  });
  Row("join_2way_jittered", sc, sv, a.n + b.n);
  std::vector<int64_t> deci;
  for (size_t i = 0; i < a.n; i += 32) deci.push_back(a.times[i]);
  sc = TimeBest([&] {
    simd::IntersectIndicesInt64Scalar(a.times, a.n, deci.data(), deci.size(),
                                      il.data(), ir.data());
  });
  sv = TimeBest([&] {
    simd::IntersectIndicesInt64(a.times, a.n, deci.data(), deci.size(),
                                il.data(), ir.data(), isa);
  });
  Row("join_2way_decimated", sc, sv, a.n + deci.size());

  std::printf(
      "\nintersection result: %zu sync ticks survive all %zu streams."
      "\nExpected shape: the pairwise fold shrinks the candidate list"
      "\nbefore the large streams are touched, so intersect_256way clears"
      "\n2x over the scalar k-pointer drain; union gains from bulk run"
      "\ncopies on blocky data; join_2way_decimated from block skips.\n",
      isect, kWays);
  return 0;
}
