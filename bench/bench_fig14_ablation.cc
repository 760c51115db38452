// Reproduces paper Figure 14: ablation of the parallel pipeline designs.
//  (a) Fused-decoder count: execution time as the pipeline fuses more of
//      unpack -> flatten -> accumulate -> aggregate (Section IV).
//  (b) Staged time breakdown: load/unpack/delta/filter/aggregate shares.
//  (c-d) Page-slice sweep: idle time vs materialization when splitting one
//      page into more slices (scheduler simulator over measured costs;
//      splitting the pipeline into two tasks avoids idling but materializes
//      unpacked data - more memory I/O).

#include <cstring>
#include <numeric>
#include <random>

#include "bench/bench_util.h"
#include "common/aligned_buffer.h"
#include "common/bitstream.h"
#include "encoding/bitpack.h"
#include "encoding/delta_rle.h"
#include "exec/fusion.h"
#include "sim/sched_sim.h"
#include "simd/agg_simd.h"
#include "simd/filter_simd.h"
#include "simd/rle_flatten.h"
#include "simd/transposed_unpack.h"
#include "simd/unpack.h"

namespace etsqp {
namespace {

using bench::EndRow;
using bench::PrintCell;
using bench::PrintHeader;

struct RunData {
  std::vector<int64_t> values;
  enc::EncodedColumn dr;     // Delta-RLE encoding
  AlignedBuffer dr_buf;
};

RunData MakeData(size_t n) {
  std::mt19937_64 rng(5);
  RunData d;
  d.values.reserve(n);
  int64_t v = 0;
  while (d.values.size() < n) {
    int64_t delta = static_cast<int64_t>(rng() % 16);
    size_t run = 8 + rng() % 64;
    for (size_t k = 0; k < run && d.values.size() < n; ++k) {
      d.values.push_back(v += delta);
    }
  }
  d.dr = enc::DeltaRleEncoder().Encode(d.values.data(), d.values.size());
  d.dr_buf.Assign(d.dr.bytes.data(), d.dr.bytes.size());
  return d;
}

}  // namespace
}  // namespace etsqp

int main() {
  using namespace etsqp;
  size_t n = static_cast<size_t>(2'000'000 * bench::BenchScale());
  RunData data = MakeData(n);
  auto parsed = enc::DeltaRleColumn::Parse(data.dr_buf.data(),
                                           data.dr_buf.size());
  if (!parsed.ok()) return 1;
  const enc::DeltaRleColumn& col = parsed.value();
  uint32_t np = col.num_pairs();

  // ---------------- (a) fused decoder count ----------------
  PrintHeader("Figure 14(a): SUM execution time vs fused decoders",
              {"Fusion level", "time_ms", "speedup"});
  std::vector<int32_t> deltas(np);
  std::vector<uint32_t> runs(np);
  std::vector<int32_t> flat(n);

  auto unpack_pairs = [&] {
    simd::UnpackBE32(col.packed_deltas(), data.dr_buf.size(), np,
                     col.delta_width(),
                     reinterpret_cast<uint32_t*>(deltas.data()));
    simd::UnpackBE32(col.packed_runs(), data.dr_buf.size(), np,
                     col.run_width(), runs.data());
    int32_t md = static_cast<int32_t>(col.min_delta());
    for (uint32_t i = 0; i < np; ++i) {
      deltas[i] += md;
      runs[i] += 1;
    }
  };

  // Level 0: no fusion — unpack, flatten, accumulate (flatten emits deltas
  // per position; accumulate = prefix sum), then aggregate.
  double t0 = bench::TimeBest([&] {
    unpack_pairs();
    size_t m = simd::FlattenDeltaRunsScalar(deltas.data(), runs.data(), np, 0,
                                            flat.data());
    (void)m;
    // flat currently holds running values already; emulate the separate
    // accumulate stage over raw deltas instead:
    volatile int64_t sink = simd::SumInt32(flat.data(), n - 1);
    (void)sink;
  });
  // Level 1: fuse unpack+flatten (SIMD ramp flatten produces decoded values
  // directly), aggregate decoded vector.
  double t1 = bench::TimeBest([&] {
    unpack_pairs();
    size_t m = simd::FlattenDeltaRuns(deltas.data(), runs.data(), np, 0,
                                      flat.data());
    volatile int64_t sink = simd::SumInt32(flat.data(), m);
    (void)sink;
  });
  // Level 2: fully fused — closed-form per-pair aggregation, no flatten, no
  // accumulate (Section IV).
  double t2 = bench::TimeBest([&] {
    exec::DeltaRleAggregates agg;
    if (!exec::FusedAggDeltaRle(col, 0, n, false, &agg).ok()) std::abort();
    volatile int64_t sink = agg.sum;
    (void)sink;
  });
  PrintCell("3-stage");
  PrintCell(t0 * 1e3);
  PrintCell(1.0);
  EndRow();
  PrintCell("fuse-flatten");
  PrintCell(t1 * 1e3);
  PrintCell(t0 / t1);
  EndRow();
  PrintCell("fully-fused");
  PrintCell(t2 * 1e3);
  PrintCell(t0 / t2);
  EndRow();

  // ---------------- (b) staged time breakdown ----------------
  // TS2DIFF pipeline: load (memcpy) -> unpack -> delta -> filter -> agg.
  PrintHeader("Figure 14(b): stage shares of the TS2DIFF pipeline",
              {"Stage", "time_ms", "share_%"});
  std::mt19937_64 rng(17);
  size_t m = n;
  int width = 10;
  std::vector<uint64_t> residuals(m);
  for (auto& r : residuals) r = rng() & ((1u << width) - 1);
  BitWriter w;
  enc::PackBE(residuals.data(), m, width, &w);
  auto packed_bytes = w.TakeBuffer();
  AlignedBuffer src;
  src.Assign(packed_bytes.data(), packed_bytes.size());
  AlignedBuffer dst(src.size());
  std::vector<int32_t> decoded(m);
  std::vector<uint64_t> mask((m + 63) / 64);

  double t_load = bench::TimeBest(
      [&] { std::memcpy(dst.data(), src.data(), src.size()); });
  double t_unpack = bench::TimeBest([&] {
    simd::UnpackBE32(src.data(), src.size(), m, width,
                     reinterpret_cast<uint32_t*>(decoded.data()));
  });
  double t_unpack_delta = bench::TimeBest([&] {
    simd::DeltaDecodeOffsetsUnordered(src.data(), src.size(), m, width, 1, 0,
                                      0, decoded.data());
  });
  double t_delta = t_unpack_delta > t_unpack ? t_unpack_delta - t_unpack : 0;
  double t_filter = bench::TimeBest([&] {
    simd::RangeFilterMaskInt32(decoded.data(), m, 1000, 100000000,
                               mask.data());
  });
  // The filtered SUM is one compare-and-accumulate pass; its aggregate
  // share is what that pass costs beyond building the filter's mask.
  double t_filter_agg = bench::TimeBest([&] {
    volatile int64_t sink =
        simd::RangeAggregateInt32(decoded.data(), m, 1000, 100000000,
                                  /*want_sum=*/true, /*want_min_max=*/false)
            .sum;
    (void)sink;
  });
  double t_agg = t_filter_agg > t_filter ? t_filter_agg - t_filter : 0;
  double total = t_load + t_unpack + t_delta + t_filter + t_agg;
  auto stage = [&](const char* name, double t) {  // total finalized below
    PrintCell(name);
    PrintCell(t * 1e3);
    PrintCell(100.0 * t / total);
    EndRow();
  };
  double t_mat = bench::TimeBest([&] {
    std::memcpy(dst.data(), decoded.data(),
                std::min(dst.size(), m * sizeof(int32_t)));
  });
  total += t_mat;
  stage("load (mem I/O)", t_load);
  stage("unpack", t_unpack);
  stage("delta recover", t_delta);
  stage("filter", t_filter);
  stage("aggregate", t_agg);
  stage("materialize (mem I/O)", t_mat);

  // ---------------- (c-d) slice sweep ----------------
  PrintHeader(
      "Figure 14(c-d): one page on 8 cores — slices vs idle vs "
      "materialization",
      {"Slices", "chained_ms", "idle_ms", "two-task_ms", "extra_matIO_ms"});
  // Measured single-core cost of the whole page (unpack+delta+agg):
  double page_cost = bench::TimeBest([&] {
    simd::DeltaDecodeOffsetsUnordered(src.data(), src.size(), m, width, 1, 0,
                                      0, decoded.data());
    volatile int64_t sink = simd::SumInt32(decoded.data(), m);
    (void)sink;
  });
  // Materialization penalty per slice split: write + re-read the unpacked
  // intermediate (measured memcpy of the decoded array).
  double mat_cost = bench::TimeBest([&] {
    std::memcpy(dst.data(), decoded.data(),
                std::min(dst.size(), m * sizeof(int32_t)));
  });
  for (int slices : {1, 2, 4, 8, 16}) {
    // Chained: slices depend on the previous slice's prefix sums.
    auto chained = sim::SlicedJobs({page_cost}, slices, 0.0, true);
    auto rc = sim::Simulate(chained, 8, sim::SchedulePolicy::kSharedQueue);
    // Two-task split: phase 1 (local sums) all parallel, phase 2 (carry add)
    // parallel after a barrier — modeled as 2 independent waves, but each
    // split materializes intermediates (extra memory I/O).
    auto wave = sim::SlicedJobs({page_cost / 2}, slices, 0.0, false);
    auto r1 = sim::Simulate(wave, 8, sim::SchedulePolicy::kSharedQueue);
    double two_task = 2 * r1.makespan + (slices > 1 ? mat_cost : 0.0);
    PrintCell(static_cast<double>(slices));
    PrintCell(rc.makespan * 1e3);
    PrintCell(rc.total_idle * 1e3);
    PrintCell(two_task * 1e3);
    PrintCell((slices > 1 ? mat_cost : 0.0) * 1e3);
    EndRow();
  }

  std::printf(
      "\nExpected shape (paper Fig. 14): (a) each fused decoder removes a"
      "\npass — fully fused aggregation is fastest by a wide margin;"
      "\n(b) memory I/O is a top stage (~40-50%% with load+materialize);"
      "\n(c-d) chained slices leave cores idle; the two-task split removes"
      "\nidle time but pays materialization I/O as slices grow.\n");
  return 0;
}
