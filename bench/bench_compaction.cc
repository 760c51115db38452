// Background-compaction benchmark: storage-size reduction of adaptive
// per-page re-encoding on a mixed-shape workload (every series sealed under
// the fixed TS2DIFF/Gorilla defaults first), re-encode throughput of the
// compaction pass itself, and aggregation latency before/after — the pages
// a pass re-encodes must not just be smaller but at least as fast to serve.
//
//   ETSQP_BENCH_SCALE   scales the point counts (default 1.0)
//   ETSQP_BENCH_JSON    appends one JSON line per case
//
// The shapes mirror the CodecAdvisor's shortlisting axes: long constant
// runs (the run family's home turf, TS2DIFF's worst case when the levels
// jump wide), tiny monotone deltas (TS2DIFF already near-optimal — the
// advisor must not churn), a random walk, and low-precision floats for the
// XOR family.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "db/database.h"

namespace etsqp {
namespace {

struct Shape {
  const char* name;
  bool is_float;
};

constexpr Shape kShapes[] = {
    {"runs", false},
    {"deltas", false},
    {"walk", false},
    {"floats", true},
};

void FillSeries(db::Database* dbi, size_t points) {
  std::vector<int64_t> times(points);
  for (size_t i = 0; i < points; ++i) {
    times[i] = 1'600'000'000'000 + static_cast<int64_t>(i) * 1000;
  }
  std::vector<int64_t> iv(points);
  std::vector<double> fv(points);
  uint64_t rng = 0xabcdef;
  int64_t x = 0;
  for (const Shape& s : kShapes) {
    for (size_t i = 0; i < points; ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      if (std::string(s.name) == "runs") {
        iv[i] = static_cast<int64_t>(i / 700) * (int64_t{1} << 40);
      } else if (std::string(s.name) == "deltas") {
        iv[i] = 5'000'000 + static_cast<int64_t>(i) * 3 +
                static_cast<int64_t>(i % 2);
      } else if (std::string(s.name) == "walk") {
        x += static_cast<int64_t>(rng >> 33) % 2001 - 1000;
        iv[i] = x;
      } else {
        fv[i] = 20.0 + static_cast<double>(i % 32) * 0.125;
      }
    }
    if (s.is_float) {
      if (!dbi->CreateFloatTimeseries(s.name).ok()) std::abort();
      if (!dbi->InsertBatchF64(s.name, times.data(), fv.data(), points)
               .ok()) {
        std::abort();
      }
    } else {
      if (!dbi->CreateTimeseries(s.name, /*page_size=*/4096).ok()) {
        std::abort();
      }
      if (!dbi->InsertBatch(s.name, times.data(), iv.data(), points).ok()) {
        std::abort();
      }
    }
  }
  if (!dbi->Flush().ok()) std::abort();
}

/// The best-of time of `SELECT AVG(<shape>)` in *seconds, or the query's
/// error. AVG runs the same fused pass as SUM but finalizes its 128-bit sum
/// without the int64 check, so the `runs` shape, whose exact sum exceeds
/// int64, is timed like the others.
Status QueryLatency(const db::Database& dbi, const Shape& s, double* seconds,
                    exec::ExecStats* stats) {
  const std::string sql =
      std::string("SELECT AVG(") + s.name + ") FROM " + s.name + ";";
  Result<exec::QueryResult> first = dbi.Query(sql);
  if (!first.ok()) return first.status();
  *stats = first.value().stats;
  *seconds = bench::TimeBest([&] {
    Result<exec::QueryResult> result = dbi.Query(sql);
    if (result.ok()) *stats = result.value().stats;
  });
  return Status::Ok();
}

/// One JSON line per size row (bench_util's ExportJson shape plus the
/// before/after byte counters the trajectory tooling diffs).
void ExportSizeJson(const std::string& case_name, uint64_t before,
                    uint64_t after, double pass_seconds) {
  const char* path = std::getenv("ETSQP_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  double reduction =
      before > 0 ? 1.0 - static_cast<double>(after) / static_cast<double>(before)
                 : 0.0;
  std::fprintf(f,
               "{\"bench\": \"bench_compaction\", \"case\": \"%s\", "
               "\"seconds\": %.9f, \"bytes_before\": %llu, "
               "\"bytes_after\": %llu, \"reduction\": %.4f}\n",
               case_name.c_str(), pass_seconds,
               static_cast<unsigned long long>(before),
               static_cast<unsigned long long>(after), reduction);
  std::fclose(f);
}

void Run(size_t points) {
  db::Database dbi;
  FillSeries(&dbi, points);

  // Latency over the fixed-codec sealing.
  exec::ExecStats before_stats[4];
  double before_lat[4] = {};
  Status before_status[4];
  for (size_t i = 0; i < 4; ++i) {
    before_status[i] =
        QueryLatency(dbi, kShapes[i], &before_lat[i], &before_stats[i]);
  }
  uint64_t before_bytes[4];
  uint64_t total_before = 0;
  for (size_t i = 0; i < 4; ++i) {
    before_bytes[i] = dbi.shard_store(0)->EncodedBytes(kShapes[i].name);
    total_before += before_bytes[i];
  }

  // The compaction pass: adaptive re-encode + merge, timed end to end.
  if (!dbi.EnableCompaction().ok()) std::abort();
  bench::Timer pass_timer;
  if (!dbi.Compact().ok()) std::abort();
  double pass_seconds = pass_timer.Seconds();
  metrics::CompactionStats cs = dbi.compaction_stats();

  uint64_t after_bytes[4];
  uint64_t total_after = 0;
  for (size_t i = 0; i < 4; ++i) {
    after_bytes[i] = dbi.shard_store(0)->EncodedBytes(kShapes[i].name);
    total_after += after_bytes[i];
  }

  bench::PrintHeader("Storage size: fixed-codec sealing vs compacted",
                     {"series", "bytes before", "bytes after", "reduction"});
  for (size_t i = 0; i < 4; ++i) {
    bench::PrintCell(kShapes[i].name);
    bench::PrintCell(static_cast<double>(before_bytes[i]));
    bench::PrintCell(static_cast<double>(after_bytes[i]));
    double red = before_bytes[i] > 0
                     ? 100.0 * (1.0 - static_cast<double>(after_bytes[i]) /
                                          static_cast<double>(before_bytes[i]))
                     : 0.0;
    bench::PrintCell(std::string() +
                     (red >= 0 ? "-" : "+") +
                     std::to_string(std::abs(red)).substr(0, 5) + "%");
    bench::EndRow();
    ExportSizeJson(std::string("size/") + kShapes[i].name, before_bytes[i],
                   after_bytes[i], pass_seconds);
  }
  bench::PrintCell("total");
  bench::PrintCell(static_cast<double>(total_before));
  bench::PrintCell(static_cast<double>(total_after));
  bench::PrintCell(std::to_string(100.0 * (1.0 - static_cast<double>(total_after) /
                                                     static_cast<double>(total_before)))
                       .substr(0, 5) +
                   "% saved");
  bench::EndRow();
  ExportSizeJson("size/total", total_before, total_after, pass_seconds);

  bench::PrintHeader("Re-encode throughput (one synchronous pass)",
                     {"points", "seconds", "points/s", "pages reencoded"});
  const double total_points = 4.0 * static_cast<double>(points);
  bench::PrintCell(total_points);
  bench::PrintCell(pass_seconds);
  bench::PrintCell(total_points / pass_seconds);
  bench::PrintCell(static_cast<double>(cs.pages_reencoded));
  bench::EndRow();
  exec::ExecStats pass_stats;
  pass_stats.tuples_in_pages = static_cast<uint64_t>(total_points);
  bench::ExportJson("bench_compaction", "compact/pass", pass_seconds,
                    pass_stats);

  bench::PrintHeader("Aggregation latency before/after compaction",
                     {"series", "before ms", "after ms", "speedup"});
  for (size_t i = 0; i < 4; ++i) {
    exec::ExecStats after_stats;
    double after_lat = 0;
    const Status after_status =
        QueryLatency(dbi, kShapes[i], &after_lat, &after_stats);
    // A failed query prints its status in place of its time; only timed
    // queries export a JSON line.
    bench::PrintCell(kShapes[i].name);
    for (const auto& [st, lat] : {std::pair{before_status[i], before_lat[i]},
                                  std::pair{after_status, after_lat}}) {
      if (st.ok()) {
        bench::PrintCell(lat * 1e3);
      } else {
        bench::PrintCell(StatusCodeName(st.code()));
      }
    }
    if (before_status[i].ok() && after_status.ok()) {
      bench::PrintCell(before_lat[i] / after_lat);
    } else {
      bench::PrintCell("-");
    }
    bench::EndRow();
    if (before_status[i].ok()) {
      bench::ExportJson("bench_compaction",
                        std::string("query_before/") + kShapes[i].name,
                        before_lat[i], before_stats[i]);
    }
    if (after_status.ok()) {
      bench::ExportJson("bench_compaction",
                        std::string("query_after/") + kShapes[i].name,
                        after_lat, after_stats);
    }
  }

  std::printf(
      "\ncompaction: runs=%llu pages %llu->%llu reencoded=%llu "
      "bytes %llu->%llu\n",
      static_cast<unsigned long long>(cs.runs),
      static_cast<unsigned long long>(cs.pages_in),
      static_cast<unsigned long long>(cs.pages_out),
      static_cast<unsigned long long>(cs.pages_reencoded),
      static_cast<unsigned long long>(cs.bytes_in),
      static_cast<unsigned long long>(cs.bytes_out));
}

}  // namespace
}  // namespace etsqp

int main() {
  double scale = etsqp::bench::BenchScale();
  size_t points = static_cast<size_t>(250'000 * scale);
  points = std::max<size_t>(points, 8192);
  etsqp::Run(points);
  return 0;
}
