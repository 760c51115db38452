// Streaming-ingest benchmark: append throughput of the synchronized
// SeriesStore under the WAL fsync policies (none / group-commit / per-record)
// and with background page sealing, plus the query-latency cost of the
// scalar tail versus fully sealed SIMD pages.
//
//   ETSQP_BENCH_SCALE   scales the point counts (default 1.0)
//   ETSQP_BENCH_JSON    appends one JSON line per case
//
// Append throughput counts acknowledged points per wall second, batched
// inserts of 512 points (an MQTT-gateway-style packet). The tail-query rows
// compare the same aggregation with the data entirely in sealed pages
// against the data entirely in the unsealed tail.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "db/database.h"
#include "storage/wal.h"

namespace etsqp {
namespace {

constexpr size_t kBatch = 512;

struct AppendCase {
  const char* name;
  bool use_wal = false;
  storage::Wal::FsyncPolicy fsync = storage::Wal::FsyncPolicy::kNever;
  bool background_seal = false;
  double scale = 1.0;  // per-case point-count scale (fsync-heavy runs less)
};

double RunAppend(const AppendCase& c, size_t points) {
  std::string wal_path = "/tmp/etsqp_bench_ingest.wal";
  std::remove(wal_path.c_str());
  db::Database dbi;
  storage::SeriesStore::SeriesOptions opt;
  opt.page_size = 4096;
  if (!dbi.CreateTimeseries("s", opt).ok()) std::abort();
  db::Database::IngestConfig cfg;
  if (c.use_wal) {
    cfg.wal_path = wal_path;
    cfg.fsync = c.fsync;
  }
  cfg.background_seal = c.background_seal;
  if (!dbi.EnableIngest(cfg).ok()) std::abort();

  std::vector<int64_t> times(kBatch), values(kBatch);
  bench::Timer timer;
  size_t sent = 0;
  int64_t t = 0;
  while (sent < points) {
    size_t n = std::min(kBatch, points - sent);
    for (size_t i = 0; i < n; ++i) {
      times[i] = t;
      values[i] = (t * 31) & 1023;
      ++t;
    }
    if (!dbi.InsertBatch("s", times.data(), values.data(), n).ok()) {
      std::abort();
    }
    sent += n;
  }
  if (!dbi.Flush().ok()) std::abort();
  double seconds = timer.Seconds();
  std::remove(wal_path.c_str());
  return seconds;
}

void AppendThroughput(size_t base_points) {
  const AppendCase cases[] = {
      {"no-wal", false, storage::Wal::FsyncPolicy::kNever, false, 1.0},
      {"no-wal+bg-seal", false, storage::Wal::FsyncPolicy::kNever, true, 1.0},
      {"wal-nosync", true, storage::Wal::FsyncPolicy::kNever, false, 1.0},
      {"wal-batch", true, storage::Wal::FsyncPolicy::kBatch, false, 1.0},
      {"wal-fsync", true, storage::Wal::FsyncPolicy::kAlways, false, 0.02},
  };
  bench::PrintHeader("Append throughput (points/s, batches of 512)",
                     {"case", "points", "seconds", "points/s"});
  for (const AppendCase& c : cases) {
    size_t points = static_cast<size_t>(
        static_cast<double>(base_points) * c.scale);
    points = std::max(points, kBatch);
    double seconds = RunAppend(c, points);
    bench::PrintCell(c.name);
    bench::PrintCell(static_cast<double>(points));
    bench::PrintCell(seconds);
    bench::PrintCell(static_cast<double>(points) / seconds);
    bench::EndRow();
    exec::ExecStats stats;
    stats.tuples_in_pages = points;  // => tuples_per_sec in the JSON line
    bench::ExportJson("bench_ingest", std::string("append/") + c.name,
                      seconds, stats);
  }
}

void TailQueryLatency(size_t points) {
  bench::PrintHeader("Aggregation latency: sealed pages vs unsealed tail",
                     {"case", "points", "ms/query", "Mtuples/s"});
  for (bool sealed : {true, false}) {
    db::Database dbi;
    storage::SeriesStore::SeriesOptions opt;
    // Sealed: normal page size => SIMD pipeline over encoded pages.
    // Unsealed: page_size past the point count => everything stays tail.
    opt.page_size =
        sealed ? 4096 : static_cast<uint32_t>(points + 1);
    if (!dbi.CreateTimeseries("s", opt).ok()) std::abort();
    std::vector<int64_t> times(points), values(points);
    for (size_t i = 0; i < points; ++i) {
      times[i] = static_cast<int64_t>(i);
      values[i] = static_cast<int64_t>((i * 31) & 1023);
    }
    if (!dbi.InsertBatch("s", times.data(), values.data(), points).ok()) {
      std::abort();
    }
    if (sealed && !dbi.Flush().ok()) std::abort();

    exec::ExecStats stats;
    double seconds = bench::TimeBest([&] {
      auto result = dbi.Query("SELECT SUM(s) FROM s;");
      if (!result.ok()) std::abort();
      stats = result.value().stats;
    });
    const char* name = sealed ? "sealed-pages" : "tail-only";
    bench::PrintCell(name);
    bench::PrintCell(static_cast<double>(points));
    bench::PrintCell(seconds * 1e3);
    bench::PrintCell(static_cast<double>(points) / seconds / 1e6);
    bench::EndRow();
    bench::ExportJson("bench_ingest", std::string("query/") + name, seconds,
                      stats);
  }
}

}  // namespace
}  // namespace etsqp

int main() {
  double scale = etsqp::bench::BenchScale();
  size_t append_points =
      static_cast<size_t>(2'000'000 * scale);
  size_t query_points = static_cast<size_t>(1'000'000 * scale);
  append_points = std::max<size_t>(append_points, 4096);
  query_points = std::max<size_t>(query_points, 4096);
  etsqp::AppendThroughput(append_points);
  etsqp::TailQueryLatency(query_points);
  return 0;
}
