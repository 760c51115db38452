// Quickstart: create an IoT time-series database, ingest encoded data, and
// run SQL aggregations through the ETSQP vectorized pipeline engine.
//
//   build/examples/quickstart

#include <cstdio>
#include <random>

#include "db/database.h"

int main() {
  using namespace etsqp;

  // An IoT database using the SIMD pipeline engine (2 worker threads).
  db::Database dbi(
      db::Database::Options{db::Database::Mode::kSimd, /*threads=*/2});

  // A sensor series: pages of 4096 points, TS2DIFF-encoded (Delta + min-base
  // + bit packing), flushed incrementally as the ingest buffer fills.
  if (!dbi.CreateTimeseries("velocity").ok()) return 1;

  // Simulate a device emitting one reading per second.
  std::mt19937_64 rng(42);
  int64_t t = 1'600'000'000'000;  // epoch ms
  int64_t v = 120;
  for (int i = 0; i < 100'000; ++i) {
    t += 1000;
    v += static_cast<int64_t>(rng() % 11) - 5;  // small random walk
    if (!dbi.Insert("velocity", t, v).ok()) return 1;
  }
  if (!dbi.Flush().ok()) return 1;

  std::printf("ingested 100000 points, encoded to %llu bytes (raw: %llu)\n",
              static_cast<unsigned long long>(
                  dbi.shard_store(0)->EncodedBytes("velocity")),
              100'000ull * 16);

  // Plain aggregation over a time range — decoded with the transposed-layout
  // SIMD pipeline, summed without Delta accumulation (operator fusion).
  for (const char* sql : {
           "SELECT COUNT(v) FROM velocity",
           "SELECT AVG(v) FROM velocity",
           "SELECT MIN(v) FROM velocity",
           "SELECT MAX(v) FROM velocity",
           "SELECT SUM(v) FROM velocity WHERE time >= 1600000050000 AND "
           "time <= 1600000080000",
       }) {
    auto result = dbi.Query(sql);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-75s -> %.3f\n", sql, result.value().columns[0][0]);
  }

  // Down-sampling: sliding windows of 10 minutes (SW(t_min, delta_t)).
  auto windows = dbi.Query(
      "SELECT AVG(v) FROM velocity SW(1600000000000, 600000)");
  if (!windows.ok()) return 1;
  std::printf("down-sampled to %zu windows; first 3:\n",
              windows.value().num_rows());
  for (size_t i = 0; i < 3 && i < windows.value().num_rows(); ++i) {
    std::printf("  window@%.0f avg=%.2f\n", windows.value().columns[0][i],
                windows.value().columns[1][i]);
  }
  std::printf(
      "stats: %llu tuples in pages, %llu scanned, %llu pages pruned\n",
      static_cast<unsigned long long>(windows.value().stats.tuples_in_pages),
      static_cast<unsigned long long>(windows.value().stats.tuples_scanned),
      static_cast<unsigned long long>(windows.value().stats.pages_pruned));

  // EXPLAIN ANALYZE: the compiled Pipe plan plus the measured per-stage
  // profile (unpack/delta/filter/aggregate/merge times, tuples, bytes).
  auto explained = dbi.Query(
      "EXPLAIN ANALYZE SELECT SUM(v) FROM velocity WHERE v >= 100");
  if (!explained.ok()) return 1;
  std::printf("\n%s", explained.value().explain_text.c_str());
  return 0;
}
