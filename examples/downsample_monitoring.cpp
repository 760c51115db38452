// Down-sampling a monitoring dashboard: the paper's motivating workload
// (Section I): a fleet of sensors streams readings; the dashboard requests
// per-minute averages over a recent window. Demonstrates sliding-window
// aggregation through the db::Database SQL front end, scalar-vs-SIMD engine
// modes, and the execution counters behind the paper's throughput metric.
//
//   build/examples/downsample_monitoring

#include <algorithm>
#include <cstdio>
#include <string>

#include "db/database.h"
#include "workload/generators.h"

int main() {
  using namespace etsqp;

  // The Gas dataset: 19 sensors with drift + activity spikes (Table II).
  workload::Dataset gas = workload::MakeGas(200'000);
  db::Database dbi(db::Database::Options{db::Database::Mode::kSimd, 2});
  auto names = workload::LoadDataset(gas, {}, dbi.shard_store(0));
  if (!names.ok()) return 1;

  // Dashboard query: per-minute AVG of one sensor over the most recent
  // quarter of the data.
  const std::string& sensor = names.value()[3];
  auto series = dbi.shard_store(0)->GetSeries(sensor);
  int64_t t_end = series.value()->pages.back()->header.max_time;
  int64_t t_begin =
      t_end - (t_end - series.value()->pages[0]->header.min_time) / 4;

  char sql[256];
  std::snprintf(sql, sizeof(sql),
                "SELECT AVG(v) FROM %s WHERE TIME >= %lld SW(%lld, 60000)",
                sensor.c_str(), static_cast<long long>(t_begin),
                static_cast<long long>(t_begin));

  for (db::Database::Mode mode :
       {db::Database::Mode::kScalar, db::Database::Mode::kSimd}) {
    dbi.SetMode(mode);
    auto result = dbi.Query(sql);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    const exec::QueryResult& qr = result.value();
    std::printf("%s: %zu windows | pages: %llu total, %llu pruned | "
                "tuples scanned: %llu of %llu\n",
                mode == db::Database::Mode::kSimd ? "IoTDB-SIMD" : "IoTDB   ",
                qr.num_rows(),
                static_cast<unsigned long long>(qr.stats.pages_total),
                static_cast<unsigned long long>(qr.stats.pages_pruned),
                static_cast<unsigned long long>(qr.stats.tuples_scanned),
                static_cast<unsigned long long>(qr.stats.tuples_in_pages));
    if (mode == db::Database::Mode::kSimd) {
      std::printf("first windows:\n");
      for (size_t i = 0; i < 5 && i < qr.num_rows(); ++i) {
        std::printf("  t=%.0f  avg=%8.2f\n", qr.columns[0][i],
                    qr.columns[1][i]);
      }
    }
  }

  // A value-range alert: how often did sensor 3 exceed its 90th percentile?
  std::vector<int64_t> sorted = gas.series[3].values;
  std::sort(sorted.begin(), sorted.end());
  int64_t p90 = sorted[sorted.size() * 9 / 10];
  std::snprintf(sql, sizeof(sql), "SELECT COUNT(v) FROM %s WHERE v >= %lld",
                sensor.c_str(), static_cast<long long>(p90));
  auto result = dbi.Query(sql);
  if (!result.ok()) return 1;
  std::printf("readings above p90 (%lld): %.0f (blocks pruned: %llu)\n",
              static_cast<long long>(p90), result.value().columns[0][0],
              static_cast<unsigned long long>(
                  result.value().stats.blocks_pruned));

  // The same query under EXPLAIN ANALYZE: where did the time go?
  auto explained = dbi.Query(std::string("EXPLAIN ANALYZE ") + sql);
  if (!explained.ok()) return 1;
  std::printf("\n%s", explained.value().explain_text.c_str());
  return 0;
}
