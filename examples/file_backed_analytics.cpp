// Querying data that does not fit in memory: the Section VI-C workflow.
// A TsFile is attached header-only through Database::OpenFile; SQL queries
// prune pages from the statistics and stream the surviving payloads through
// an LRU buffer pool.
//
//   build/examples/file_backed_analytics

#include <cstdio>
#include <cstdlib>
#include <string>

#include "db/database.h"
#include "storage/tsfile.h"
#include "workload/generators.h"

int main() {
  using namespace etsqp;

  // Build a TsFile with a long regular series (the Timestamp dataset).
  std::string path = "/tmp/etsqp_file_backed.tsfile";
  {
    workload::Dataset ds = workload::MakeTimestamp(2'000'000);
    storage::SeriesStore store;
    if (!workload::LoadDataset(ds, {}, &store).ok()) return 1;
    if (!storage::WriteTsFile(store, path).ok()) return 1;
  }

  // Attach with a deliberately tiny buffer pool: pages must stream.
  db::Database dbi(db::Database::Options{db::Database::Mode::kSimd, 2});
  if (!dbi.OpenFile(path, 64 << 10).ok()) return 1;  // 64 KiB budget

  auto index = dbi.file_store()->GetSeries("Time.event_time");
  if (!index.ok()) return 1;
  std::printf("indexed %zu pages (%llu points) — loaded payloads so far: "
              "%llu\n",
              index.value()->pages.size(),
              static_cast<unsigned long long>(index.value()->total_points),
              static_cast<unsigned long long>(
                  dbi.file_store()->stats().pages_loaded));

  // A narrow time-range query: header pruning keeps most pages on disk.
  int64_t t0 = index.value()->pages[100].header.min_time;
  int64_t t1 = index.value()->pages[104].header.max_time;
  char sql[256];
  std::snprintf(sql, sizeof(sql),
                "SELECT AVG(v) FROM Time.event_time WHERE TIME >= %lld AND "
                "TIME <= %lld",
                static_cast<long long>(t0), static_cast<long long>(t1));
  auto result = dbi.Query(sql);
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  auto st = dbi.file_store()->stats();
  std::printf(
      "narrow AVG=%.1f | pages: %llu pruned of %llu, %llu fetched | pool "
      "resident %zu KiB\n",
      result.value().columns[0][0],
      static_cast<unsigned long long>(result.value().stats.pages_pruned),
      static_cast<unsigned long long>(result.value().stats.pages_total),
      static_cast<unsigned long long>(st.pages_loaded),
      st.resident_bytes >> 10);

  // EXPLAIN shows the pruning decision without fetching a single payload.
  auto plan = dbi.Query(std::string("EXPLAIN ") + sql);
  if (!plan.ok()) return 1;
  std::printf("\n%s\n", plan.value().explain_text.c_str());

  // A full scan: every page streams through the pool, evicting under the
  // budget — memory stays bounded regardless of file size.
  auto full = dbi.Query("SELECT SUM(v) FROM Time.event_time");
  if (!full.ok()) return 1;
  st = dbi.file_store()->stats();
  std::printf(
      "full SUM=%.6g | fetched %llu, pool hits %llu, evicted %llu | pool "
      "resident %zu KiB (budget %zu KiB)\n",
      full.value().columns[0][0],
      static_cast<unsigned long long>(st.pages_loaded),
      static_cast<unsigned long long>(st.pool_hits),
      static_cast<unsigned long long>(st.pages_evicted),
      st.resident_bytes >> 10, static_cast<size_t>(64 << 10) >> 10);

  std::remove(path.c_str());
  return 0;
}
