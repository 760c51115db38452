// Concurrent-query throughput on the sharded database: N client threads
// (64 / 128 / 256) issue fig10-style aggregations (Q1 sliding-window SUM,
// Q3 filtered SUM) over 8 series through db::Database at 1 / 4 / 8 shards.
// Every result is validated against a serial single-shard reference before
// it counts. Aggregate throughput follows the Section VII-B metric summed
// across clients: total tuples of loaded pages across all completed
// queries / wall seconds.
//
// A second panel turns the epoch-keyed result cache on: repeat queries
// should collapse into cache hits, and the exported JSON carries the
// cache_hits / cache_misses counters.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "db/database.h"
#include "exec/thread_pool.h"

namespace etsqp {
namespace {

constexpr int kSeries = 8;
constexpr int kQueriesPerClient = 4;

/// Deterministic per-series data: values in [0, 100), times 0..n-1.
void FillDatabase(db::Database* db, int n) {
  for (int s = 0; s < kSeries; ++s) {
    std::string name = "clim" + std::to_string(s);
    if (!db->CreateTimeseries(name, 4096).ok()) std::abort();
    std::vector<int64_t> times(n), values(n);
    uint64_t rng = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(s);
    for (int i = 0; i < n; ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      times[i] = i;
      values[i] = static_cast<int64_t>(rng >> 33) % 100;
    }
    if (!db->InsertBatch(name, times.data(), values.data(), n).ok()) {
      std::abort();
    }
    if (!db->Flush().ok()) std::abort();
  }
}

/// The query mix: for each series a sliding-window SUM (~1000 windows) and
/// a ~50%-selective filtered SUM.
std::vector<std::string> QueryMix(int n) {
  std::vector<std::string> sqls;
  const long long dt = std::max(1, n / 1000);
  for (int s = 0; s < kSeries; ++s) {
    std::string name = "clim" + std::to_string(s);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "SELECT SUM(%s) FROM %s SW(0, %lld)",
                  name.c_str(), name.c_str(), dt);
    sqls.emplace_back(buf);
    std::snprintf(buf, sizeof(buf), "SELECT SUM(%s) FROM %s WHERE %s > 49",
                  name.c_str(), name.c_str(), name.c_str());
    sqls.emplace_back(buf);
  }
  return sqls;
}

bool SameResult(const exec::QueryResult& a, const exec::QueryResult& b) {
  if (a.num_rows() != b.num_rows() || a.columns.size() != b.columns.size()) {
    return false;
  }
  for (size_t c = 0; c < a.columns.size(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      double x = a.columns[c][r], y = b.columns[c][r];
      if (std::abs(x - y) > std::abs(x) * 1e-9 + 1e-6) return false;
    }
  }
  return true;
}

struct CellResult {
  double seconds = 0;
  exec::ExecStats merged;
  int queries = 0;
  bool ok = true;
};

/// `clients` threads round-robin the query mix, validating each
/// result; per-query stats merge into one ExecStats (pool deltas dropped —
/// they are process-wide, not per-query).
CellResult RunClients(const db::Database& db,
                      const std::vector<std::string>& sqls,
                      const std::vector<exec::QueryResult>& expected,
                      int clients, int queries_per_client) {
  CellResult cell;
  std::atomic<int> bad{0};
  std::vector<exec::ExecStats> client_stats(clients);
  bench::Timer wall;
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      for (int i = 0; i < queries_per_client; ++i) {
        size_t idx = static_cast<size_t>(c * queries_per_client + i) %
                     sqls.size();
        auto r = db.Query(sqls[idx]);
        if (!r.ok() || !SameResult(r.value(), expected[idx])) {
          bad.fetch_add(1);
          return;
        }
        exec::ExecStats s = r.value().stats;
        s.pool = metrics::PoolStats{};
        client_stats[c].Merge(s);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  cell.seconds = wall.Seconds();
  cell.ok = bad.load() == 0;
  cell.queries = clients * queries_per_client;
  for (const exec::ExecStats& s : client_stats) cell.merged.Merge(s);
  return cell;
}

}  // namespace
}  // namespace etsqp

int main() {
  using namespace etsqp;
  using bench::EndRow;
  using bench::PrintCell;
  using bench::PrintHeader;

  double scale = 0.05 * bench::BenchScale();
  const int n = std::max(4000, static_cast<int>(1'000'000 * scale) / kSeries);
  const std::vector<std::string> sqls = QueryMix(n);

  // Serial single-shard reference: ground truth for every mix entry.
  db::Database reference(
      db::Database::Options{db::Database::Mode::kScalar, 1, 1, 0});
  FillDatabase(&reference, n);
  std::vector<exec::QueryResult> expected;
  for (const std::string& sql : sqls) {
    auto r = reference.Query(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "reference failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    expected.push_back(std::move(r).value());
  }

  const std::vector<int> kClientCounts = {64, 128, 256};
  PrintHeader("Concurrent queries: aggregate throughput, tuples/s "
              "(all-clients sum; cache off)",
              {"Shards", "clients=64", "clients=128", "clients=256"});
  for (int shards : {1, 4, 8}) {
    db::Database dbx(
        db::Database::Options{db::Database::Mode::kSimd, 2, shards, 0});
    dbx.SetCollectStats(true);
    FillDatabase(&dbx, n);
    PrintCell("shards=" + std::to_string(shards));
    for (int clients : kClientCounts) {
      CellResult cell =
          RunClients(dbx, sqls, expected, clients, kQueriesPerClient);
      if (!cell.ok) {
        std::fprintf(stderr, "validation failed at shards=%d clients=%d\n",
                     shards, clients);
        return 1;
      }
      PrintCell(bench::Throughput(cell.merged, cell.seconds));
      bench::ExportJson("concurrent_queries",
                        "scaling/shards=" + std::to_string(shards) +
                            "/clients=" + std::to_string(clients),
                        cell.seconds, cell.merged);
    }
    EndRow();
  }

  // Cache panel: 8 shards, result cache on. Each client repeats the mix,
  // so steady state is nearly all hits.
  db::Database cached(
      db::Database::Options{db::Database::Mode::kSimd, 2, 8, 32 << 20});
  cached.SetCollectStats(true);
  FillDatabase(&cached, n);

  std::vector<CellResult> cache_cells;
  for (int clients : kClientCounts) {
    CellResult cell =
        RunClients(cached, sqls, expected, clients, 2 * kQueriesPerClient);
    if (!cell.ok) {
      std::fprintf(stderr, "validation failed (cache on) at clients=%d\n",
                   clients);
      return 1;
    }
    bench::ExportJson("concurrent_queries",
                      "cache/shards=8/clients=" + std::to_string(clients),
                      cell.seconds, cell.merged);
    cache_cells.push_back(std::move(cell));
  }
  PrintHeader("Result cache on (8 shards)",
              {"Metric", "clients=64", "clients=128", "clients=256"});
  PrintCell("queries/s");
  for (const CellResult& cell : cache_cells) {
    PrintCell(cell.seconds > 0 ? cell.queries / cell.seconds : 0.0);
  }
  EndRow();
  PrintCell("hit rate %");
  for (const CellResult& cell : cache_cells) {
    uint64_t probes = cell.merged.cache_hits + cell.merged.cache_misses;
    PrintCell(probes > 0 ? 100.0 * static_cast<double>(
                                       cell.merged.cache_hits) /
                               static_cast<double>(probes)
                         : 0.0);
  }
  EndRow();

  db::ResultCache::Stats cs = cached.cache_stats();
  std::printf(
      "\ncache: hits=%llu misses=%llu evictions=%llu entries=%llu "
      "bytes=%llu/%llu\n"
      "pool: workers=%d threads_started=%llu tasks=%llu steals=%llu\n"
      "Expected shape: cache-off throughput grows from 1 to 4/8 shards at\n"
      "64+ clients (independent stores remove the snapshot bottleneck while\n"
      "every shard shares one work-stealing pool); with the cache on, hit\n"
      "rate approaches 100%% and queries/s decouples from data size.\n",
      static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.misses),
      static_cast<unsigned long long>(cs.evictions),
      static_cast<unsigned long long>(cs.entries),
      static_cast<unsigned long long>(cs.bytes),
      static_cast<unsigned long long>(cs.budget_bytes),
      exec::ThreadPool::Global().workers_running(),
      static_cast<unsigned long long>(
          exec::ThreadPool::Global().threads_started()),
      static_cast<unsigned long long>(exec::ThreadPool::Global().stats().tasks),
      static_cast<unsigned long long>(
          exec::ThreadPool::Global().stats().steals));
  return 0;
}
