// etsqp_cli — interactive SQL shell over db::Database.
//
//   etsqp_cli --demo demo.tsfile     generate a demo TsFile (Table II data)
//   etsqp_cli <file.tsfile>          open a TsFile and run SQL on it
//
// Inside the shell:
//   .series              list series
//   .stats               execution counters of the last query (per-stage
//                        breakdown when .profile is on)
//   .profile [on|off]    collect per-stage ExecStats for every query
//   .mode simd|scalar    switch the engine (IoTDB-SIMD vs IoTDB)
//   .threads N           worker threads
//   .cache               result-cache counters
//   .cache budget <B>    set the result-cache byte budget (0 = off)
//   .cache clear         drop every cached result
//   .pool                process-wide executor pool counters (workers,
//                        tasks, steals, parks)
//   .ingest <wal.log>    enable streaming ingest: open + replay the WAL at
//                        that path, attach it, seal pages in the
//                        background
//   .ingest              ingest/WAL/seal counters
//   .checkpoint <file>   flush + save a TsFile + truncate the WAL
//   .compact             one synchronous compaction pass: adaptive per-page
//                        re-encoding, page merging, tombstone/TTL drop,
//                        out-of-order reconciliation. Enables compaction on
//                        first use.
//   .compaction          cumulative compaction counters
//   .delete <series> <t0> <t1>   tombstone [t0, t1]: masked at query time,
//                        dropped at the next compaction pass
//   .ttl <series> <ns>   retention TTL in nanoseconds (0 = off); points
//                        older than last_time - ns are masked
//   SELECT ...;          any Table III dialect statement
//   EXPLAIN [ANALYZE] SELECT ...;   show the compiled Pipe plan (ANALYZE
//                        appends the serving-layer block: shard, cache)
//   .quit

#include <cstdio>
#include <cstring>
#include <string>

#include "db/database.h"
#include "exec/explain.h"
#include "exec/thread_pool.h"
#include "workload/generators.h"

namespace {

using namespace etsqp;

int MakeDemo(const char* path) {
  db::Database dbi;
  for (const workload::Dataset& ds : workload::MakeAllDatasets(0.02)) {
    storage::SeriesStore::SeriesOptions opt;
    auto names = workload::LoadDataset(ds, opt, dbi.shard_store(0));
    if (!names.ok()) {
      std::fprintf(stderr, "generate failed: %s\n",
                   names.status().ToString().c_str());
      return 1;
    }
  }
  Status st = dbi.Save(path);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s — try: etsqp_cli %s\n", path, path);
  return 0;
}

void PrintResult(const exec::QueryResult& qr, size_t max_rows = 20) {
  for (const std::string& name : qr.column_names) {
    std::printf("%-20s", name.c_str());
  }
  std::printf("\n");
  size_t rows = qr.num_rows();
  for (size_t r = 0; r < std::min(rows, max_rows); ++r) {
    for (const auto& col : qr.columns) {
      std::printf("%-20.6g", col[r]);
    }
    std::printf("\n");
  }
  if (rows > max_rows) {
    std::printf("... (%zu rows total)\n", rows);
  } else {
    std::printf("(%zu rows)\n", rows);
  }
}

/// `.cmd arg` -> "arg" (empty when absent).
std::string ArgOf(const std::string& cmd, size_t prefix_len) {
  std::string arg = cmd.size() > prefix_len ? cmd.substr(prefix_len) : "";
  while (!arg.empty() && arg.front() == ' ') arg.erase(arg.begin());
  return arg;
}

void PrintCompactionStats(const metrics::CompactionStats& cs) {
  double win = cs.bytes_in > 0
                   ? (1.0 - static_cast<double>(cs.bytes_out) /
                                static_cast<double>(cs.bytes_in)) *
                         100.0
                   : 0.0;
  std::printf(
      "compaction: runs=%llu series=%llu pages %llu->%llu (reencoded=%llu)\n"
      "            bytes %llu->%llu (%.1f%% smaller) dropped=%llu "
      "tombstones=%llu\n"
      "            ooo_merged=%llu aborted=%llu time=%.3f ms\n",
      static_cast<unsigned long long>(cs.runs),
      static_cast<unsigned long long>(cs.series_compacted),
      static_cast<unsigned long long>(cs.pages_in),
      static_cast<unsigned long long>(cs.pages_out),
      static_cast<unsigned long long>(cs.pages_reencoded),
      static_cast<unsigned long long>(cs.bytes_in),
      static_cast<unsigned long long>(cs.bytes_out), win,
      static_cast<unsigned long long>(cs.deleted_points_dropped),
      static_cast<unsigned long long>(cs.tombstones_resolved),
      static_cast<unsigned long long>(cs.ooo_points_merged),
      static_cast<unsigned long long>(cs.installs_aborted),
      static_cast<double>(cs.nanos) / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--demo") == 0) {
    return MakeDemo(argv[2]);
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: %s <file.tsfile>\n"
                 "       %s --demo <file.tsfile>\n",
                 argv[0], argv[0]);
    return 2;
  }

  db::Database::Options options;
  options.mode = db::Database::Mode::kSimd;
  options.threads = 2;
  options.cache_budget_bytes = 16 << 20;  // interactive default: cache on
  db::Database dbx(options);
  Status st = dbx.Load(argv[1]);
  if (!st.ok()) {
    std::fprintf(stderr, "open failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const storage::SeriesStore& store = *dbx.shard_store(0);
  std::printf("opened %s (%zu series). Type .series, SQL, or .quit\n",
              argv[1], store.SeriesNames().size());

  bool compaction_enabled = false;
  exec::QueryStats last_stats;
  char line[1024];
  while (std::printf("etsqp> "), std::fflush(stdout),
         std::fgets(line, sizeof(line), stdin) != nullptr) {
    std::string cmd(line);
    while (!cmd.empty() && (cmd.back() == '\n' || cmd.back() == ' ')) {
      cmd.pop_back();
    }
    if (cmd.empty()) continue;
    if (cmd == ".quit" || cmd == ".exit") break;
    if (cmd == ".series") {
      for (const std::string& name : store.SeriesNames()) {
        auto s = store.GetSeries(name);
        std::printf("  %-30s %10llu points %10llu bytes\n", name.c_str(),
                    static_cast<unsigned long long>(s.value()->total_points),
                    static_cast<unsigned long long>(store.EncodedBytes(name)));
      }
      continue;
    }
    if (cmd == ".stats") {
      std::fputs(exec::RenderStats(last_stats).c_str(), stdout);
      metrics::CompactionStats cs = dbx.compaction_stats();
      if (!cs.empty()) PrintCompactionStats(cs);
      continue;
    }
    if (cmd == ".pool") {
      exec::ThreadPool& pool = exec::ThreadPool::Global();
      metrics::PoolStats ps = pool.stats();
      std::printf(
          "pool: workers=%d (started %llu total) tasks=%llu steals=%llu "
          "parks=%llu parked=%.3f ms\n",
          pool.workers_running(),
          static_cast<unsigned long long>(pool.threads_started()),
          static_cast<unsigned long long>(ps.tasks),
          static_cast<unsigned long long>(ps.steals),
          static_cast<unsigned long long>(ps.parks),
          static_cast<double>(ps.park_nanos) / 1e6);
      continue;
    }
    if (cmd.rfind(".ingest", 0) == 0) {
      std::string arg = ArgOf(cmd, 7);
      if (!arg.empty()) {
        db::Database::IngestConfig cfg;
        cfg.wal_path = arg;
        cfg.background_seal = true;
        Status ist = dbx.EnableIngest(cfg);
        if (!ist.ok()) {
          std::printf("error: %s\n", ist.ToString().c_str());
          continue;
        }
        const storage::Wal::ReplayStats& rec = dbx.last_recovery();
        std::printf(
            "ingest on: WAL %s (recovered %llu records / %llu points, "
            "dropped %llu), background sealing enabled\n",
            arg.c_str(),
            static_cast<unsigned long long>(rec.records_applied),
            static_cast<unsigned long long>(rec.points_applied),
            static_cast<unsigned long long>(rec.records_dropped));
        continue;
      }
      metrics::IngestStats is = dbx.ingest_stats();
      const storage::Wal::ReplayStats& rec = dbx.last_recovery();
      std::printf(
          "ingest: points=%llu batches=%llu rejected=%llu tail=%llu\n"
          "ooo:    accepted=%llu pending=%llu  deletes: ranges=%llu\n"
          "seal:   pages=%llu background=%llu time=%.3f ms\n"
          "wal:    records=%llu bytes=%llu fsyncs=%llu sync=%.3f ms\n"
          "recovery: records=%llu points=%llu dropped=%llu\n",
          static_cast<unsigned long long>(is.points_appended),
          static_cast<unsigned long long>(is.append_batches),
          static_cast<unsigned long long>(is.rejected_batches),
          static_cast<unsigned long long>(is.tail_points),
          static_cast<unsigned long long>(is.ooo_points),
          static_cast<unsigned long long>(is.ooo_pending),
          static_cast<unsigned long long>(is.delete_ranges),
          static_cast<unsigned long long>(is.pages_sealed),
          static_cast<unsigned long long>(is.background_seals),
          static_cast<double>(is.seal_nanos) / 1e6,
          static_cast<unsigned long long>(is.wal_records),
          static_cast<unsigned long long>(is.wal_bytes),
          static_cast<unsigned long long>(is.wal_fsyncs),
          static_cast<double>(is.wal_sync_nanos) / 1e6,
          static_cast<unsigned long long>(rec.records_applied),
          static_cast<unsigned long long>(rec.points_applied),
          static_cast<unsigned long long>(rec.records_dropped));
      continue;
    }
    if (cmd.rfind(".checkpoint", 0) == 0) {
      std::string arg = ArgOf(cmd, 11);
      if (arg.empty()) {
        std::printf("usage: .checkpoint <file.tsfile>\n");
        continue;
      }
      Status cst = dbx.Checkpoint(arg);
      std::printf("%s\n", cst.ok() ? ("checkpointed to " + arg).c_str()
                                   : cst.ToString().c_str());
      continue;
    }
    if (cmd == ".compaction") {
      PrintCompactionStats(dbx.compaction_stats());
      continue;
    }
    if (cmd == ".compact") {
      if (!compaction_enabled) {
        Status est = dbx.EnableCompaction();
        if (!est.ok()) {
          std::printf("error: %s\n", est.ToString().c_str());
          continue;
        }
        compaction_enabled = true;
      }
      metrics::CompactionStats before = dbx.compaction_stats();
      Status pst = dbx.Compact();
      if (!pst.ok()) {
        std::printf("error: %s\n", pst.ToString().c_str());
        continue;
      }
      metrics::CompactionStats after = dbx.compaction_stats();
      std::printf(
          "compacted: %llu series, pages %llu->%llu, bytes %llu->%llu\n",
          static_cast<unsigned long long>(after.series_compacted -
                                          before.series_compacted),
          static_cast<unsigned long long>(after.pages_in - before.pages_in),
          static_cast<unsigned long long>(after.pages_out - before.pages_out),
          static_cast<unsigned long long>(after.bytes_in - before.bytes_in),
          static_cast<unsigned long long>(after.bytes_out - before.bytes_out));
      continue;
    }
    if (cmd.rfind(".delete", 0) == 0) {
      std::string arg = ArgOf(cmd, 7);
      char name[512];
      long long t0 = 0;
      long long t1 = 0;
      if (std::sscanf(arg.c_str(), "%511s %lld %lld", name, &t0, &t1) != 3) {
        std::printf("usage: .delete <series> <t0> <t1>\n");
        continue;
      }
      Status dst = dbx.DeleteRange(name, t0, t1);
      std::printf("%s\n", dst.ok() ? "deleted (masked until next .compact)"
                                   : dst.ToString().c_str());
      continue;
    }
    if (cmd.rfind(".ttl", 0) == 0) {
      std::string arg = ArgOf(cmd, 4);
      char name[512];
      long long ns = 0;
      if (std::sscanf(arg.c_str(), "%511s %lld", name, &ns) != 2) {
        std::printf("usage: .ttl <series> <nanos>  (0 disables)\n");
        continue;
      }
      Status tst = dbx.SetTtl(name, ns);
      std::printf("%s\n", tst.ok() ? "ttl set" : tst.ToString().c_str());
      continue;
    }
    if (cmd.rfind(".profile", 0) == 0) {
      bool on = cmd.find("off") == std::string::npos;
      dbx.SetCollectStats(on);
      std::printf("profile: %s\n", on ? "on" : "off");
      continue;
    }
    if (cmd.rfind(".mode", 0) == 0) {
      db::Database::Mode mode = cmd.find("scalar") != std::string::npos
                                    ? db::Database::Mode::kScalar
                                    : db::Database::Mode::kSimd;
      dbx.SetMode(mode);
      std::printf("engine: %s\n", mode == db::Database::Mode::kSimd
                                      ? "IoTDB-SIMD"
                                      : "IoTDB");
      continue;
    }
    if (cmd.rfind(".threads", 0) == 0) {
      dbx.SetThreads(std::max(1, std::atoi(cmd.c_str() + 8)));
      std::printf("threads: %d\n", dbx.threads());
      continue;
    }
    if (cmd.rfind(".cache", 0) == 0) {
      std::string arg = ArgOf(cmd, 6);
      if (arg == "clear") {
        dbx.ClearCache();
        std::printf("cache cleared\n");
        continue;
      }
      if (arg.rfind("budget", 0) == 0) {
        dbx.SetCacheBudget(static_cast<size_t>(
            std::strtoull(ArgOf(arg, 6).c_str(), nullptr, 10)));
      } else if (!arg.empty()) {
        std::printf("usage: .cache | .cache budget <bytes> | .cache clear\n");
        continue;
      }
      db::ResultCache::Stats cs = dbx.cache_stats();
      std::printf(
          "cache: hits=%llu misses=%llu evictions=%llu entries=%llu "
          "bytes=%llu/%llu%s\n",
          static_cast<unsigned long long>(cs.hits),
          static_cast<unsigned long long>(cs.misses),
          static_cast<unsigned long long>(cs.evictions),
          static_cast<unsigned long long>(cs.entries),
          static_cast<unsigned long long>(cs.bytes),
          static_cast<unsigned long long>(cs.budget_bytes),
          cs.budget_bytes == 0 ? " (off)" : "");
      continue;
    }
    auto result = dbx.Query(cmd);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    if (!result.value().explain_text.empty()) {
      std::fputs(result.value().explain_text.c_str(), stdout);
    } else {
      PrintResult(result.value());
    }
    last_stats = result.value().stats;
  }
  return 0;
}
