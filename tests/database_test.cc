// Database tests: ShardRouter determinism, multi-shard query equivalence
// (including cross-shard binary plans), per-shard persistence, the
// epoch-keyed result cache (hits, implicit invalidation by append /
// background seal / checkpoint, eviction under budget), leftover cost-cache
// files from older layouts being ignored, and the OpenFile/CloseFile-vs-
// Query race (the *Concurrency* suite also runs in CI's ThreadSanitizer
// job), and the page set: series creation and WAL replay reject encodings
// no page holds, and every pair it admits round-trips.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/shard.h"
#include "db/shard_router.h"
#include "encoding/format.h"
#include "page_encodings.h"
#include "storage/wal.h"

namespace etsqp {
namespace {

using db::Database;
using db::Shard;
using db::ShardRouter;

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void WriteGarbage(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "this is not a valid etsqp artifact";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Deterministic int series: values in [0, 100), returns their sum.
int64_t FillSeries(Database* db, const std::string& name, int n,
                   uint32_t page_size = 512) {
  EXPECT_TRUE(db->CreateTimeseries(name, page_size).ok());
  std::vector<int64_t> times(n), values(n);
  uint64_t rng = 0x9e3779b97f4a7c15ull ^ ShardRouter::Fnv1a(name);
  int64_t sum = 0;
  for (int i = 0; i < n; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    times[i] = i;
    values[i] = static_cast<int64_t>(rng >> 33) % 100;
    sum += values[i];
  }
  EXPECT_TRUE(db->InsertBatch(name, times.data(), values.data(), n).ok());
  return sum;
}

double SumOf(const Database& db, const std::string& series) {
  Result<exec::QueryResult> r =
      db.Query("SELECT SUM(" + series + ") FROM " + series + ";");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok() || r.value().num_rows() == 0) return -1;
  return r.value().columns[0][0];
}

// --- ShardRouter -----------------------------------------------------------

TEST(ShardRouterTest, DeterministicAndInRange) {
  ShardRouter router(8);
  ASSERT_EQ(router.num_shards(), 8);
  for (int i = 0; i < 1000; ++i) {
    std::string name = "series" + std::to_string(i);
    int shard = router.ShardOf(name);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 8);
    EXPECT_EQ(shard, router.ShardOf(name));  // stable
    EXPECT_EQ(static_cast<uint64_t>(shard), ShardRouter::Fnv1a(name) % 8);
  }
}

TEST(ShardRouterTest, ClampsToAtLeastOneShard) {
  ShardRouter router(0);
  EXPECT_EQ(router.num_shards(), 1);
  EXPECT_EQ(router.ShardOf("anything"), 0);
}

TEST(ShardRouterTest, SpreadsSeriesAcrossShards) {
  ShardRouter router(8);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 1000; ++i) {
    ++counts[router.ShardOf("device" + std::to_string(i) + ".metric")];
  }
  for (int k = 0; k < 8; ++k) {
    EXPECT_GT(counts[k], 0) << "shard " << k << " got no series";
  }
}

TEST(ShardRouterTest, ArtifactPathsAreNamespacedPerShard) {
  EXPECT_EQ(Shard::ArtifactPath("/tmp/db.tsfile", 0, 1), "/tmp/db.tsfile");
  EXPECT_EQ(Shard::ArtifactPath("/tmp/db.tsfile", 2, 4),
            "/tmp/db.tsfile.shard2");
}

// --- Sharded execution -----------------------------------------------------

TEST(DatabaseShardingTest, MultiShardMatchesSingleShard) {
  Database one(Database::Options{Database::Mode::kSimd, 2, 1, 0});
  Database four(Database::Options{Database::Mode::kSimd, 2, 4, 0});
  ASSERT_EQ(four.num_shards(), 4);
  for (int i = 0; i < 8; ++i) {
    std::string name = "m" + std::to_string(i);
    int64_t sum = FillSeries(&one, name, 2000);
    ASSERT_EQ(FillSeries(&four, name, 2000), sum);
    EXPECT_EQ(SumOf(one, name), static_cast<double>(sum));
    EXPECT_EQ(SumOf(four, name), static_cast<double>(sum));
  }
  // Filtered and windowed plans agree too.
  for (const char* sql :
       {"SELECT COUNT(m3) FROM m3 WHERE m3 > 50;",
        "SELECT MAX(m5) FROM m5 WHERE time >= 100 AND time <= 1500;",
        "SELECT AVG(m7) FROM m7 SW(0, 250);"}) {
    Result<exec::QueryResult> a = one.Query(sql);
    Result<exec::QueryResult> b = four.Query(sql);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a.value().columns, b.value().columns) << sql;
  }
}

/// Two series on different shards of a 4-way database: binary projection,
/// UNION, and CORR must compile into one job set across shards and match
/// the single-shard answers exactly.
TEST(DatabaseShardingTest, CrossShardBinaryPlans) {
  Database one(Database::Options{Database::Mode::kSimd, 2, 1, 0});
  Database four(Database::Options{Database::Mode::kSimd, 2, 4, 0});
  std::string left, right;
  for (int i = 0; i < 32 && right.empty(); ++i) {
    std::string name = "x" + std::to_string(i);
    if (left.empty()) {
      left = name;
    } else if (four.ShardOf(name) != four.ShardOf(left)) {
      right = name;
    }
  }
  ASSERT_FALSE(right.empty()) << "no shard-crossing pair found";
  ASSERT_NE(four.ShardOf(left), four.ShardOf(right));
  for (Database* target : {&one, &four}) {
    FillSeries(target, left, 1500);
    FillSeries(target, right, 1500);
  }
  for (const std::string& sql :
       {"SELECT " + left + ".v + " + right + ".v FROM " + left + ", " +
            right + ";",
        "SELECT * FROM " + left + " UNION " + right + " ORDER BY TIME;",
        "SELECT CORR(" + left + ".v, " + right + ".v) FROM " + left + ", " +
            right + ";"}) {
    Result<exec::QueryResult> a = one.Query(sql);
    Result<exec::QueryResult> b = four.Query(sql);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    ASSERT_EQ(a.value().columns.size(), b.value().columns.size()) << sql;
    for (size_t c = 0; c < a.value().columns.size(); ++c) {
      ASSERT_EQ(a.value().columns[c].size(), b.value().columns[c].size());
      for (size_t r = 0; r < a.value().columns[c].size(); ++r) {
        EXPECT_DOUBLE_EQ(a.value().columns[c][r], b.value().columns[c][r])
            << sql << " col " << c << " row " << r;
      }
    }
  }
}

/// Series on different shards of a file-attached database: every plan
/// kind resolves each input on its own shard's file, streams pages through
/// a small buffer pool, and matches the in-memory answers — projection,
/// join, UNION, CORR, a filtered SELECT and a float windowed AVG.
TEST(DatabaseShardingTest, FileBackedShardsServeEveryPlanKind) {
  const std::string path = TempPath("db_file_shards.tsfile");
  Database db(Database::Options{Database::Mode::kSimd, 2, 2, 0});
  std::string a, b;
  for (int i = 0; i < 32 && b.empty(); ++i) {
    std::string name = "fs" + std::to_string(i);
    if (a.empty()) {
      a = name;
    } else if (db.ShardOf(name) != db.ShardOf(a)) {
      b = name;
    }
  }
  ASSERT_FALSE(b.empty()) << "no shard-crossing pair found";
  FillSeries(&db, a, 3000, 256);
  FillSeries(&db, b, 3000, 256);
  const std::string f = "fsfloat";
  ASSERT_TRUE(
      db.CreateFloatTimeseries(f, enc::ColumnEncoding::kGorillaValue, 256)
          .ok());
  std::vector<int64_t> times(3000);
  std::vector<double> values(3000);
  for (int i = 0; i < 3000; ++i) {
    times[i] = i;
    values[i] = 0.5 * (i % 97) - 7.25;
  }
  ASSERT_TRUE(
      db.InsertBatchF64(f, times.data(), values.data(), times.size()).ok());
  ASSERT_TRUE(db.Flush().ok());

  const std::vector<std::string> queries = {
      "SELECT " + a + ".v - " + b + ".v FROM " + a + ", " + b + ";",
      "SELECT * FROM " + a + ", " + b + ";",
      "SELECT * FROM " + a + " UNION " + b + " ORDER BY TIME;",
      "SELECT CORR(" + a + ".v, " + b + ".v) FROM " + a + ", " + b + ";",
      "SELECT * FROM " + b + " WHERE time >= 700 AND time <= 2100 AND " + b +
          " > 20;",
      "SELECT AVG(" + f + ") FROM " + f + " SW(0, 250);"};
  std::vector<exec::QueryResult> want;
  for (const std::string& sql : queries) {
    Result<exec::QueryResult> r = db.Query(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    ASSERT_GT(r.value().num_rows(), 0u) << sql;
    want.push_back(std::move(r).value());
  }

  ASSERT_TRUE(db.Save(path).ok());
  ASSERT_TRUE(db.OpenFile(path, 4096).ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    Result<exec::QueryResult> r = db.Query(queries[q]);
    ASSERT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
    const auto& got = r.value().columns;
    ASSERT_EQ(got.size(), want[q].columns.size()) << queries[q];
    for (size_t c = 0; c < got.size(); ++c) {
      ASSERT_EQ(got[c].size(), want[q].columns[c].size()) << queries[q];
      for (size_t row = 0; row < got[c].size(); ++row) {
        EXPECT_NEAR(got[c][row], want[q].columns[c][row],
                    1e-9 * (1 + std::abs(want[q].columns[c][row])))
            << queries[q] << " col " << c << " row " << row;
      }
    }
  }
  // Pages came through the pool: shard 0 holds one of the inputs.
  ASSERT_NE(db.file_store(), nullptr);
  EXPECT_GT(db.file_store()->stats().pages_loaded, 0u);
  db.CloseFile();
  for (int k = 0; k < 2; ++k) {
    std::remove(Shard::ArtifactPath(path, k, 2).c_str());
  }
}

TEST(DatabaseShardingTest, SaveLoadRoundTripsPerShardFiles) {
  const std::string path = TempPath("db_shard_save.tsfile");
  Database four(Database::Options{Database::Mode::kSimd, 1, 4, 0});
  std::vector<int64_t> sums;
  for (int i = 0; i < 6; ++i) {
    sums.push_back(FillSeries(&four, "p" + std::to_string(i), 1200));
  }
  ASSERT_TRUE(four.Flush().ok());
  ASSERT_TRUE(four.Save(path).ok());
  for (int k = 0; k < 4; ++k) {
    EXPECT_TRUE(FileExists(Shard::ArtifactPath(path, k, 4)))
        << "missing shard file " << k;
  }

  Database reopened(Database::Options{Database::Mode::kSimd, 1, 4, 0});
  ASSERT_TRUE(reopened.Load(path).ok());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(SumOf(reopened, "p" + std::to_string(i)),
              static_cast<double>(sums[i]));
  }
}

// Only -1 (every shard) or a real shard index compacts.
TEST(DatabaseShardingTest, CompactRejectsUnknownShard) {
  Database db(Database::Options{Database::Mode::kSimd, 1, 2, 0});
  FillSeries(&db, "s", 100);
  ASSERT_TRUE(db.EnableCompaction().ok());
  EXPECT_EQ(db.Compact(-5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Compact(-2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Compact(2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.compaction_stats().runs, 0u);  // nothing ran
  EXPECT_TRUE(db.Compact(1).ok());
  EXPECT_TRUE(db.Compact(-1).ok());
  EXPECT_EQ(db.compaction_stats().runs, 3u);
}

/// A multi-shard database pointed at a single combined TsFile (the
/// pre-sharding layout) redistributes its series through the router.
/// Older layouts kept a scheduler cost cache next to each saved TsFile:
/// `<path>.calib`, or `<path>.shard<k>.calib` per shard. Nothing reads those
/// files any more. Leftover garbage ones must not stop Load or OpenFile,
/// must not change an answer, and must be left exactly as they were.
TEST(DatabaseShardingTest, LeftoverCostCacheFilesAreIgnored) {
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string path =
        TempPath("db_leftover_cache" + std::to_string(shards) + ".tsfile");
    Database writer(Database::Options{Database::Mode::kSimd, 1, shards, 0});
    std::vector<std::string> names;
    for (int i = 0; i < 4; ++i) {
      names.push_back("lc" + std::to_string(i));
      FillSeries(&writer, names.back(), 800);
    }
    ASSERT_TRUE(writer.Flush().ok());
    const std::vector<std::string> queries = {
        "SELECT SUM(lc0) FROM lc0;",
        "SELECT * FROM lc1 WHERE time >= 100 AND time <= 500;",
        "SELECT * FROM lc2 UNION lc3 ORDER BY TIME;"};
    std::vector<exec::QueryResult> want;
    for (const std::string& sql : queries) {
      Result<exec::QueryResult> r = writer.Query(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      want.push_back(std::move(r).value());
    }
    ASSERT_TRUE(writer.Save(path).ok());

    std::vector<std::string> leftovers = {path + ".calib"};
    for (int k = 0; k < shards; ++k) {
      leftovers.push_back(path + ".shard" + std::to_string(k) + ".calib");
    }
    std::vector<struct stat> before(leftovers.size());
    for (size_t i = 0; i < leftovers.size(); ++i) {
      WriteGarbage(leftovers[i]);
      ASSERT_EQ(::stat(leftovers[i].c_str(), &before[i]), 0);
    }

    auto expect_same_answers = [&](const Database& db) {
      for (size_t q = 0; q < queries.size(); ++q) {
        Result<exec::QueryResult> r = db.Query(queries[q]);
        ASSERT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
        EXPECT_EQ(r.value().columns, want[q].columns) << queries[q];
      }
    };
    Database loaded(Database::Options{Database::Mode::kSimd, 1, shards, 0});
    ASSERT_TRUE(loaded.Load(path).ok());
    expect_same_answers(loaded);
    Database opened(Database::Options{Database::Mode::kSimd, 1, shards, 0});
    ASSERT_TRUE(opened.OpenFile(path, 1 << 20).ok());
    expect_same_answers(opened);
    opened.CloseFile();

    for (size_t i = 0; i < leftovers.size(); ++i) {
      struct stat after;
      ASSERT_EQ(::stat(leftovers[i].c_str(), &after), 0) << leftovers[i];
      EXPECT_EQ(after.st_size, before[i].st_size) << leftovers[i];
      EXPECT_EQ(after.st_mtim.tv_sec, before[i].st_mtim.tv_sec)
          << leftovers[i];
      EXPECT_EQ(after.st_mtim.tv_nsec, before[i].st_mtim.tv_nsec)
          << leftovers[i];
      std::remove(leftovers[i].c_str());
    }
    for (int k = 0; k < shards; ++k) {
      std::remove(Shard::ArtifactPath(path, k, shards).c_str());
    }
  }
}

// --- Result cache ----------------------------------------------------------

TEST(ResultCacheTest, RepeatQueryHitsCache) {
  Database db(Database::Options{Database::Mode::kSimd, 1, 1, 1 << 20});
  int64_t sum = FillSeries(&db, "s", 2000);
  const std::string sql = "SELECT SUM(s) FROM s;";

  Result<exec::QueryResult> first = db.Query(sql);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().stats.cache_misses, 1u);
  EXPECT_EQ(first.value().stats.cache_hits, 0u);

  Result<exec::QueryResult> second = db.Query(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().stats.cache_hits, 1u);
  EXPECT_EQ(second.value().columns[0][0], static_cast<double>(sum));

  db::ResultCache::Stats cs = db.cache_stats();
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_EQ(cs.entries, 1u);
  EXPECT_GT(cs.bytes, 0u);
}

TEST(ResultCacheTest, ZeroBudgetDisablesTheCache) {
  Database db(Database::Options{});  // default: cache off
  FillSeries(&db, "s", 500);
  for (int i = 0; i < 2; ++i) {
    Result<exec::QueryResult> r = db.Query("SELECT SUM(s) FROM s;");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().stats.cache_hits, 0u);
    EXPECT_EQ(r.value().stats.cache_misses, 0u);
  }
  EXPECT_EQ(db.cache_stats().entries, 0u);
}

TEST(ResultCacheTest, AppendInvalidatesImplicitly) {
  Database db(Database::Options{Database::Mode::kSimd, 1, 1, 1 << 20});
  int64_t sum = FillSeries(&db, "s", 1000);
  const std::string sql = "SELECT SUM(s) FROM s;";
  ASSERT_TRUE(db.Query(sql).ok());
  ASSERT_EQ(db.Query(sql).value().stats.cache_hits, 1u);

  ASSERT_TRUE(db.Insert("s", 1000, 7).ok());  // epoch advances
  Result<exec::QueryResult> fresh = db.Query(sql);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().stats.cache_misses, 1u);
  EXPECT_EQ(fresh.value().columns[0][0], static_cast<double>(sum + 7));
}

/// A cached binary result depends on BOTH operands: the cache key must
/// carry each series' epoch, so mutating only the right series invalidates
/// a result whose left series is untouched.
TEST(ResultCacheTest, MutatingRightOperandInvalidatesBinaryResult) {
  Database db(Database::Options{Database::Mode::kSimd, 1, 1, 1 << 20});
  FillSeries(&db, "a", 1000);
  FillSeries(&db, "b", 1000);
  const std::string join = "SELECT a.v + b.v FROM a, b;";
  const std::string uni = "SELECT * FROM a UNION b ORDER BY TIME;";
  for (const std::string& sql : {join, uni}) {
    ASSERT_TRUE(db.Query(sql).ok());
    ASSERT_EQ(db.Query(sql).value().stats.cache_hits, 1u) << sql;
  }
  const size_t rows_before = db.Query(uni).value().num_rows();

  ASSERT_TRUE(db.Insert("b", 5000, 7).ok());  // right operand only

  Result<exec::QueryResult> jfresh = db.Query(join);
  ASSERT_TRUE(jfresh.ok());
  EXPECT_EQ(jfresh.value().stats.cache_hits, 0u);
  EXPECT_EQ(jfresh.value().stats.cache_misses, 1u)
      << "stale hit: key missed the right operand's epoch";
  Result<exec::QueryResult> ufresh = db.Query(uni);
  ASSERT_TRUE(ufresh.ok());
  EXPECT_EQ(ufresh.value().stats.cache_misses, 1u);
  EXPECT_EQ(ufresh.value().num_rows(), rows_before + 1)
      << "recomputed union must include the new right-side point";
}

/// A background-seal install advances the series epoch on its own — with no
/// intervening append — so results cached over the unsealed tail go stale
/// the moment the page lands.
TEST(ResultCacheTest, BackgroundSealInstallAdvancesEpoch) {
  Database db(Database::Options{Database::Mode::kSimd, 1, 1, 1 << 20});
  ASSERT_TRUE(db.CreateTimeseries("s", /*page_size=*/256).ok());
  Database::IngestConfig config;
  config.background_seal = true;
  ASSERT_TRUE(db.EnableIngest(config).ok());

  std::vector<int64_t> times(256), values(256);
  int64_t sum = 0;
  for (int i = 0; i < 256; ++i) {
    times[i] = i;
    values[i] = i % 17;
    sum += values[i];
  }
  // One batch append (epoch 0 -> 1) whose tail fills the page exactly,
  // cutting a segment for the background sealer.
  ASSERT_TRUE(db.InsertBatch("s", times.data(), values.data(), 256).ok());
  for (int spin = 0; db.ingest_stats().pages_sealed < 1 && spin < 2000;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(db.ingest_stats().pages_sealed, 1u) << "seal never installed";
  // One append + one install = epoch 2: the install bumped it by itself.
  EXPECT_EQ(db.shard_store(0)->SeriesEpoch("s"), 2u);

  const std::string sql = "SELECT SUM(s) FROM s;";
  Result<exec::QueryResult> first = db.Query(sql);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().stats.cache_misses, 1u);
  EXPECT_EQ(first.value().columns[0][0], static_cast<double>(sum));
  EXPECT_EQ(db.Query(sql).value().stats.cache_hits, 1u);
}

/// A compaction install advances the series epoch on its own — no append in
/// between — so results cached over the pre-compaction pages go stale the
/// moment the rewritten pages swap in. Mirrors the background-seal test
/// above for the compaction path.
TEST(ResultCacheTest, CompactionInstallAdvancesEpoch) {
  Database db(Database::Options{Database::Mode::kSimd, 1, 1, 1 << 20});
  ASSERT_TRUE(db.CreateTimeseries("s", /*page_size=*/128).ok());
  std::vector<int64_t> times(1024), values(1024);
  int64_t sum = 0;
  for (int i = 0; i < 1024; ++i) {
    times[i] = i;
    values[i] = i % 23;
    sum += values[i];
  }
  ASSERT_TRUE(db.InsertBatch("s", times.data(), values.data(), 1024).ok());
  ASSERT_TRUE(db.Flush().ok());

  const std::string sql = "SELECT SUM(s) FROM s;";
  ASSERT_TRUE(db.Query(sql).ok());
  ASSERT_EQ(db.Query(sql).value().stats.cache_hits, 1u);

  const uint64_t epoch_before = db.shard_store(0)->SeriesEpoch("s");
  ASSERT_TRUE(db.EnableCompaction().ok());
  ASSERT_TRUE(db.Compact().ok());
  ASSERT_GT(db.compaction_stats().series_compacted, 0u);
  EXPECT_GT(db.shard_store(0)->SeriesEpoch("s"), epoch_before)
      << "the install must bump the epoch by itself";

  Result<exec::QueryResult> fresh = db.Query(sql);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().stats.cache_misses, 1u)
      << "cached result over pre-compaction pages must have gone stale";
  EXPECT_EQ(fresh.value().columns[0][0], static_cast<double>(sum));
  EXPECT_EQ(db.Query(sql).value().stats.cache_hits, 1u);
}

/// Query-vs-compact race (runs under TSan in CI): concurrent queries — some
/// answered from cache, some re-executed after each install's epoch bump —
/// must always see either the old pages or the new ones, never a half-
/// installed mix, and never a stale cached answer for the current epoch.
TEST(ResultCacheTest, ConcurrentQueriesVsCompactionInstalls) {
  Database db(Database::Options{Database::Mode::kSimd, 2, 1, 1 << 20});
  ASSERT_TRUE(db.CreateTimeseries("s", /*page_size=*/128).ok());
  std::vector<int64_t> times(2048), values(2048);
  int64_t sum = 0;
  for (int i = 0; i < 2048; ++i) {
    times[i] = i;
    values[i] = i % 13;
    sum += values[i];
  }
  ASSERT_TRUE(db.InsertBatch("s", times.data(), values.data(), 2048).ok());
  ASSERT_TRUE(db.Flush().ok());
  ASSERT_TRUE(db.EnableCompaction().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int c = 0; c < 3; ++c) {
    readers.emplace_back([&db, &stop, &failures, sum] {
      while (!stop.load(std::memory_order_relaxed)) {
        Result<exec::QueryResult> r = db.Query("SELECT SUM(s) FROM s;");
        if (!r.ok() || r.value().num_rows() != 1 ||
            r.value().columns[0][0] != static_cast<double>(sum)) {
          ++failures;
        }
      }
    });
  }
  // Each round seals one fresh page of zeros (SUM unchanged) and compacts:
  // the new tier-0 page keeps every pass dirty, so each iteration is a
  // fresh install racing the readers. A lost install is Aborted, not an
  // error.
  int64_t t_next = 2048;
  for (int i = 0; i < 25; ++i) {
    std::vector<int64_t> zt(128), zv(128, 0);
    for (int j = 0; j < 128; ++j) zt[j] = t_next++;
    ASSERT_TRUE(db.InsertBatch("s", zt.data(), zv.data(), 128).ok());
    ASSERT_TRUE(db.Compact().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ResultCacheTest, CheckpointSealInvalidates) {
  const std::string path = TempPath("db_cache_ckpt.tsfile");
  Database db(Database::Options{Database::Mode::kSimd, 1, 1, 1 << 20});
  int64_t sum = FillSeries(&db, "s", 300);  // stays in the tail (page 512)
  const std::string sql = "SELECT SUM(s) FROM s;";
  ASSERT_TRUE(db.Query(sql).ok());
  ASSERT_EQ(db.Query(sql).value().stats.cache_hits, 1u);

  ASSERT_TRUE(db.Checkpoint(path).ok());  // Flush seals the tail inline
  Result<exec::QueryResult> fresh = db.Query(sql);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().stats.cache_misses, 1u)
      << "checkpoint's seal should have changed the cache key";
  EXPECT_EQ(fresh.value().columns[0][0], static_cast<double>(sum));
}

TEST(ResultCacheTest, EvictsColdEntriesUnderByteBudget) {
  Database db(Database::Options{Database::Mode::kSimd, 1, 1, 12 << 10});
  for (const char* name : {"ea", "eb", "ec"}) {
    FillSeries(&db, name, 300);
  }
  // Three SELECT * results (~5 KiB each) cannot all fit in 12 KiB.
  ASSERT_TRUE(db.Query("SELECT * FROM ea;").ok());
  ASSERT_TRUE(db.Query("SELECT * FROM eb;").ok());
  Result<exec::QueryResult> third = db.Query("SELECT * FROM ec;");
  ASSERT_TRUE(third.ok());
  db::ResultCache::Stats cs = db.cache_stats();
  EXPECT_GE(cs.evictions, 1u);
  EXPECT_LE(cs.bytes, cs.budget_bytes);
  // The coldest entry (ea) is the one that went.
  Result<exec::QueryResult> again = db.Query("SELECT * FROM ea;");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().stats.cache_misses, 1u);
}

TEST(ResultCacheTest, SetBudgetShrinksAndClearEmpties) {
  Database db(Database::Options{Database::Mode::kSimd, 1, 1, 1 << 20});
  for (const char* name : {"fa", "fb"}) {
    FillSeries(&db, name, 300);
    ASSERT_TRUE(db.Query(std::string("SELECT * FROM ") + name + ";").ok());
  }
  ASSERT_EQ(db.cache_stats().entries, 2u);
  db.SetCacheBudget(64);  // smaller than any entry: everything must go
  EXPECT_EQ(db.cache_stats().entries, 0u);
  db.SetCacheBudget(1 << 20);
  ASSERT_TRUE(db.Query("SELECT * FROM fa;").ok());
  ASSERT_EQ(db.cache_stats().entries, 1u);
  db.ClearCache();
  EXPECT_EQ(db.cache_stats().entries, 0u);
  EXPECT_EQ(db.cache_stats().bytes, 0u);
}

TEST(ResultCacheTest, ExplainAnalyzeProbesAndRendersServingLayer) {
  Database db(Database::Options{Database::Mode::kSimd, 1, 2, 1 << 20});
  FillSeries(&db, "s", 1000);
  const std::string sql = "SELECT SUM(s) FROM s;";
  Result<exec::QueryResult> cold = db.Query("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold.value().stats.cache_misses, 1u);
  EXPECT_NE(cold.value().explain_text.find("serving layer"),
            std::string::npos);
  EXPECT_NE(cold.value().explain_text.find("result cache:"),
            std::string::npos);

  // Populate, then ANALYZE again: it reports the hit but still executes
  // (the rendered profile below the serving block proves it ran).
  ASSERT_TRUE(db.Query(sql).ok());
  Result<exec::QueryResult> warm = db.Query("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().stats.cache_hits, 1u);
  EXPECT_GT(warm.value().stats.result_tuples, 0u);

  // The serving counters ride in the stats JSON for tooling.
  const std::string json = warm.value().stats.ToJson();
  EXPECT_NE(json.find("\"cache_hits\""), std::string::npos);
}

// --- File-store race (runs under TSan in CI) -------------------------------

/// Regression for the engine writer-lock race: OpenFile()/CloseFile() swap
/// the file store while other threads run Query(). The swap must take the
/// writer side of the engine lock and wait out in-flight queries; before
/// the fix a query could execute against a just-reset FileBackedStore.
TEST(IotDbLiteConcurrencyTest, OpenCloseFileVsQuery) {
  const std::string path = TempPath("db_openclose_race.tsfile");
  Database db(Database::Options{Database::Mode::kSimd, 2});
  ASSERT_TRUE(db.CreateTimeseries("s", /*page_size=*/512).ok());
  std::vector<int64_t> times(4096), values(4096);
  int64_t sum = 0;
  for (int i = 0; i < 4096; ++i) {
    times[i] = i;
    values[i] = i % 97;
    sum += values[i];
  }
  ASSERT_TRUE(db.InsertBatch("s", times.data(), values.data(), 4096).ok());
  ASSERT_TRUE(db.Flush().ok());
  ASSERT_TRUE(db.Save(path).ok());

  constexpr int kClients = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&db, &stop, &failures, sum] {
      while (!stop.load(std::memory_order_relaxed)) {
        // The sum is identical whether it runs against the in-memory store
        // or the attached file store — only a race can make it wrong.
        Result<exec::QueryResult> r = db.Query("SELECT SUM(s) FROM s;");
        if (!r.ok() || r.value().num_rows() != 1 ||
            r.value().columns[0][0] != static_cast<double>(sum)) {
          ++failures;
        }
      }
    });
  }
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(db.OpenFile(path).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    db.CloseFile();
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- The page set ----------------------------------------------------------

TEST(PageSetTest, CreateRejectsEncodingsNoPageHolds) {
  // (time id, value id): a float codec in the time column, the retired ids
  // 6, 7 and 12, and a byte no encoding has.
  const std::pair<int, int> bad[] = {{9, 1}, {6, 1},  {1, 7},  {1, 12},
                                     {12, 1}, {1, 200}, {200, 1}};
  std::vector<int64_t> t(5000), v(5000);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<int64_t>(i + 1);
    v[i] = static_cast<int64_t>(i % 97);
  }
  for (const auto& [time_id, value_id] : bad) {
    SCOPED_TRACE(std::to_string(time_id) + "/" + std::to_string(value_id));
    Database d;
    storage::SeriesStore::SeriesOptions opt;
    opt.page_size = 500;
    opt.page.time_encoding = static_cast<enc::ColumnEncoding>(time_id);
    opt.page.value_encoding = static_cast<enc::ColumnEncoding>(value_id);
    EXPECT_EQ(d.CreateTimeseries("s", opt).code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(d.InsertBatch("s", t.data(), v.data(), t.size()).ok());
  }
}

TEST(PageSetTest, WalCreateRecordNoPageHoldsDoesNotReplay) {
  // A log whose create-series record carries value byte 200, then 200
  // points: replay must refuse it rather than seal unreadable pages.
  const std::string wal_path = TempPath("etsqp_page_set.wal");
  std::remove(wal_path.c_str());
  {
    Result<std::unique_ptr<storage::Wal>> wal =
        storage::Wal::Open(wal_path, storage::Wal::FsyncPolicy::kNever);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()
                    ->AppendCreateSeries("s", /*time_encoding=*/1,
                                         /*value_encoding=*/200,
                                         /*page_size=*/64,
                                         /*block_size=*/1024)
                    .ok());
    std::vector<int64_t> t(200), v(200);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<int64_t>(i + 1);
      v[i] = static_cast<int64_t>(i * 3);
    }
    ASSERT_TRUE(wal.value()
                    ->AppendPoints("s", 0, t.data(), v.data(), t.size(),
                                   /*is_float=*/false, /*overlap=*/false)
                    .ok());
  }
  Database d;
  Database::IngestConfig cfg;
  cfg.wal_path = wal_path;
  EXPECT_EQ(d.EnableIngest(cfg).code(), StatusCode::kCorruption);
  EXPECT_FALSE(d.shard_store(0)->HasSeries("s"));
  std::remove(wal_path.c_str());
}

TEST(PageSetTest, EveryPairRoundTripsThroughSealSaveLoadAndOpenFile) {
  const std::string path = TempPath("etsqp_page_set.tsfile");
  for (enc::ColumnEncoding te : PageEncodings(/*time_column=*/true)) {
    for (enc::ColumnEncoding ve : PageEncodings(/*time_column=*/false)) {
      SCOPED_TRACE(std::to_string(static_cast<int>(te)) + "/" +
                   std::to_string(static_cast<int>(ve)));
      const bool is_float = enc::IsFloatEncoding(ve);
      Database writer;
      storage::SeriesStore::SeriesOptions opt;
      opt.page_size = 100;
      opt.page.time_encoding = te;
      opt.page.value_encoding = ve;
      ASSERT_TRUE(writer.CreateTimeseries("s", opt).ok());
      std::vector<int64_t> t(250), v(250);
      std::vector<double> f(250);
      double sum = 0;
      for (size_t i = 0; i < t.size(); ++i) {
        t[i] = static_cast<int64_t>(3 * i + 1);
        v[i] = static_cast<int64_t>(i * 37 % 101) - 50;
        f[i] = 0.25 * static_cast<double>(v[i]);
        sum += is_float ? f[i] : static_cast<double>(v[i]);
      }
      ASSERT_TRUE((is_float ? writer.InsertBatchF64("s", t.data(), f.data(),
                                                    t.size())
                            : writer.InsertBatch("s", t.data(), v.data(),
                                                 t.size()))
                      .ok());
      ASSERT_TRUE(writer.Flush().ok());
      EXPECT_EQ(SumOf(writer, "s"), sum);
      ASSERT_TRUE(writer.Save(path).ok());

      Database loaded;
      ASSERT_TRUE(loaded.Load(path).ok());
      EXPECT_EQ(SumOf(loaded, "s"), sum);
      Database attached;
      ASSERT_TRUE(attached.OpenFile(path).ok());
      EXPECT_EQ(SumOf(attached, "s"), sum);
      attached.CloseFile();
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace etsqp
