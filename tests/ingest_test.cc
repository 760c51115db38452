// Streaming-ingest subsystem tests: queryable tail (read-your-writes
// without Flush), ordering contract, background sealing, WAL durability,
// crash recovery with torn/corrupt tails, and checkpoint idempotency.
// The *Concurrency* tests also run in CI's ThreadSanitizer job.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "exec/engine.h"
#include "exec/expr.h"
#include "exec/pipe_builder.h"
#include "exec/pipeline.h"
#include "storage/series_store.h"
#include "storage/wal.h"
#include "scalar_oracle.h"

namespace etsqp {
namespace {

using storage::SeriesSnapshot;
using storage::SeriesStore;
using storage::Wal;

int64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<int64_t>(st.st_size);
}

void FlipByteAt(const std::string& path, int64_t offset_from_end) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(-offset_from_end), SEEK_END), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(-offset_from_end), SEEK_END), 0);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);
}

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

double QueryScalar(const db::Database& dbi, const std::string& sql) {
  auto result = dbi.Query(sql);
  EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  if (!result.ok()) return 0;
  EXPECT_EQ(result.value().num_rows(), 1u);
  return result.value().columns[0][0];
}

// ------------------------------------------------------ queryable tail

TEST(IngestTest, TailVisibleWithoutFlush) {
  db::Database dbi;
  ASSERT_TRUE(dbi.CreateTimeseries("s").ok());
  int64_t sum = 0;
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(dbi.Insert("s", i, i * 3).ok());
    sum += i * 3;
  }
  // No Flush: every acknowledged point is already queryable.
  EXPECT_EQ(QueryScalar(dbi, "SELECT COUNT(s) FROM s;"), 100.0);
  EXPECT_EQ(QueryScalar(dbi, "SELECT SUM(s) FROM s;"),
            static_cast<double>(sum));
  auto snap = dbi.shard_store(0)->GetSnapshot("s");
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap.value().has_tail());
  EXPECT_EQ(snap.value().pages.size(), 0u);
  EXPECT_EQ(snap.value().total_points(), 100u);
}

TEST(IngestTest, HybridPagesPlusTailAggregation) {
  db::Database dbi;
  storage::SeriesStore::SeriesOptions opt;
  opt.page_size = 64;  // several sealed pages + a partial tail
  ASSERT_TRUE(dbi.CreateTimeseries("s", opt).ok());
  int64_t sum = 0, n = 300;
  int64_t vmin = INT64_MAX, vmax = INT64_MIN;
  for (int64_t i = 0; i < n; ++i) {
    int64_t v = (i * 37) % 101 - 50;
    ASSERT_TRUE(dbi.Insert("s", i, v).ok());
    sum += v;
    vmin = std::min(vmin, v);
    vmax = std::max(vmax, v);
  }
  auto snap = dbi.shard_store(0)->GetSnapshot("s");
  ASSERT_TRUE(snap.ok());
  EXPECT_GT(snap.value().pages.size(), 0u);  // sealed SIMD path
  EXPECT_TRUE(snap.value().has_tail());      // scalar tail path
  EXPECT_EQ(QueryScalar(dbi, "SELECT COUNT(s) FROM s;"),
            static_cast<double>(n));
  EXPECT_EQ(QueryScalar(dbi, "SELECT SUM(s) FROM s;"),
            static_cast<double>(sum));
  EXPECT_EQ(QueryScalar(dbi, "SELECT MIN(s) FROM s;"),
            static_cast<double>(vmin));
  EXPECT_EQ(QueryScalar(dbi, "SELECT MAX(s) FROM s;"),
            static_cast<double>(vmax));
  // Time filter that stops inside the tail region.
  int64_t expect = 0;
  for (int64_t i = 0; i < 290; ++i) expect += (i * 37) % 101 - 50;
  EXPECT_EQ(
      QueryScalar(dbi, "SELECT SUM(s) FROM s WHERE time <= 289;"),
      static_cast<double>(expect));
  // Flush drains the tail and the answers do not change.
  ASSERT_TRUE(dbi.Flush().ok());
  EXPECT_EQ(QueryScalar(dbi, "SELECT SUM(s) FROM s;"),
            static_cast<double>(sum));
}

TEST(IngestTest, FloatTailVisibleWithoutFlush) {
  db::Database dbi;
  ASSERT_TRUE(dbi.CreateFloatTimeseries("f").ok());
  double sum = 0;
  for (int64_t i = 0; i < 50; ++i) {
    double v = 0.5 * static_cast<double>(i);
    ASSERT_TRUE(dbi.InsertF64("f", i, v).ok());
    sum += v;
  }
  EXPECT_EQ(QueryScalar(dbi, "SELECT COUNT(f) FROM f;"), 50.0);
  EXPECT_DOUBLE_EQ(QueryScalar(dbi, "SELECT SUM(f) FROM f;"), sum);
}

// ------------------------------------------- ordering contract (Def. 1)

TEST(IngestTest, RejectsOutOfOrderAndDuplicateTimestamps) {
  SeriesStore store;
  ASSERT_TRUE(store.CreateSeries("s", {}).ok());
  ASSERT_TRUE(store.Append("s", 10, 1).ok());

  Status st = store.Append("s", 10, 2);  // duplicate
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  st = store.Append("s", 5, 3);  // out of order
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();

  // All-or-nothing batch: a violation in the middle applies nothing.
  int64_t times[4] = {11, 12, 12, 13};
  int64_t values[4] = {1, 2, 3, 4};
  st = store.AppendBatch("s", times, values, 4);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(store.AppendedPoints("s"), 1u);
  auto snap = store.GetSnapshot("s");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value().total_points(), 1u);

  // The fence is intact: the valid suffix still appends.
  int64_t ok_times[2] = {11, 12};
  EXPECT_TRUE(store.AppendBatch("s", ok_times, values, 2).ok());
  EXPECT_EQ(store.AppendedPoints("s"), 3u);
  EXPECT_EQ(store.ingest_stats().rejected_batches, 3u);
}

TEST(IngestTest, RejectsOutOfOrderF64) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page.value_encoding = enc::ColumnEncoding::kGorillaValue;
  ASSERT_TRUE(store.CreateSeries("f", opt).ok());
  ASSERT_TRUE(store.AppendF64("f", 100, 1.5).ok());
  EXPECT_EQ(store.AppendF64("f", 100, 2.5).code(),
            StatusCode::kInvalidArgument);
  int64_t times[3] = {101, 99, 102};
  double values[3] = {1.0, 2.0, 3.0};
  EXPECT_EQ(store.AppendBatchF64("f", times, values, 3).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.AppendedPoints("f"), 1u);
}

// ------------------------------------------------- background sealing

TEST(IngestTest, BackgroundSealKeepsPageOrder) {
  db::Database dbi;
  storage::SeriesStore::SeriesOptions opt;
  opt.page_size = 32;
  ASSERT_TRUE(dbi.CreateTimeseries("s", opt).ok());
  db::Database::IngestConfig cfg;  // no WAL: sealing only
  cfg.background_seal = true;
  ASSERT_TRUE(dbi.EnableIngest(cfg).ok());

  int64_t sum = 0, n = 32 * 40 + 7;
  std::vector<int64_t> times(n), values(n);
  for (int64_t i = 0; i < n; ++i) {
    times[i] = i;
    values[i] = (i * 13) % 997;
    sum += values[i];
  }
  ASSERT_TRUE(
      dbi.InsertBatch("s", times.data(), values.data(), times.size()).ok());
  ASSERT_TRUE(dbi.Flush().ok());

  auto snap = dbi.shard_store(0)->GetSnapshot("s");
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(snap.value().has_tail());
  ASSERT_EQ(snap.value().pages.size(), 41u);
  int64_t prev_max = INT64_MIN;
  uint64_t total = 0;
  for (const auto& page : snap.value().pages) {
    EXPECT_GT(page->header.min_time, prev_max);  // strict time order
    prev_max = page->header.max_time;
    total += page->header.count;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(n));
  EXPECT_EQ(QueryScalar(dbi, "SELECT SUM(s) FROM s;"),
            static_cast<double>(sum));

  metrics::IngestStats is = dbi.ingest_stats();
  EXPECT_GE(is.background_seals, 40u);
  EXPECT_EQ(is.pages_sealed, 41u);
  EXPECT_EQ(is.tail_points, 0u);
}

// ----------------------------------------------------- WAL durability

TEST(WalTest, RecoveryRestoresAcknowledgedPoints) {
  std::string wal_path = TempPath("etsqp_wal_recover.wal");
  int64_t sum = 0;
  double fsum = 0;
  {
    db::Database dbi;
    db::Database::IngestConfig cfg;
    cfg.wal_path = wal_path;
    cfg.fsync = Wal::FsyncPolicy::kNever;
    ASSERT_TRUE(dbi.EnableIngest(cfg).ok());
    storage::SeriesStore::SeriesOptions opt;
    opt.page_size = 50;  // recovery re-seals pages too
    ASSERT_TRUE(dbi.CreateTimeseries("s", opt).ok());
    ASSERT_TRUE(dbi.CreateFloatTimeseries("f").ok());
    for (int64_t i = 0; i < 170; ++i) {
      ASSERT_TRUE(dbi.Insert("s", i, i * 7).ok());
      sum += i * 7;
    }
    for (int64_t i = 0; i < 30; ++i) {
      double v = 1.25 * static_cast<double>(i);
      ASSERT_TRUE(dbi.InsertF64("f", i, v).ok());
      fsum += v;
    }
    EXPECT_GT(dbi.ingest_stats().wal_records, 0u);
  }  // "crash": nothing flushed, nothing saved

  db::Database db2;
  db::Database::IngestConfig cfg;
  cfg.wal_path = wal_path;
  ASSERT_TRUE(db2.EnableIngest(cfg).ok());
  EXPECT_EQ(db2.last_recovery().records_dropped, 0u);
  EXPECT_EQ(db2.last_recovery().points_applied, 200u);
  EXPECT_EQ(QueryScalar(db2, "SELECT COUNT(s) FROM s;"), 170.0);
  EXPECT_EQ(QueryScalar(db2, "SELECT SUM(s) FROM s;"),
            static_cast<double>(sum));
  EXPECT_DOUBLE_EQ(QueryScalar(db2, "SELECT SUM(f) FROM f;"), fsum);
  // The recovered store accepts appends past the recovered fence.
  EXPECT_TRUE(db2.Insert("s", 1000, 1).ok());
  EXPECT_EQ(db2.Insert("s", 100, 1).code(), StatusCode::kInvalidArgument);
  std::remove(wal_path.c_str());
}

TEST(WalTest, TornFinalRecordDroppedAndTruncated) {
  std::string wal_path = TempPath("etsqp_wal_torn.wal");
  int64_t size_before_last = 0;
  {
    db::Database dbi;
    db::Database::IngestConfig cfg;
    cfg.wal_path = wal_path;
    cfg.fsync = Wal::FsyncPolicy::kNever;
    ASSERT_TRUE(dbi.EnableIngest(cfg).ok());
    ASSERT_TRUE(dbi.CreateTimeseries("s").ok());
    int64_t times[3] = {1, 2, 3}, values[3] = {10, 20, 30};
    ASSERT_TRUE(dbi.InsertBatch("s", times, values, 3).ok());
    size_before_last = FileSize(wal_path);
    int64_t t2 = 4, v2 = 40;
    ASSERT_TRUE(dbi.InsertBatch("s", &t2, &v2, 1).ok());
  }
  // Tear the final record: drop its last 5 bytes (mid-payload).
  int64_t full = FileSize(wal_path);
  ASSERT_GT(full, size_before_last);
  ASSERT_EQ(::truncate(wal_path.c_str(), full - 5), 0);

  db::Database db2;
  db::Database::IngestConfig cfg;
  cfg.wal_path = wal_path;
  ASSERT_TRUE(db2.EnableIngest(cfg).ok());
  EXPECT_EQ(db2.last_recovery().records_dropped, 1u);
  EXPECT_GT(db2.last_recovery().bytes_dropped, 0u);
  // Every record before the tear was applied; the torn one is gone.
  EXPECT_EQ(QueryScalar(db2, "SELECT COUNT(s) FROM s;"), 3.0);
  EXPECT_EQ(QueryScalar(db2, "SELECT SUM(s) FROM s;"), 60.0);
  // The log was truncated to the valid prefix, so appending after
  // recovery never interleaves with garbage.
  EXPECT_EQ(FileSize(wal_path), size_before_last);
  EXPECT_TRUE(db2.Insert("s", 4, 44).ok());
  std::remove(wal_path.c_str());
}

TEST(WalTest, CorruptCrcRecordDropped) {
  std::string wal_path = TempPath("etsqp_wal_crc.wal");
  {
    db::Database dbi;
    db::Database::IngestConfig cfg;
    cfg.wal_path = wal_path;
    cfg.fsync = Wal::FsyncPolicy::kNever;
    ASSERT_TRUE(dbi.EnableIngest(cfg).ok());
    ASSERT_TRUE(dbi.CreateTimeseries("s").ok());
    int64_t times[2] = {1, 2}, values[2] = {5, 6};
    ASSERT_TRUE(dbi.InsertBatch("s", times, values, 2).ok());
    int64_t t2 = 3, v2 = 7;
    ASSERT_TRUE(dbi.InsertBatch("s", &t2, &v2, 1).ok());
  }
  // Bit-flip inside the final record's payload: frame length still reads,
  // the CRC check fails, the record (and with it the tail) is dropped.
  FlipByteAt(wal_path, 1);

  db::Database db2;
  db::Database::IngestConfig cfg;
  cfg.wal_path = wal_path;
  ASSERT_TRUE(db2.EnableIngest(cfg).ok());
  EXPECT_EQ(db2.last_recovery().records_dropped, 1u);
  EXPECT_EQ(QueryScalar(db2, "SELECT COUNT(s) FROM s;"), 2.0);
  EXPECT_EQ(QueryScalar(db2, "SELECT SUM(s) FROM s;"), 11.0);
  std::remove(wal_path.c_str());
}

TEST(WalTest, CheckpointTruncatesWal) {
  std::string wal_path = TempPath("etsqp_wal_ckpt.wal");
  std::string ts_path = TempPath("etsqp_wal_ckpt.tsfile");
  {
    db::Database dbi;
    db::Database::IngestConfig cfg;
    cfg.wal_path = wal_path;
    cfg.fsync = Wal::FsyncPolicy::kNever;
    ASSERT_TRUE(dbi.EnableIngest(cfg).ok());
    ASSERT_TRUE(dbi.CreateTimeseries("s").ok());
    for (int64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(dbi.Insert("s", i, i).ok());
    }
    ASSERT_TRUE(dbi.Checkpoint(ts_path).ok());
    EXPECT_EQ(FileSize(wal_path), 0);  // log is redundant after checkpoint
    // Points appended after the checkpoint land in the fresh log.
    ASSERT_TRUE(dbi.Insert("s", 100, 1000).ok());
    EXPECT_GT(FileSize(wal_path), 0);
  }

  db::Database db2;
  ASSERT_TRUE(db2.Load(ts_path).ok());
  db::Database::IngestConfig cfg;
  cfg.wal_path = wal_path;
  ASSERT_TRUE(db2.EnableIngest(cfg).ok());
  EXPECT_EQ(db2.last_recovery().points_applied, 1u);
  EXPECT_EQ(QueryScalar(db2, "SELECT COUNT(s) FROM s;"), 41.0);
  EXPECT_EQ(QueryScalar(db2, "SELECT SUM(s) FROM s;"),
            static_cast<double>(40 * 39 / 2 + 1000));
  std::remove(wal_path.c_str());
  std::remove(ts_path.c_str());
}

TEST(WalTest, CrashBetweenCheckpointAndTruncateIsIdempotent) {
  std::string wal_path = TempPath("etsqp_wal_fault.wal");
  std::string ts_path = TempPath("etsqp_wal_fault.tsfile");
  int64_t sum = 0;
  {
    db::Database dbi;
    db::Database::IngestConfig cfg;
    cfg.wal_path = wal_path;
    cfg.fsync = Wal::FsyncPolicy::kNever;
    ASSERT_TRUE(dbi.EnableIngest(cfg).ok());
    ASSERT_TRUE(dbi.CreateTimeseries("s").ok());
    for (int64_t i = 0; i < 25; ++i) {
      ASSERT_TRUE(dbi.Insert("s", i, i * 2).ok());
      sum += i * 2;
    }
    // Simulated crash in the checkpoint window: the TsFile is durable but
    // the WAL still holds every record.
    dbi.TestingFailBeforeWalTruncate(true);
    ASSERT_TRUE(dbi.Checkpoint(ts_path).ok());
    EXPECT_GT(FileSize(wal_path), 0);
  }

  // Recovery loads the checkpoint, then replays a WAL whose records are
  // all already covered: idempotent replay must skip them, not
  // double-apply.
  db::Database db2;
  ASSERT_TRUE(db2.Load(ts_path).ok());
  db::Database::IngestConfig cfg;
  cfg.wal_path = wal_path;
  ASSERT_TRUE(db2.EnableIngest(cfg).ok());
  EXPECT_EQ(db2.last_recovery().points_applied, 0u);
  EXPECT_GT(db2.last_recovery().records_skipped, 0u);
  EXPECT_EQ(QueryScalar(db2, "SELECT COUNT(s) FROM s;"), 25.0);
  EXPECT_EQ(QueryScalar(db2, "SELECT SUM(s) FROM s;"),
            static_cast<double>(sum));
  std::remove(wal_path.c_str());
  std::remove(ts_path.c_str());
}

// ----------------------------------------------- concurrency contract

// Runs in CI's TSan job (the `executor` label): one writer
// streams batches while readers query; every query must succeed and see a
// consistent, monotonically growing prefix.
TEST(IotDbLiteConcurrencyTest, InsertVsQuery) {
  db::Database dbi(db::Database::Options{db::Database::Mode::kSimd, 2});
  storage::SeriesStore::SeriesOptions opt;
  opt.page_size = 128;
  ASSERT_TRUE(dbi.CreateTimeseries("s", opt).ok());
  db::Database::IngestConfig cfg;  // background sealing on, no WAL
  cfg.background_seal = true;
  ASSERT_TRUE(dbi.EnableIngest(cfg).ok());
  ASSERT_TRUE(dbi.Insert("s", 0, 0).ok());

  constexpr int kPoints = 4000;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (int64_t i = 1; i <= kPoints; ++i) {
      if (!dbi.Insert("s", i, 1).ok()) {
        failures.fetch_add(1);
        break;
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      double last_count = 0;
      while (!done.load()) {
        auto result = dbi.Query("SELECT COUNT(s) FROM s;");
        if (!result.ok()) {
          failures.fetch_add(1);
          break;
        }
        double count = result.value().columns[0][0];
        // Snapshot isolation: the count never goes backwards and values
        // are all 1, so SUM(count prefix) == COUNT - 1 + point at t=0.
        if (count < last_count) failures.fetch_add(1);
        last_count = count;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(QueryScalar(dbi, "SELECT COUNT(s) FROM s;"),
            static_cast<double>(kPoints + 1));
  ASSERT_TRUE(dbi.Flush().ok());
  EXPECT_EQ(QueryScalar(dbi, "SELECT SUM(s) FROM s;"),
            static_cast<double>(kPoints));
}

TEST(IotDbLiteConcurrencyTest, ConcurrentWritersDistinctSeries) {
  db::Database dbi;
  ASSERT_TRUE(dbi.CreateTimeseries("a").ok());
  ASSERT_TRUE(dbi.CreateTimeseries("b").ok());
  std::thread ta([&] {
    for (int64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(dbi.Insert("a", i, 1).ok());
    }
  });
  std::thread tb([&] {
    for (int64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(dbi.Insert("b", i, 2).ok());
    }
  });
  ta.join();
  tb.join();
  EXPECT_EQ(QueryScalar(dbi, "SELECT SUM(a) FROM a;"), 2000.0);
  EXPECT_EQ(QueryScalar(dbi, "SELECT SUM(b) FROM b;"), 4000.0);
}

// --- Pruning staleness (runs under TSan in CI, ctest label `pruning`): a
// snapshot captured while the background sealer installs pages sees a
// prefix of the writer's stream. Its series envelope must never prune that
// prefix while a point of it matches, and when the envelope keeps the input
// the page walk must schedule the envelope-less jobs. Every query over the
// snapshot must equal the scalar oracle over the same prefix.

bool SameJobs(const exec::PipelineSpec& a, const exec::PipelineSpec& b) {
  if (a.jobs.size() != b.jobs.size()) return false;
  for (size_t j = 0; j < a.jobs.size(); ++j) {
    const exec::PipeJob& x = a.jobs[j];
    const exec::PipeJob& y = b.jobs[j];
    if (x.input != y.input || x.page_index != y.page_index ||
        x.begin != y.begin || x.end != y.end || x.tail != y.tail ||
        x.masked != y.masked) {
      return false;
    }
  }
  return true;
}

TEST(PruningStalenessTest, SnapshotDuringBackgroundSealStaysConsistent) {
  db::Database dbi(db::Database::Options{db::Database::Mode::kSimd, 2});
  storage::SeriesStore::SeriesOptions opt;
  opt.page_size = 64;
  ASSERT_TRUE(dbi.CreateTimeseries("s", opt).ok());
  db::Database::IngestConfig cfg;  // background sealing on, no WAL
  cfg.background_seal = true;
  ASSERT_TRUE(dbi.EnableIngest(cfg).ok());

  exec::LogicalPlan plan =
      exec::LogicalPlan::Aggregate("s", exec::AggFunc::kSum);
  plan.time_filter.lo = 500;
  plan.time_filter.hi = 2500;
  plan.value_filter.active = true;
  plan.value_filter.lo = 10;
  plan.value_filter.hi = 60;

  constexpr int64_t kPoints = 6000;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int64_t i = 0; i < kPoints; ++i) {
      if (!dbi.Insert("s", i, i % 100).ok()) {
        failures.fetch_add(1);
        break;
      }
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      const exec::Engine engine(exec::PipelineOptions::Etsqp(1));
      while (!done.load()) {
        Result<SeriesSnapshot> snap = dbi.shard_store(0)->GetSnapshot("s");
        if (!snap.ok() || !snap.value().envelope.has_value()) {
          failures.fetch_add(1);
          break;
        }
        const SeriesSnapshot& s = snap.value();
        oracle::SeriesOracle truth(/*is_float=*/false);
        const int64_t prefix = static_cast<int64_t>(s.total_points());
        for (int64_t i = 0; i < prefix; ++i) truth.Append(i, i % 100);

        std::vector<SeriesSnapshot> inputs{s};
        std::vector<SeriesSnapshot> bare{s};
        bare[0].envelope.reset();
        auto spec = exec::BuildPipeline(plan, inputs,
                                        exec::PipelineOptions::Etsqp(1));
        auto spec_bare = exec::BuildPipeline(plan, bare,
                                             exec::PipelineOptions::Etsqp(1));
        if (!spec.ok() || !spec_bare.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (spec.value().plan_stats.series_pruned > 0
                ? truth.Matching(plan) != 0
                : !SameJobs(spec.value(), spec_bare.value())) {
          failures.fetch_add(1);  // the envelope dropped a live input
        }
        Result<exec::QueryResult> result = engine.Execute(
            plan, exec::SnapshotResolver([&s](const std::string&) {
              return Result<SeriesSnapshot>(s);
            }));
        std::string why;
        if (!result.ok() || !oracle::SameColumns(result.value().columns,
                                                 truth.Answer(plan), false,
                                                 &why)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Sealed world after the dust settles: the store still plans everything.
  ASSERT_TRUE(dbi.Flush().ok());
  EXPECT_EQ(QueryScalar(dbi, "SELECT COUNT(s) FROM s;"),
            static_cast<double>(kPoints));
}

}  // namespace
}  // namespace etsqp
