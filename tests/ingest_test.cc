// Streaming-ingest subsystem tests: queryable tail (read-your-writes
// without Flush), ordering contract, background sealing, WAL durability,
// crash recovery with torn/corrupt tails, and checkpoint idempotency.
// The *Concurrency* tests also run in CI's ThreadSanitizer job.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/bitstream.h"
#include "common/crc32.h"
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

// ------------------------------- replay equivalence and golden bytes

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  int c;
  while ((c = std::fgetc(f)) != EOF) bytes.push_back(static_cast<uint8_t>(c));
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!b.empty()) {
    ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
  }
  std::fclose(f);
}

uint32_t FileCrc(const std::string& path) {
  std::vector<uint8_t> b = ReadFileBytes(path);
  return Crc32c(b.data(), b.size());
}

/// A deterministic value stream: large magnitudes of both signs, so the
/// int codecs see wide deltas and values past 2^53.
int64_t IntValue(int64_t i) {
  uint64_t x = static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 29;
  return static_cast<int64_t>(x % 4000) - 2000 +
         (i % 5 == 0 ? (int64_t{1} << 60) + i : 0);
}

double FloatValue(int64_t i) {
  if (i == 77) return std::numeric_limits<double>::quiet_NaN();
  if (i == 78) return -0.0;
  return static_cast<double>(i % 97) * 0.5 - 12.25;
}

/// One fixed write sequence through the public API with a WAL attached:
/// int and float series (`dev.b` and `dev.f` accept late points), batches
/// that seal pages, late batches split across the fence, a late duplicate
/// timestamp, a rejected batch, DeleteRange, SetTtl, a checkpoint, then more
/// writes and a series created after it. `wal_before_checkpoint` receives
/// the log bytes of shard 0 just before the checkpoint truncates it.
void WriteSequence(db::Database* dbi, const std::string& wal_path,
                   const std::string& checkpoint_path,
                   std::vector<uint8_t>* wal_before_checkpoint) {
  db::Database::IngestConfig cfg;
  cfg.wal_path = wal_path;
  cfg.fsync = Wal::FsyncPolicy::kNever;
  ASSERT_TRUE(dbi->EnableIngest(cfg).ok());

  SeriesStore::SeriesOptions late_int;
  late_int.allow_out_of_order = true;
  SeriesStore::SeriesOptions late_float;
  late_float.allow_out_of_order = true;
  late_float.page.value_encoding = enc::ColumnEncoding::kGorillaValue;
  ASSERT_TRUE(dbi->CreateTimeseries("dev.a").ok());
  ASSERT_TRUE(dbi->CreateTimeseries("dev.b", late_int).ok());
  ASSERT_TRUE(dbi->CreateTimeseries("dev.f", late_float).ok());
  ASSERT_TRUE(
      dbi->CreateFloatTimeseries("dev.g", enc::ColumnEncoding::kChimpValue)
          .ok());

  const int64_t kStep = 1000;
  auto t = [&](int64_t i) { return int64_t{1700000000} * 1000000 + i * kStep; };
  auto append_int = [&](const std::string& name, int64_t from, int64_t to) {
    std::vector<int64_t> ts, vs;
    for (int64_t i = from; i < to; ++i) {
      ts.push_back(t(i));
      vs.push_back(IntValue(i));
    }
    ASSERT_TRUE(dbi->InsertBatch(name, ts.data(), vs.data(), ts.size()).ok());
  };
  auto append_float = [&](const std::string& name, int64_t from, int64_t to) {
    std::vector<int64_t> ts;
    std::vector<double> vs;
    for (int64_t i = from; i < to; ++i) {
      ts.push_back(t(i));
      vs.push_back(FloatValue(i));
    }
    ASSERT_TRUE(
        dbi->InsertBatchF64(name, ts.data(), vs.data(), ts.size()).ok());
  };

  // 9,000 points per series in batches of 1,000: two sealed pages each and
  // an 808-point tail.
  for (int64_t b = 0; b < 9; ++b) {
    append_int("dev.a", b * 1000, (b + 1) * 1000);
    append_int("dev.b", b * 1000, (b + 1) * 1000);
    append_float("dev.f", b * 1000, (b + 1) * 1000);
    append_float("dev.g", b * 1000, (b + 1) * 1000);
  }
  // Late batches split across the fence: 10 points at or below it (some on
  // sealed timestamps, some between them), 10 past it.
  {
    std::vector<int64_t> ts, vs;
    std::vector<double> fs;
    for (int64_t k = 0; k < 10; ++k) {
      ts.push_back(t(100 + 800 * k) + (k % 2 == 0 ? 0 : 7));
      vs.push_back(-IntValue(k) - 5);
      fs.push_back(static_cast<double>(k) * -1.5);
    }
    for (int64_t k = 0; k < 10; ++k) {
      ts.push_back(t(9000 + k));
      vs.push_back(IntValue(9000 + k));
      fs.push_back(FloatValue(9000 + k));
    }
    ASSERT_TRUE(dbi->InsertBatch("dev.b", ts.data(), vs.data(), ts.size())
                    .ok());
    ASSERT_TRUE(dbi->InsertBatchF64("dev.f", ts.data(), fs.data(), ts.size())
                    .ok());
  }
  // A batch entirely below the fence that rewrites one late timestamp
  // (last write wins) and lands in the tail's range.
  {
    int64_t ts[3] = {t(100), t(8500) + 3, t(9005) + 1};
    int64_t vs[3] = {123456789, -42, 7};
    double fs[3] = {2.5, -0.0, 1e300};
    ASSERT_TRUE(dbi->InsertBatch("dev.b", ts, vs, 3).ok());
    ASSERT_TRUE(dbi->InsertBatchF64("dev.f", ts, fs, 3).ok());
  }
  // An in-order series rejects a late batch whole; nothing is logged.
  {
    int64_t ts[2] = {t(10), t(9500)};
    int64_t vs[2] = {1, 2};
    EXPECT_EQ(dbi->InsertBatch("dev.a", ts, vs, 2).code(),
              StatusCode::kInvalidArgument);
  }
  ASSERT_TRUE(dbi->Insert("dev.a", t(9000), -1).ok());
  ASSERT_TRUE(dbi->InsertF64("dev.g", t(9000), 0.125).ok());
  ASSERT_TRUE(dbi->DeleteRange("dev.a", t(100), t(200)).ok());
  // Reaches past the fence: logged clamped to it.
  ASSERT_TRUE(dbi->DeleteRange("dev.f", t(8000), t(20000)).ok());
  ASSERT_TRUE(dbi->SetTtl("dev.g", 8000 * kStep).ok());

  if (wal_before_checkpoint != nullptr) {
    *wal_before_checkpoint =
        ReadFileBytes(db::Shard::ArtifactPath(wal_path, 0,
                                              dbi->num_shards()));
  }
  ASSERT_TRUE(dbi->Checkpoint(checkpoint_path).ok());

  // After the checkpoint: a new series, a page-sealing batch, a late batch
  // split across the fence, another delete and TTL change.
  ASSERT_TRUE(dbi->CreateTimeseries("dev.n").ok());
  append_int("dev.n", 0, 5000);
  append_int("dev.a", 9001, 14001);
  append_float("dev.g", 9001, 9500);
  {
    int64_t ts[4] = {t(50) + 1, t(9005), t(9020), t(9021)};
    int64_t vs[4] = {11, 22, 33, 44};
    double fs[4] = {-1.0, 2.0, -3.0, 4.0};
    ASSERT_TRUE(dbi->InsertBatch("dev.b", ts, vs, 4).ok());
    ASSERT_TRUE(dbi->InsertBatchF64("dev.f", ts, fs, 4).ok());
  }
  ASSERT_TRUE(dbi->DeleteRange("dev.b", t(4000), t(4100)).ok());
  ASSERT_TRUE(dbi->DeleteRange("dev.n", t(4990), t(6000)).ok());
  ASSERT_TRUE(dbi->SetTtl("dev.a", 2000 * kStep).ok());
  ASSERT_TRUE(dbi->SetTtl("dev.g", 0).ok());
}

bool SameBytes(const AlignedBuffer& a, const AlignedBuffer& b) {
  return a.size() == b.size() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

std::vector<uint64_t> BitPatterns(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    std::memcpy(&bits[i], &values[i], sizeof(double));
  }
  return bits;
}

void ExpectSameSnapshot(const SeriesSnapshot& live,
                        const SeriesSnapshot& replayed) {
  const std::string& name = live.name;
  EXPECT_EQ(live.is_float, replayed.is_float) << name;
  ASSERT_EQ(live.pages.size(), replayed.pages.size()) << name;
  for (size_t p = 0; p < live.pages.size(); ++p) {
    const storage::Page& a = *live.pages[p];
    const storage::Page& b = *replayed.pages[p];
    EXPECT_EQ(a.header.count, b.header.count) << name << " page " << p;
    EXPECT_EQ(a.header.time_encoding, b.header.time_encoding) << name;
    EXPECT_EQ(a.header.value_encoding, b.header.value_encoding) << name;
    EXPECT_EQ(a.header.min_time, b.header.min_time) << name;
    EXPECT_EQ(a.header.max_time, b.header.max_time) << name;
    EXPECT_EQ(a.header.min_value, b.header.min_value) << name;
    EXPECT_EQ(a.header.max_value, b.header.max_value) << name;
    EXPECT_EQ(a.header.level, b.header.level) << name;
    EXPECT_EQ(a.header.tier, b.header.tier) << name;
    EXPECT_TRUE(SameBytes(a.time_data, b.time_data)) << name;
    EXPECT_TRUE(SameBytes(a.value_data, b.value_data)) << name;
  }
  EXPECT_EQ(live.tail_times, replayed.tail_times) << name;
  EXPECT_EQ(live.tail_values, replayed.tail_values) << name;
  EXPECT_EQ(BitPatterns(live.tail_values_f64),
            BitPatterns(replayed.tail_values_f64))
      << name;
  ASSERT_EQ(live.tombstones.size(), replayed.tombstones.size()) << name;
  for (size_t i = 0; i < live.tombstones.size(); ++i) {
    EXPECT_EQ(live.tombstones[i].lo, replayed.tombstones[i].lo) << name;
    EXPECT_EQ(live.tombstones[i].hi, replayed.tombstones[i].hi) << name;
  }
}

// One database writes the fixed sequence; a second loads its checkpoint and
// replays its log. Every series must come back identical: pages byte for
// byte, tail, tombstones, TTL, the overlap buffer bit for bit (compared
// through the TsFile v2 bytes both stores write after a flush) and the
// append sequence. Replay leaves the live-write counters untouched.
TEST(WalTest, ReplayMatchesLiveStore) {
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string tag = "etsqp_replay_eq" + std::to_string(shards);
    const std::string wal_path = TempPath(tag + ".wal");
    const std::string ckpt_path = TempPath(tag + ".ckpt");
    const std::string wal_copy = TempPath(tag + ".copy.wal");
    const std::string ckpt_copy = TempPath(tag + ".copy.ckpt");
    db::Database::Options options;
    options.shards = shards;
    db::Database live(options);
    WriteSequence(&live, wal_path, ckpt_path, nullptr);
    for (int k = 0; k < shards; ++k) {
      WriteFileBytes(
          db::Shard::ArtifactPath(wal_copy, k, shards),
          ReadFileBytes(db::Shard::ArtifactPath(wal_path, k, shards)));
      WriteFileBytes(
          db::Shard::ArtifactPath(ckpt_copy, k, shards),
          ReadFileBytes(db::Shard::ArtifactPath(ckpt_path, k, shards)));
    }

    db::Database replayed(options);
    ASSERT_TRUE(replayed.Load(ckpt_copy).ok());
    db::Database::IngestConfig cfg;
    cfg.wal_path = wal_copy;
    cfg.fsync = Wal::FsyncPolicy::kNever;
    ASSERT_TRUE(replayed.EnableIngest(cfg).ok());

    const Wal::ReplayStats& rec = replayed.last_recovery();
    EXPECT_EQ(rec.records_applied, 12u);
    EXPECT_EQ(rec.records_skipped, 0u);
    EXPECT_EQ(rec.records_dropped, 0u);
    EXPECT_EQ(rec.bytes_dropped, 0u);
    EXPECT_EQ(rec.points_applied, 10507u);
    metrics::IngestStats is = replayed.ingest_stats();
    EXPECT_EQ(is.points_appended, 0u);
    EXPECT_EQ(is.append_batches, 0u);
    EXPECT_EQ(is.ooo_points, 0u);
    EXPECT_EQ(is.delete_ranges, 0u);

    int series = 0;
    for (int k = 0; k < shards; ++k) {
      const SeriesStore& a = *live.shard_store(k);
      const SeriesStore& b = *replayed.shard_store(k);
      EXPECT_EQ(a.SeriesNames(), b.SeriesNames());
      for (const std::string& name : a.SeriesNames()) {
        ++series;
        auto sa = a.GetSnapshot(name);
        auto sb = b.GetSnapshot(name);
        ASSERT_TRUE(sa.ok() && sb.ok()) << name;
        ExpectSameSnapshot(sa.value(), sb.value());
        EXPECT_EQ(a.AppendedPoints(name), b.AppendedPoints(name)) << name;
        EXPECT_EQ(a.Ttl(name), b.Ttl(name)) << name;
        EXPECT_EQ(a.OooPoints(name), b.OooPoints(name)) << name;
        EXPECT_EQ(a.Tombstones(name).size(), b.Tombstones(name).size());
      }
    }
    EXPECT_EQ(series, 5);
    EXPECT_GT(live.shard_store(live.ShardOf("dev.b"))->OooPoints("dev.b"), 0u);
    EXPECT_GT(live.shard_store(live.ShardOf("dev.f"))->OooPoints("dev.f"), 0u);

    // Flushed, both stores write the same TsFile bytes: explicit
    // tombstones, TTL, the append sequence and every overlap point's value
    // bits are in the v2 layout.
    const std::string save_live = TempPath(tag + ".live.tsfile");
    const std::string save_replayed = TempPath(tag + ".replayed.tsfile");
    ASSERT_TRUE(live.Flush().ok());
    ASSERT_TRUE(replayed.Flush().ok());
    ASSERT_TRUE(live.Save(save_live).ok());
    ASSERT_TRUE(replayed.Save(save_replayed).ok());
    for (int k = 0; k < shards; ++k) {
      std::vector<uint8_t> fa =
          ReadFileBytes(db::Shard::ArtifactPath(save_live, k, shards));
      std::vector<uint8_t> fb =
          ReadFileBytes(db::Shard::ArtifactPath(save_replayed, k, shards));
      EXPECT_FALSE(fa.empty());
      EXPECT_TRUE(fa == fb) << "shard " << k;
    }
    for (const std::string& base :
         {wal_path, ckpt_path, wal_copy, ckpt_copy, save_live,
          save_replayed}) {
      for (int k = 0; k < shards; ++k) {
        std::remove(db::Shard::ArtifactPath(base, k, shards).c_str());
      }
    }
  }
}

// The fixed sequence's log and checkpoint bytes are pinned: the WAL record
// layout and the TsFile layout are on-disk formats (docs/FORMAT.md).
TEST(WalTest, WalAndCheckpointBytesAreGolden) {
  const std::string wal_path = TempPath("etsqp_golden.wal");
  const std::string ckpt_path = TempPath("etsqp_golden.ckpt");
  std::vector<uint8_t> before;
  {
    db::Database dbi;
    WriteSequence(&dbi, wal_path, ckpt_path, &before);
  }
  EXPECT_EQ(before.size(), 578194u);
  EXPECT_EQ(Crc32c(before.data(), before.size()), 3986293163u);
  EXPECT_EQ(FileSize(ckpt_path), 183101);
  EXPECT_EQ(FileCrc(ckpt_path), 2963091254u);
  EXPECT_EQ(FileSize(wal_path), 168446);
  EXPECT_EQ(FileCrc(wal_path), 3131158497u);
  std::remove(wal_path.c_str());
  std::remove(ckpt_path.c_str());
}

/// Frames `payload` as docs/FORMAT.md specifies: u32 length BE, u32 masked
/// CRC-32C BE, payload.
void PutRecord(std::vector<uint8_t>* log, const std::vector<uint8_t>& payload) {
  PutFixed32BE(log, static_cast<uint32_t>(payload.size()));
  PutFixed32BE(log, MaskCrc(Crc32c(payload.data(), payload.size())));
  log->insert(log->end(), payload.begin(), payload.end());
}

void PutName(std::vector<uint8_t>* p, const std::string& name) {
  p->push_back(static_cast<uint8_t>(name.size() >> 8));
  p->push_back(static_cast<uint8_t>(name.size()));
  p->insert(p->end(), name.begin(), name.end());
}

std::vector<uint8_t> CreateRecord(const std::string& name) {
  const uint8_t ts2diff = static_cast<uint8_t>(enc::ColumnEncoding::kTs2Diff);
  std::vector<uint8_t> p = {1, ts2diff, ts2diff};
  PutFixed32BE(&p, 4096);
  PutFixed32BE(&p, 128);
  PutName(&p, name);
  return p;
}

std::vector<uint8_t> AppendIntRecord(const std::string& name,
                                     uint64_t first_seq,
                                     const std::vector<int64_t>& times) {
  std::vector<uint8_t> p = {2};
  PutName(&p, name);
  PutFixed64BE(&p, first_seq);
  PutFixed32BE(&p, static_cast<uint32_t>(times.size()));
  for (int64_t time : times) {
    PutFixed64BE(&p, static_cast<uint64_t>(time));
    PutFixed64BE(&p, static_cast<uint64_t>(time * 2));
  }
  return p;
}

Status ReplayLog(const std::string& path, const std::vector<uint8_t>& log) {
  WriteFileBytes(path, log);
  db::Database dbi;
  db::Database::IngestConfig cfg;
  cfg.wal_path = path;
  cfg.fsync = Wal::FsyncPolicy::kNever;
  Status status = dbi.EnableIngest(cfg);
  std::remove(path.c_str());
  return status;
}

// Hand-framed records whose CRC verifies but whose content cannot be
// applied are corruption, not a torn tail.
TEST(WalTest, HandCraftedRecordsFailWithCorruption) {
  const std::string path = TempPath("etsqp_crafted.wal");
  {
    std::vector<uint8_t> ok_log;
    PutRecord(&ok_log, CreateRecord("s"));
    PutRecord(&ok_log, AppendIntRecord("s", 0, {10, 20, 30}));
    PutRecord(&ok_log, AppendIntRecord("s", 3, {40}));
    EXPECT_TRUE(ReplayLog(path, ok_log).ok());
  }
  {
    // The second batch starts past the sequence fence (3 points applied).
    std::vector<uint8_t> gap;
    PutRecord(&gap, CreateRecord("s"));
    PutRecord(&gap, AppendIntRecord("s", 0, {10, 20, 30}));
    PutRecord(&gap, AppendIntRecord("s", 5, {40}));
    EXPECT_EQ(ReplayLog(path, gap).code(), StatusCode::kCorruption);
  }
  {
    std::vector<uint8_t> inverted;
    PutRecord(&inverted, CreateRecord("s"));
    PutRecord(&inverted, AppendIntRecord("s", 0, {10, 20, 30}));
    std::vector<uint8_t> del = {4};
    PutName(&del, "s");
    PutFixed64BE(&del, 25);
    PutFixed64BE(&del, 15);
    PutRecord(&inverted, del);
    EXPECT_EQ(ReplayLog(path, inverted).code(), StatusCode::kCorruption);
  }
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
// prefix of the writer's stream. Every query over the snapshot must equal
// the scalar oracle over the same prefix.

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
        if (!snap.ok()) {
          failures.fetch_add(1);
          break;
        }
        const SeriesSnapshot& s = snap.value();
        oracle::SeriesOracle truth(/*is_float=*/false);
        const int64_t prefix = static_cast<int64_t>(s.total_points());
        for (int64_t i = 0; i < prefix; ++i) truth.Append(i, i % 100);
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
