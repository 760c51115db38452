#ifndef ETSQP_DB_IOTDB_LITE_H_
#define ETSQP_DB_IOTDB_LITE_H_

#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "db/database.h"
#include "exec/engine.h"
#include "storage/buffer_manager.h"
#include "storage/series_store.h"
#include "storage/wal.h"

namespace etsqp::db {

/// IotDbLite: the system-integration layer of paper Section VI — a minimal
/// IoT database with the IoTDB storage model (buffered ingestion, separately
/// encoded pages) and a SQL front end whose plans execute through Pipe
/// (Algorithm 2) on the ETSQP engine.
///
/// The Figure 13 comparison maps to engine modes:
///   IoTDB       = Mode::kScalar  (serial decoding, no vector sharing)
///   IoTDB-SIMD  = Mode::kSimd    (this paper's integrated engine)
///
/// Since the serving-core refactor this is a thin facade over db::Database
/// pinned to one shard with the result cache off: every call delegates, the
/// on-disk layout (TsFile, WAL) is byte-identical to the
/// pre-sharding format, and the concurrency contract is unchanged — Query()
/// from many threads is safe, reconfiguration (SetMode / SetThreads /
/// SetCollectStats / OpenFile / CloseFile) takes the engine writer lock and
/// waits out in-flight queries, and concurrent Insert/Query is a supported,
/// tested contract. Multi-shard, multi-tenant serving lives on Database
/// directly (docs/ARCHITECTURE.md "Serving core").
class IotDbLite {
 public:
  using Mode = Database::Mode;
  using IngestConfig = Database::IngestConfig;

  explicit IotDbLite(Mode mode = Mode::kSimd, int threads = 1)
      : db_(Database::Options{mode, threads, /*shards=*/1,
                              /*cache_budget_bytes=*/0}) {}

  /// Creates a time series with the default TS2DIFF page encoding.
  Status CreateTimeseries(const std::string& name,
                          uint32_t page_size = 4096) {
    return db_.CreateTimeseries(name, page_size);
  }
  Status CreateTimeseries(const std::string& name,
                          const storage::SeriesStore::SeriesOptions& options) {
    return db_.CreateTimeseries(name, options);
  }

  Status Insert(const std::string& name, int64_t time, int64_t value) {
    return db_.Insert(name, time, value);
  }
  Status InsertBatch(const std::string& name, const int64_t* times,
                     const int64_t* values, size_t n) {
    return db_.InsertBatch(name, times, values, n);
  }

  /// Float (double) series: values compressed with an XOR/pattern encoder
  /// (Gorilla by default; Chimp/Elf via the options overload).
  Status CreateFloatTimeseries(
      const std::string& name,
      enc::ColumnEncoding encoding = enc::ColumnEncoding::kGorillaValue,
      uint32_t page_size = 4096) {
    return db_.CreateFloatTimeseries(name, encoding, page_size);
  }
  Status InsertF64(const std::string& name, int64_t time, double value) {
    return db_.InsertF64(name, time, value);
  }
  Status InsertBatchF64(const std::string& name, const int64_t* times,
                        const double* values, size_t n) {
    return db_.InsertBatchF64(name, times, values, n);
  }
  Status Flush() { return db_.Flush(); }

  /// Streaming ingest (WAL durability + background sealing); see
  /// Database::EnableIngest. Single shard => the WAL lives at the plain
  /// `wal_path`, exactly as before the refactor.
  Status EnableIngest(const IngestConfig& config) {
    return db_.EnableIngest(config);
  }

  /// Durability checkpoint: Flush() every tail into pages, persist the
  /// whole store as a TsFile at `path`, then truncate the WAL (its records
  /// are redundant once the TsFile holds them). Callers serialize
  /// Checkpoint against their own ingest threads; a checkpoint racing an
  /// insert can fail benignly with "unflushed series" and may be retried.
  Status Checkpoint(const std::string& path) { return db_.Checkpoint(path); }

  /// Testing fault hook: when set, Checkpoint() stops right before the WAL
  /// truncation — simulating a crash in the save-to-truncate window.
  void TestingFailBeforeWalTruncate(bool on) {
    db_.TestingFailBeforeWalTruncate(on);
  }

  /// Background compaction with adaptive per-page re-encoding; see
  /// Database::EnableCompaction.
  using CompactionConfig = Database::CompactionConfig;
  Status EnableCompaction(const CompactionConfig& config = CompactionConfig()) {
    return db_.EnableCompaction(config);
  }
  Status Compact() { return db_.Compact(); }
  /// Tombstones a time range / sets a retention TTL; masked at query time,
  /// physically dropped by the next compaction pass.
  Status DeleteRange(const std::string& name, int64_t t0, int64_t t1) {
    return db_.DeleteRange(name, t0, t1);
  }
  Status SetTtl(const std::string& name, int64_t ttl_nanos) {
    return db_.SetTtl(name, ttl_nanos);
  }
  metrics::CompactionStats compaction_stats() const {
    return db_.compaction_stats();
  }

  /// Ingest/WAL/seal counters (docs/OBSERVABILITY.md).
  metrics::IngestStats ingest_stats() const { return db_.ingest_stats(); }
  /// What the last EnableIngest recovery pass did (zeros before/without).
  const storage::Wal::ReplayStats& last_recovery() const {
    return db_.last_recovery();
  }

  /// Parses and executes one SQL statement (Table III dialect, plus the
  /// EXPLAIN [ANALYZE] prefix). Runs against the file-backed store when one
  /// is attached (OpenFile), otherwise against the in-memory store.
  Result<exec::QueryResult> Query(const std::string& sql) const {
    return db_.Query(sql);
  }

  /// Reconfigure the engine without rebuilding the database. Existing data
  /// (in-memory series, attached file store) is untouched. Safe while other
  /// threads run Query(): reconfiguration waits for in-flight queries.
  void SetMode(Mode mode) { db_.SetMode(mode); }
  /// Also reserves capacity on the shared executor pool so the first query
  /// at the new width does not pay worker spin-up.
  void SetThreads(int threads) { db_.SetThreads(threads); }
  /// Per-stage ExecStats collection for subsequent queries (EXPLAIN ANALYZE
  /// forces it on for its own run regardless).
  void SetCollectStats(bool on) { db_.SetCollectStats(on); }

  Mode mode() const { return db_.mode(); }
  int threads() const { return db_.threads(); }
  bool collect_stats() const { return db_.collect_stats(); }

  /// Persists all (flushed) series to a TsFile / loads one written earlier.
  Status Save(const std::string& path) const { return db_.Save(path); }
  Status Load(const std::string& path) { return db_.Load(path); }

  /// Attaches a TsFile through the LRU buffer pool (Section VI-C gradual
  /// page loading) instead of loading it whole: only page headers become
  /// resident; Query streams surviving pages on demand. Aggregations only.
  Status OpenFile(const std::string& path,
                  size_t memory_budget_bytes = 64 << 20) {
    return db_.OpenFile(path, memory_budget_bytes);
  }
  /// Detaches the file store; Query returns to the in-memory store. Takes
  /// the engine writer lock, so it waits out queries running against the
  /// file store instead of racing them.
  void CloseFile() { db_.CloseFile(); }
  const storage::FileBackedStore* file_store() const {
    return db_.file_store();
  }

  /// CSV interchange. Import expects a header line `time,value` (or none)
  /// and rows `<int64 time>,<int64 value>`; rows must be time-ordered. The
  /// series must exist. Export writes the same format.
  Status ImportCsv(const std::string& series, const std::string& path) {
    return db_.ImportCsv(series, path);
  }
  Status ExportCsv(const std::string& series, const std::string& path) const {
    return db_.ExportCsv(series, path);
  }

  storage::SeriesStore* store() { return db_.shard_store(0); }
  const storage::SeriesStore& store() const { return db_.shard_store(0); }
  const exec::Engine& engine() const { return db_.engine(); }

  /// The serving core underneath (tests of the facade wiring).
  Database* database() { return &db_; }
  const Database& database() const { return db_; }

 private:
  Database db_;
};

}  // namespace etsqp::db

#endif  // ETSQP_DB_IOTDB_LITE_H_
