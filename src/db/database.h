#ifndef ETSQP_DB_DATABASE_H_
#define ETSQP_DB_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "db/result_cache.h"
#include "db/shard.h"
#include "exec/engine.h"
#include "storage/series_store.h"
#include "storage/wal.h"

namespace etsqp::db {

/// The system-integration layer of paper Section VI: an IoT database with
/// the IoTDB storage model (buffered ingestion, separately encoded pages)
/// and a SQL front end whose plans execute through Pipe (Algorithm 2) on
/// the ETSQP engine.
///
/// The Figure 13 comparison maps to engine modes:
///   IoTDB       = Mode::kScalar  (serial decoding, no vector sharing)
///   IoTDB-SIMD  = Mode::kSimd    (this paper's integrated engine)
///
/// Layering:
///  - A fixed set of Shards (each one SeriesStore/TsFile + WAL) and a
///    ShardRouter that hash-partitions series across them. Catalog and
///    ingest calls route to the owning shard; each shard's store is
///    internally synchronized, so ingest scales with shards.
///  - Query() parses SQL, consults the epoch-keyed result cache, and
///    executes on the one engine. Input snapshots resolve through the
///    router, so a binary plan whose two series live on different shards
///    still compiles into one PipelineJobSet and merges through the
///    ordinary merge stage on the process-wide work-stealing executor.
///  - The result cache keys on (plan signature, per-input series epoch,
///    shard layout). Epochs advance on every append/seal/replay, so the
///    ingest tail and background sealing invalidate implicitly
///    (db/result_cache.h). Hit/miss/eviction counters land in ExecStats
///    and the EXPLAIN ANALYZE profile.
///
/// The defaults are one shard with the cache off; a one-shard database
/// writes its TsFile and WAL at the plain paths it is given.
///
/// Concurrency: Query() from many threads is safe, and so is Insert
/// concurrent with Query. Reconfiguration (SetMode/SetThreads/
/// SetCollectStats/OpenFile/CloseFile) takes the writer side of the engine
/// lock and waits out in-flight queries.
class Database {
 public:
  enum class Mode { kScalar, kSimd };

  struct Options {
    Mode mode = Mode::kSimd;
    int threads = 1;
    int shards = 1;
    /// Result-cache byte budget; 0 disables the cache.
    size_t cache_budget_bytes = 0;
  };

  /// Streaming-ingest configuration (WAL + background sealing); applied per
  /// shard — shard k logs to `<wal_path>.shard<k>` (plain path when there
  /// is one shard).
  struct IngestConfig {
    std::string wal_path;  // empty => no WAL (tail + sealing only)
    storage::Wal::FsyncPolicy fsync = storage::Wal::FsyncPolicy::kBatch;
    size_t wal_batch_bytes = 64 << 10;  // group-commit threshold for kBatch
    bool background_seal = false;
  };

  Database();
  explicit Database(const Options& options);
  ~Database();
  Database(Database&&) noexcept;
  Database& operator=(Database&&) noexcept;

  // --- Catalog + ingest (routed to the owning shard) ---------------------

  /// Creates a time series with the default TS2DIFF page encoding.
  Status CreateTimeseries(const std::string& name, uint32_t page_size = 4096);
  Status CreateTimeseries(const std::string& name,
                          const storage::SeriesStore::SeriesOptions& options);
  /// Float (double) series: values compressed with an XOR/pattern encoder
  /// (Gorilla by default; Chimp/Elf via `encoding`).
  Status CreateFloatTimeseries(
      const std::string& name,
      enc::ColumnEncoding encoding = enc::ColumnEncoding::kGorillaValue,
      uint32_t page_size = 4096);
  Status Insert(const std::string& name, int64_t time, int64_t value);
  Status InsertBatch(const std::string& name, const int64_t* times,
                     const int64_t* values, size_t n);
  Status InsertF64(const std::string& name, int64_t time, double value);
  Status InsertBatchF64(const std::string& name, const int64_t* times,
                        const double* values, size_t n);
  Status Flush();

  /// Background compaction configuration: per-page adaptive re-encoding
  /// options plus the auto-trigger cadence.
  struct CompactionConfig {
    storage::CompactionOptions options;
    /// Schedule a background CompactAll on a shard after this many newly
    /// installed pages there; 0 = manual Compact() only. Auto-triggered
    /// passes run on the shared work-stealing pool.
    uint32_t auto_trigger_pages = 0;
  };

  /// Builds each shard's Compactor.
  Status EnableCompaction(const CompactionConfig& config);
  Status EnableCompaction() { return EnableCompaction(CompactionConfig()); }
  /// One synchronous compaction pass: every shard (`shard` = -1, passes fan
  /// out in parallel on the pool) or just one. Requires EnableCompaction.
  Status Compact(int shard = -1);
  /// Marks [t0, t1] of `name` deleted (tombstone): masked at query time,
  /// physically dropped at the next compaction pass.
  Status DeleteRange(const std::string& name, int64_t t0, int64_t t1);
  /// Points older than `last_time - ttl_nanos` are masked (0 disables).
  Status SetTtl(const std::string& name, int64_t ttl_nanos);
  /// Compaction counters summed across shards; empty() when disabled.
  metrics::CompactionStats compaction_stats() const;

  Status EnableIngest(const IngestConfig& config);
  /// Durability checkpoint: Flush() every tail into pages, persist each
  /// shard as a TsFile (at `path` for one shard), then truncate its WAL
  /// (its records are redundant once the TsFile holds them). Callers
  /// serialize Checkpoint against their own ingest threads; a checkpoint
  /// racing an insert can fail benignly with "unflushed series" and may be
  /// retried.
  Status Checkpoint(const std::string& path);
  /// Testing fault hook: Checkpoint stops right before WAL truncation.
  void TestingFailBeforeWalTruncate(bool on);
  /// Ingest/WAL/seal counters summed across shards.
  metrics::IngestStats ingest_stats() const;
  /// What the last EnableIngest recovery replayed, summed across shards.
  const storage::Wal::ReplayStats& last_recovery() const;

  // --- Queries -----------------------------------------------------------

  /// Parses and executes one SQL statement (Table III dialect, plus the
  /// EXPLAIN [ANALYZE] prefix). Runs against the file-backed stores when
  /// they are attached (OpenFile), otherwise against the in-memory stores.
  Result<exec::QueryResult> Query(const std::string& sql) const;

  // --- Engine reconfiguration -------------------------------------------

  void SetMode(Mode mode);
  /// Also reserves capacity on the shared executor pool so the first query
  /// at the new width does not pay worker spin-up.
  void SetThreads(int threads);
  /// Per-stage ExecStats collection for subsequent queries (EXPLAIN ANALYZE
  /// forces it on for its own run regardless).
  void SetCollectStats(bool on);
  Mode mode() const;
  int threads() const;
  bool collect_stats() const;

  // --- Persistence -------------------------------------------------------

  /// Per-shard TsFiles at `<path>.shard<k>` (plain `path` for one shard).
  Status Save(const std::string& path) const;
  /// Loads the per-shard TsFiles Save wrote.
  Status Load(const std::string& path);

  /// Attaches the per-shard TsFiles through the LRU buffer pool (Section
  /// VI-C gradual page loading) instead of loading them whole: only page
  /// headers become resident, and Query streams surviving pages on demand.
  /// A query on a series routes to its shard's file store.
  Status OpenFile(const std::string& path,
                  size_t memory_budget_bytes = 64 << 20);
  /// Detaches the file stores; Query returns to the in-memory stores.
  void CloseFile();
  const storage::FileBackedStore* file_store() const;  // shard 0's

  /// CSV interchange. Import expects an optional header line and rows
  /// `<int64 time>,<int64 value>`, time-ordered; a row whose two fields do
  /// not both parse completely is rejected. The series must exist. Export
  /// writes the same format.
  Status ImportCsv(const std::string& series, const std::string& path);
  Status ExportCsv(const std::string& series, const std::string& path) const;

  // --- Topology ----------------------------------------------------------

  int num_shards() const;
  int ShardOf(const std::string& series) const;
  storage::SeriesStore* shard_store(int shard);
  const storage::SeriesStore& shard_store(int shard) const;

  // --- Result cache ------------------------------------------------------

  ResultCache::Stats cache_stats() const;
  void SetCacheBudget(size_t budget_bytes);
  void ClearCache();

 private:
  struct Rep;
  std::unique_ptr<Rep> rep_;
};

}  // namespace etsqp::db

#endif  // ETSQP_DB_DATABASE_H_
