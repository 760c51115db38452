#ifndef ETSQP_DB_DATABASE_H_
#define ETSQP_DB_DATABASE_H_

#include <map>
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

/// The multi-tenant serving core: a fixed set of Shards (each one
/// SeriesStore/TsFile + WAL), a ShardRouter that hash-
/// partitions series across them, per-tenant admission control, and an
/// epoch-keyed result cache — all in front of the ETSQP engine.
///
/// Layering:
///  - Catalog and ingest calls route to the owning shard; each shard's
///    store is internally synchronized, so ingest scales with shards.
///  - Query() parses SQL, passes tenant admission (bounded concurrency +
///    bounded queue + per-query memory estimate; over-budget queries are
///    rejected with ResourceExhausted, never silently queued forever),
///    consults the result cache, and executes through the primary shard's
///    engine. Input snapshots resolve through the router, so a binary plan
///    whose two series live on different shards still compiles into one
///    PipelineJobSet and merges through the ordinary merge stage — all
///    shards share the process-wide work-stealing executor.
///  - The result cache keys on (plan signature, per-input series epoch,
///    shard layout). Epochs advance on every append/seal/replay, so the
///    ingest tail and background sealing invalidate implicitly
///    (db/result_cache.h). Hit/miss/eviction and admission counters land in
///    ExecStats and the EXPLAIN ANALYZE profile.
///
/// Concurrency contract matches IotDbLite's: Query() from many threads is
/// safe; reconfiguration (SetMode/SetThreads/SetCollectStats/OpenFile/
/// CloseFile/Reshard) takes the writer side of the engine lock
/// and waits out in-flight queries. IotDbLite is this class pinned to one
/// shard with the cache off — the paths it writes are byte-compatible with
/// the pre-sharding layout.
class Database {
 public:
  enum class Mode { kScalar, kSimd };

  struct Options {
    Mode mode = Mode::kSimd;
    int threads = 1;
    int shards = 1;
    /// Result-cache byte budget; 0 disables the cache (facade default).
    size_t cache_budget_bytes = 0;
  };

  /// Per-tenant admission limits. Defaults are unlimited so untenanted use
  /// (the facade, tools) is unthrottled until someone opts in.
  struct TenantOptions {
    /// Queries of this tenant running at once; < 0 = unlimited, 0 = none
    /// (every query rejected or queued — with max_queued 0, a hard off
    /// switch).
    int max_concurrent = -1;
    /// Queries allowed to wait once concurrency is saturated; beyond this
    /// the query is rejected with ResourceExhausted.
    int max_queued = 16;
    /// Upper bound on the estimated bytes one query may touch (encoded
    /// pages + snapshot tail copy); 0 = unlimited.
    uint64_t memory_budget_bytes = 0;
  };

  struct TenantStats {
    uint64_t admitted = 0;
    uint64_t rejected_queue = 0;   // bounded queue overflow
    uint64_t rejected_memory = 0;  // per-query estimate over budget
    uint64_t wait_nanos = 0;       // total time spent queued
    int active = 0;                // gauge: running now
    int queued = 0;                // gauge: waiting now
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

  explicit Database(const Options& options);
  ~Database();
  Database(Database&&) noexcept;
  Database& operator=(Database&&) noexcept;

  // --- Catalog + ingest (routed to the owning shard) ---------------------

  Status CreateTimeseries(const std::string& name, uint32_t page_size = 4096);
  Status CreateTimeseries(const std::string& name,
                          const storage::SeriesStore::SeriesOptions& options);
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
  /// Flush + per-shard TsFile + WAL truncation (see IotDbLite::Checkpoint).
  Status Checkpoint(const std::string& path);
  /// Testing fault hook: Checkpoint stops right before WAL truncation.
  void TestingFailBeforeWalTruncate(bool on);
  /// Ingest/WAL/seal counters summed across shards.
  metrics::IngestStats ingest_stats() const;
  /// What the last EnableIngest recovery replayed, summed across shards.
  const storage::Wal::ReplayStats& last_recovery() const;

  // --- Queries -----------------------------------------------------------

  /// Parses and executes one SQL statement as the default tenant.
  Result<exec::QueryResult> Query(const std::string& sql) const;
  /// Same, attributed to `tenant` for admission control. Unknown tenants
  /// are created on first use with default (unlimited) TenantOptions.
  Result<exec::QueryResult> Query(const std::string& tenant,
                                  const std::string& sql) const;

  /// Fleet-scale pruning probe: how many series across all shards could
  /// hold data matching the time/value window — one SIMD sweep per shard
  /// over the pruning-index envelopes (storage/pruning_index.h), no page
  /// headers touched. Conservative: never undercounts the series a linear
  /// header scan would keep. `matched` (optional) collects their names.
  storage::PruneProbeStats CountMatchingSeries(
      const storage::PruneProbe& probe,
      std::vector<std::string>* matched = nullptr) const;

  // --- Tenants -----------------------------------------------------------

  void ConfigureTenant(const std::string& name, const TenantOptions& options);
  std::map<std::string, TenantStats> tenant_stats() const;

  // --- Engine reconfiguration -------------------------------------------

  void SetMode(Mode mode);
  void SetThreads(int threads);
  void SetCollectStats(bool on);
  Mode mode() const;
  int threads() const;
  bool collect_stats() const;

  // --- Persistence -------------------------------------------------------

  /// Per-shard TsFiles at `<path>.shard<k>` (plain `path` for one shard).
  Status Save(const std::string& path) const;
  /// Loads per-shard TsFiles; a multi-shard database falls back to reading
  /// a single combined `path` and redistributing its series through the
  /// router (pages are shared, not copied).
  Status Load(const std::string& path);

  /// Attaches per-shard TsFiles through the LRU buffer pool; queries on a
  /// series route to its shard's file store. Aggregations only.
  Status OpenFile(const std::string& path,
                  size_t memory_budget_bytes = 64 << 20);
  void CloseFile();
  const storage::FileBackedStore* file_store() const;  // shard 0's

  Status ImportCsv(const std::string& series, const std::string& path);
  Status ExportCsv(const std::string& series, const std::string& path) const;

  // --- Topology ----------------------------------------------------------

  int num_shards() const;
  int ShardOf(const std::string& series) const;
  /// Rebuilds the database with `num_shards` shards, redistributing every
  /// series (pages shared, tails flushed first). Requires no WAL and no
  /// file store attached; clears the result cache.
  Status Reshard(int num_shards);

  // --- Result cache ------------------------------------------------------

  ResultCache::Stats cache_stats() const;
  void SetCacheBudget(size_t budget_bytes);
  void ClearCache();

  // --- Introspection (facade + tests) ------------------------------------

  storage::SeriesStore* shard_store(int shard);
  const storage::SeriesStore& shard_store(int shard) const;
  /// Shard 0's engine (the facade's `engine()` view).
  const exec::Engine& engine() const;

 private:
  struct Rep;
  std::unique_ptr<Rep> rep_;
};

/// A tenant-bound query handle: the CLI keeps one per `.tenant` selection;
/// servers would hold one per connection. Sessions are cheap views — the
/// Database must outlive them.
class Session {
 public:
  Session(Database* db, std::string tenant)
      : db_(db), tenant_(std::move(tenant)) {}

  Result<exec::QueryResult> Query(const std::string& sql) const {
    return db_->Query(tenant_, sql);
  }

  const std::string& tenant() const { return tenant_; }

 private:
  Database* db_;
  std::string tenant_;
};

}  // namespace etsqp::db

#endif  // ETSQP_DB_DATABASE_H_
