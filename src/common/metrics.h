#ifndef ETSQP_COMMON_METRICS_H_
#define ETSQP_COMMON_METRICS_H_

#include <chrono>
#include <cstdint>

namespace etsqp::metrics {

/// Execution stages of the decoding/aggregation pipeline (paper Figure 2):
/// the cost-model terms of Proposition 1 plus the scheduler-level fetch and
/// merge work around them. Stage attribution follows where the cycles are
/// actually spent, so fused kernels (Algorithm 1: bit-unpack + Delta
/// recovery in one register pass) report under kUnpack and the separate
/// Delta/Repeat flatten passes of the non-fused paths report under kDelta —
/// making the fusion effect directly visible in EXPLAIN ANALYZE.
enum class Stage : uint8_t {
  kPageFetch = 0,  // file/pool payload loads (Section VI-C gradual loading)
  kUnpack,         // bit-unpacking incl. fused unpack+delta kernels
  kDelta,          // separate delta accumulation / RLE flatten passes
  kFilter,         // time-range positioning + merge-plan row filters
  kAggregate,      // accumulation incl. fused and value-filtered passes
  kMerge,          // partial-result merging and result emission
};

inline constexpr int kNumStages = 6;

/// Stable display name ("page_fetch", "unpack", ...).
const char* StageName(Stage s);

/// Counters of one pipeline stage. Timings are monotonic-clock nanoseconds;
/// tuples/bytes count what the stage actually touched.
struct StageStats {
  uint64_t nanos = 0;
  uint64_t calls = 0;
  uint64_t tuples = 0;
  uint64_t bytes = 0;

  void Merge(const StageStats& o) {
    nanos += o.nanos;
    calls += o.calls;
    tuples += o.tuples;
    bytes += o.bytes;
  }
  bool empty() const {
    return nanos == 0 && calls == 0 && tuples == 0 && bytes == 0;
  }
};

/// Per-stage breakdown recorded by one pipeline job. Jobs record into a
/// job-local breakdown with no synchronization; the engine merges the locals
/// once per job at completion (under the existing result merge), so the hot
/// path never takes a lock for metrics.
struct StageBreakdown {
  StageStats stages[kNumStages] = {};

  StageStats& operator[](Stage s) { return stages[static_cast<int>(s)]; }
  const StageStats& operator[](Stage s) const {
    return stages[static_cast<int>(s)];
  }
  void Merge(const StageBreakdown& o) {
    for (int i = 0; i < kNumStages; ++i) stages[i].Merge(o.stages[i]);
  }
  uint64_t TotalNanos() const {
    uint64_t total = 0;
    for (const StageStats& s : stages) total += s.nanos;
    return total;
  }
  bool empty() const {
    for (const StageStats& s : stages) {
      if (!s.empty()) return false;
    }
    return true;
  }
};

/// Executor-pool counters (exec::ThreadPool). `tasks` counts tasks run to
/// completion; `steals` tasks acquired from a deque other than the runner's
/// own (worker steals and helping TaskGroup waiters alike); `parks` worker
/// sleeps and `park_nanos` the total slept time. On the pool these are
/// cumulative since construction; in ExecStats they hold the pool-wide
/// delta observed during the query window — under concurrent queries the
/// delta includes sibling queries' activity (the pool is shared; that is
/// the point).
struct PoolStats {
  uint64_t tasks = 0;
  uint64_t steals = 0;
  uint64_t parks = 0;
  uint64_t park_nanos = 0;

  void Merge(const PoolStats& o) {
    tasks += o.tasks;
    steals += o.steals;
    parks += o.parks;
    park_nanos += o.park_nanos;
  }
  bool empty() const {
    return tasks == 0 && steals == 0 && parks == 0 && park_nanos == 0;
  }
};

/// The delta of two cumulative pool snapshots (after - before), saturating
/// at zero if the pool was shut down and restarted in between.
inline PoolStats PoolStatsDelta(const PoolStats& before,
                                const PoolStats& after) {
  auto sub = [](uint64_t a, uint64_t b) { return a >= b ? a - b : 0; };
  PoolStats d;
  d.tasks = sub(after.tasks, before.tasks);
  d.steals = sub(after.steals, before.steals);
  d.parks = sub(after.parks, before.parks);
  d.park_nanos = sub(after.park_nanos, before.park_nanos);
  return d;
}

/// Streaming-ingest counters (storage::SeriesStore + its WAL): the write
/// side of the observability story. Cumulative since store construction;
/// `tail_points` is a gauge (currently buffered, not yet sealed points).
/// WAL replay advances none of the append/delete counters; what a recovery
/// applied is db::Database::last_recovery(). Surfaced by the CLI `.ingest`
/// command and docs/OBSERVABILITY.md.
struct IngestStats {
  uint64_t points_appended = 0;   // acknowledged points (excl. replay)
  uint64_t append_batches = 0;    // Append*/AppendBatch* calls accepted
  uint64_t rejected_batches = 0;  // out-of-order / duplicate-timestamp
  uint64_t pages_sealed = 0;      // pages built from the ingest buffer
  uint64_t background_seals = 0;  // subset sealed on the thread pool
  uint64_t seal_nanos = 0;        // wall time inside page encoding
  uint64_t tail_points = 0;       // gauge: buffered + pending-seal points
  uint64_t ooo_points = 0;        // late points accepted into overlap buffers
  uint64_t ooo_pending = 0;       // gauge: buffered, not yet reconciled
  uint64_t delete_ranges = 0;     // tombstones recorded (DeleteRange calls)
  uint64_t wal_records = 0;       // WAL appends since WAL open
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_sync_nanos = 0;

  void Merge(const IngestStats& o) {
    points_appended += o.points_appended;
    append_batches += o.append_batches;
    rejected_batches += o.rejected_batches;
    pages_sealed += o.pages_sealed;
    background_seals += o.background_seals;
    seal_nanos += o.seal_nanos;
    tail_points += o.tail_points;
    ooo_points += o.ooo_points;
    ooo_pending += o.ooo_pending;
    delete_ranges += o.delete_ranges;
    wal_records += o.wal_records;
    wal_bytes += o.wal_bytes;
    wal_fsyncs += o.wal_fsyncs;
    wal_sync_nanos += o.wal_sync_nanos;
  }
};

/// Background-compaction counters (storage::Compactor), cumulative across
/// passes. `bytes_in`/`bytes_out` are the encoded payload bytes of the pages
/// a rewrite consumed/produced — the storage-size win of a pass is
/// 1 - bytes_out/bytes_in. Surfaced by the CLI `.stats` and in the EXPLAIN
/// ANALYZE serving-layer profile.
struct CompactionStats {
  uint64_t runs = 0;              // compaction passes completed
  uint64_t series_compacted = 0;  // series whose page list was rewritten
  uint64_t pages_in = 0;          // sealed pages consumed by rewrites
  uint64_t pages_out = 0;         // pages produced (merge => out < in)
  uint64_t pages_reencoded = 0;   // outputs whose value codec changed
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t deleted_points_dropped = 0;  // tombstone/TTL points removed
  uint64_t tombstones_resolved = 0;     // ranges physically applied
  uint64_t ooo_points_merged = 0;       // overlap-buffer points reconciled
  uint64_t installs_aborted = 0;        // lost the install race, work dropped
  uint64_t nanos = 0;                   // wall time inside compaction passes

  void Merge(const CompactionStats& o) {
    runs += o.runs;
    series_compacted += o.series_compacted;
    pages_in += o.pages_in;
    pages_out += o.pages_out;
    pages_reencoded += o.pages_reencoded;
    bytes_in += o.bytes_in;
    bytes_out += o.bytes_out;
    deleted_points_dropped += o.deleted_points_dropped;
    tombstones_resolved += o.tombstones_resolved;
    ooo_points_merged += o.ooo_points_merged;
    installs_aborted += o.installs_aborted;
    nanos += o.nanos;
  }
  bool empty() const { return runs == 0 && installs_aborted == 0; }
};

/// Monotonic timestamp in nanoseconds (steady clock).
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Scoped stage timer. A null breakdown makes every member a no-op with no
/// clock read, so instrumented code compiles to a couple of predictable
/// branches when stats collection is off (PipelineOptions.collect_stats).
class ScopedStageTimer {
 public:
  ScopedStageTimer(StageBreakdown* breakdown, Stage stage)
      : breakdown_(breakdown),
        stage_(stage),
        start_(breakdown != nullptr ? NowNanos() : 0) {}
  ~ScopedStageTimer() { Stop(); }

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

  /// Ends the timed section early (destructor is then a no-op).
  void Stop() {
    if (breakdown_ == nullptr) return;
    StageStats& s = (*breakdown_)[stage_];
    s.nanos += NowNanos() - start_;
    ++s.calls;
    breakdown_ = nullptr;
  }

  void AddTuples(uint64_t n) {
    if (breakdown_ != nullptr) (*breakdown_)[stage_].tuples += n;
  }
  void AddBytes(uint64_t n) {
    if (breakdown_ != nullptr) (*breakdown_)[stage_].bytes += n;
  }

 private:
  StageBreakdown* breakdown_;
  Stage stage_;
  uint64_t start_;
};

}  // namespace etsqp::metrics

#endif  // ETSQP_COMMON_METRICS_H_
