#ifndef ETSQP_STORAGE_SERIES_STORE_H_
#define ETSQP_STORAGE_SERIES_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/page_builder.h"
#include "storage/wal.h"

namespace etsqp::storage {

/// An inclusive [lo, hi] timestamp interval — the tombstone unit recorded by
/// DeleteRange / TTL expiry. Sets of intervals are kept sorted by lo and
/// disjoint (AddInterval merges overlaps), so membership is a binary search.
struct TimeInterval {
  int64_t lo = 0;
  int64_t hi = 0;
};

/// Merges `add` into the sorted, disjoint set in place.
void AddInterval(std::vector<TimeInterval>* set, TimeInterval add);
/// True when `t` falls inside any interval of the sorted, disjoint set.
bool IntervalsContain(const std::vector<TimeInterval>& set, int64_t t);
/// True when [lo, hi] intersects any interval of the set.
bool IntervalsOverlap(const std::vector<TimeInterval>& set, int64_t lo,
                      int64_t hi);
/// True when one interval of the set contains all of [lo, hi].
bool IntervalsCover(const std::vector<TimeInterval>& set, int64_t lo,
                    int64_t hi);

/// A point-in-time view of one series for query execution: the sealed
/// encoded pages (shared, immutable) plus a copy of the unsealed in-memory
/// tail. Snapshots are consistent — pages and tail are captured under one
/// lock acquisition, so a query sees every acknowledged point exactly once
/// regardless of concurrent appends or background seals. Tail min/max are
/// computed at capture so pruning can short-circuit the tail the same way
/// page-header stats short-circuit sealed pages.
struct SeriesSnapshot {
  std::string name;
  PageOptions page_options;
  bool is_float = false;
  /// Data epoch at capture: the series' mutation counter, advanced by every
  /// acknowledged append, page seal install, replay, and AddPage. Two
  /// snapshots of the same series with equal epochs saw identical data, so
  /// (series, time range, epoch) is a sound result-cache key — any tail
  /// advance or background seal bumps it and implicitly invalidates cached
  /// results (db/result_cache.h).
  uint64_t epoch = 0;
  std::vector<std::shared_ptr<const Page>> pages;
  /// Effective tombstones at capture: explicit DeleteRange intervals merged
  /// with the TTL cutoff, sorted and disjoint. The tail arrays below are
  /// already filtered against them; sealed pages are NOT — the exec layer
  /// masks them (fully covered pages prune, partially covered pages drain
  /// through a decode-and-filter path). Empty for most series, so the
  /// masking paths cost nothing when no deletes exist.
  std::vector<TimeInterval> tombstones;
  // Unsealed tail (pending-seal segments + active buffer, in time order).
  std::vector<int64_t> tail_times;
  std::vector<int64_t> tail_values;      // int series
  std::vector<double> tail_values_f64;   // float series
  // Tail statistics (valid only when tail_times is non-empty). Times are
  // strictly increasing, so min/max time are the ends of tail_times.
  int64_t tail_min_value = 0;
  int64_t tail_max_value = 0;
  double tail_min_value_f64 = 0;
  double tail_max_value_f64 = 0;
  /// Payload loader of a lazily loaded snapshot (FileBackedStore): `pages`
  /// then hold headers only, and page p's payload comes from load_page(p)
  /// through the store's buffer pool. Empty when the pages are resident.
  /// Valid only while the issuing store is.
  std::function<Result<std::shared_ptr<const Page>>(size_t)> load_page;

  bool lazy() const { return static_cast<bool>(load_page); }
  bool has_tail() const { return !tail_times.empty(); }
  int64_t tail_min_time() const { return tail_times.front(); }
  int64_t tail_max_time() const { return tail_times.back(); }
  uint64_t total_points() const {
    uint64_t n = tail_times.size();
    for (const auto& p : pages) n += p->header.count;
    return n;
  }
};

/// In-memory series catalog mirroring the IoTDB storage model (paper Section
/// III-C): each time series is a sequence of separately encoded pages fed by
/// a per-series ingestion buffer — the "receiving buffer filled -> flush
/// encoded blocks" behaviour of Figure 1. This is the hub of the streaming
/// ingest subsystem (docs/ARCHITECTURE.md "Ingest lifecycle"):
///
///  - Appends are validated (times strictly increasing per Definition 1;
///    out-of-order or duplicate timestamps are rejected whole-batch with
///    InvalidArgument), logged to the attached WAL if any, then buffered.
///  - The buffered tail is queryable immediately via GetSnapshot — no Flush
///    needed for read-your-writes.
///  - When the buffer reaches page_size the segment seals into an encoded
///    page: inline by default, or off-thread when background sealing is
///    enabled (SetBackgroundSeal) so encoding stays off the ingest path.
///    Both run one encode and install segments in order from one place.
///  - Buffers, seal segments and the overlap buffer hold one int64 word per
///    value: the value itself, or a float's bit pattern (the WAL and TsFile
///    v2 write the same word). Values become typed only at a codec and in
///    the snapshot tail.
///  - All public methods are internally synchronized; concurrent Append and
///    GetSnapshot from different threads is a supported, tested contract.
///
/// GetSeries returns a pointer into the catalog and is NOT stable under
/// concurrent mutation; it exists for single-threaded inspection (tests,
/// tools, benches). Query execution uses GetSnapshot.
class SeriesStore {
 public:
  struct SeriesOptions {
    PageOptions page;
    uint32_t page_size = 4096;  // points per page
    /// Accepts appends at or below the ordering fence: the late prefix of a
    /// batch lands in a WAL-logged overlap buffer, invisible to queries,
    /// until a compaction pass reconciles it into the sealed pages
    /// (last-write-wins on duplicate timestamps). Off by default — strict
    /// Definition 1 ordering stays the contract unless opted into.
    bool allow_out_of_order = false;
  };

  /// A buffer segment handed to the sealer. The encode runs inline or on a
  /// pool task; install happens in deque order so pages always land in
  /// time order even when background encodes finish out of order.
  struct SealSegment {
    std::vector<int64_t> times;
    std::vector<int64_t> values;        // value words
    bool ready = false;                 // encode finished (page or error)
    std::shared_ptr<const Page> page;   // set on success
    Status error = Status::Ok();        // set on failure (sticky via Series)
  };

  struct Series {
    std::string name;
    SeriesOptions options;
    std::vector<std::shared_ptr<const Page>> pages;
    // Ingestion buffer: the active (newest) part of the queryable tail.
    std::vector<int64_t> buf_times;
    std::vector<int64_t> buf_values;  // value words
    // Segments cut from the buffer, waiting for their encode + in-order
    // install. Older than buf_*, newer than pages.
    std::deque<std::shared_ptr<SealSegment>> sealing;
    uint64_t total_points = 0;     // sealed points
    uint64_t appended_points = 0;  // ever-acknowledged points (WAL seq)
    uint64_t epoch = 0;  // mutation counter (appends, seal installs, loads)
    int64_t last_time = INT64_MIN;  // ordering fence (Definition 1)
    Status seal_error = Status::Ok();  // sticky seal failure
    // Tombstones: sorted, disjoint deleted [lo,hi] ranges (DeleteRange).
    // Masked at query time, physically dropped at compaction.
    std::vector<TimeInterval> tombstones;
    int64_t ttl_nanos = 0;  // 0 = none; cut = last_time - ttl_nanos
    // Out-of-order overlap buffer (allow_out_of_order series): points at or
    // below the fence, sorted by time, duplicates resolved last-write-wins.
    // Invisible to queries until compaction reconciles them into pages.
    std::vector<int64_t> ooo_times;
    std::vector<int64_t> ooo_values;  // value words
    bool compacting = false;  // at most one in-flight compaction per series

    bool is_float() const {
      return enc::IsFloatEncoding(options.page.value_encoding);
    }
  };

  /// Hands a closure to an executor (exec::ThreadPool via the db layer —
  /// injected as a function so storage does not link exec).
  using TaskSubmitter = std::function<void(std::function<void()>)>;

  SeriesStore();
  ~SeriesStore() = default;
  SeriesStore(SeriesStore&& o) noexcept;
  SeriesStore& operator=(SeriesStore&& o) noexcept;
  SeriesStore(const SeriesStore&) = delete;
  SeriesStore& operator=(const SeriesStore&) = delete;

  /// InvalidArgument when a page column may not hold the series' time or
  /// value encoding (enc::IsPageEncoding). WAL replay runs this same body.
  Status CreateSeries(const std::string& name, const SeriesOptions& options);

  /// Appends one point; seals a page when the buffer fills. Rejects
  /// non-monotone timestamps (time must exceed the series' newest time).
  Status Append(const std::string& name, int64_t time, int64_t value);

  /// Bulk append: all-or-nothing. The whole batch is validated (strictly
  /// increasing, first time past the series fence) before any point is
  /// logged or buffered.
  Status AppendBatch(const std::string& name, const int64_t* times,
                     const int64_t* values, size_t n);

  /// Float-series append (the series must use a float value encoding).
  Status AppendF64(const std::string& name, int64_t time, double value);
  Status AppendBatchF64(const std::string& name, const int64_t* times,
                        const double* values, size_t n);

  /// Seals any buffered points of `name` (all series when name is empty)
  /// into pages, waiting out in-flight background seals so pages land in
  /// time order. After Flush the tail is empty.
  Status Flush(const std::string& name = "");

  /// Installs an already-built page (used by TsFile loading). Advances the
  /// ordering fence to the page's max time.
  Status AddPage(const std::string& name, Page page);

  /// Captures a consistent sealed+tail view for query execution.
  Result<SeriesSnapshot> GetSnapshot(const std::string& name) const;

  bool HasSeries(const std::string& name) const;
  Result<const Series*> GetSeries(const std::string& name) const;
  std::vector<std::string> SeriesNames() const;

  /// Total encoded bytes across all pages of `name` (compression metric).
  uint64_t EncodedBytes(const std::string& name) const;

  /// Current data epoch of `name` (0 when the series does not exist): the
  /// counter captured into SeriesSnapshot::epoch. Cheap — one shared-lock
  /// map lookup — so result-cache key construction costs no snapshot.
  uint64_t SeriesEpoch(const std::string& name) const;

  // --- TTL / delete (tombstones) -----------------------------------------

  /// Deletes the inclusive time range [t0, t1] from `name`. The range is
  /// clamped to data the series has actually seen (hi <= current fence), so
  /// strictly-newer future appends are never masked and replay — which sees
  /// the same fence at the same log position — is deterministic. The
  /// tombstone is WAL-logged, masked out of every snapshot immediately, and
  /// physically dropped by a later compaction pass. Deleting an empty or
  /// all-future range is a no-op.
  Status DeleteRange(const std::string& name, int64_t t0, int64_t t1);

  /// Sets (0 clears) the retention window: points older than
  /// `last_time - ttl_nanos` are masked like a tombstone. The cut is
  /// measured against the series' own newest timestamp, not the wall clock,
  /// so visibility is deterministic under WAL replay.
  Status SetTtl(const std::string& name, int64_t ttl_nanos);

  /// Explicit tombstone ranges (no TTL folded in); empty if no series.
  std::vector<TimeInterval> Tombstones(const std::string& name) const;
  int64_t Ttl(const std::string& name) const;
  /// Points waiting in the out-of-order overlap buffer.
  uint64_t OooPoints(const std::string& name) const;

  // --- Compaction handshake (storage::Compactor drives these) ------------

  /// Everything one compaction pass needs, captured under a single lock
  /// acquisition. Captured page pointers stay valid *at their indices*
  /// until Install/Abort: appends only ever push_back, and the `compacting`
  /// flag serializes passes per series.
  struct CompactionCapture {
    std::string name;
    SeriesOptions options;
    bool is_float = false;
    std::vector<std::shared_ptr<const Page>> pages;
    std::vector<TimeInterval> tombstones;  // effective (TTL folded in)
    std::vector<TimeInterval> explicit_tombstones;  // as stored
    std::vector<int64_t> ooo_times;
    std::vector<int64_t> ooo_values;  // value words
    int64_t sealed_max_time = INT64_MIN;  // max page time at capture
    bool tail_empty = true;               // no buffered/pending points
  };

  /// Marks `name` compacting and fills `out`. FailedPrecondition when a
  /// pass is already in flight for the series.
  Status BeginCompaction(const std::string& name, CompactionCapture* out);

  struct CompactionInstall {
    /// Replace captured pages [replace_begin, replace_end) ...
    size_t replace_begin = 0;
    size_t replace_end = 0;
    /// ... with these (may be empty: a fully deleted span just vanishes).
    std::vector<std::shared_ptr<const Page>> new_pages;
    /// Overlap-buffer points the rewrite merged, identified by (time,
    /// value word): points that changed since capture (late update) stay
    /// buffered for the next pass, preserving last-write-wins.
    size_t ooo_consumed = 0;  // prefix length of the captured OOO arrays
    /// Captured explicit tombstones now physically applied; removed from
    /// the series if still present verbatim (a concurrent DeleteRange that
    /// grew one keeps the merged range masked — conservative, correct).
    std::vector<TimeInterval> tombstones_resolved;
  };

  /// Atomically swaps the rewritten page range in, trims the consumed
  /// overlap-buffer points and resolved tombstones, bumps the series epoch
  /// (implicitly invalidating cached results), and clears `compacting`.
  /// Returns Aborted — installing nothing — when the series vanished or the
  /// captured pages are no longer pointer-identical at their indices.
  Status InstallCompaction(const CompactionCapture& capture,
                           CompactionInstall install);
  void AbortCompaction(const std::string& name);

  /// TsFile-v2 load hook: restores persisted delete/TTL/out-of-order state
  /// after the series' pages are installed, and overwrites the derived
  /// append-sequence fence with the persisted one — compaction drops points
  /// physically, so page counts alone under-count the WAL sequence.
  Status RestoreSeriesMeta(const std::string& name, uint64_t appended_points,
                           int64_t ttl_nanos,
                           std::vector<TimeInterval> tombstones,
                           std::vector<int64_t> ooo_times,
                           std::vector<int64_t> ooo_values);

  // --- Streaming ingest subsystem ---------------------------------------

  /// Attaches a write-ahead log: every subsequent CreateSeries/Append* is
  /// framed into `wal` before it mutates the store. Call Wal::ReplayInto
  /// (via the db layer's Recover) before attaching so existing records are
  /// applied first.
  void AttachWal(std::unique_ptr<Wal> wal);
  Wal* wal() const;

  /// Enables (or disables) off-thread page sealing. `submit` runs a closure
  /// on an executor; tasks hold the store's shared state so they stay safe
  /// even if the store is destroyed first, but callers must drain their
  /// executor before dropping it (Database keys this to a TaskGroup).
  void SetBackgroundSeal(bool enabled, TaskSubmitter submit);

  /// Snapshot of the ingest counters (WAL counters merged in).
  metrics::IngestStats ingest_stats() const;

  /// Points ever acknowledged for `name` (the WAL sequence fence); 0 when
  /// the series does not exist.
  uint64_t AppendedPoints(const std::string& name) const;

  // --- WAL replay (Wal::ReplayInto) -------------------------------------
  //
  // Replay runs before AttachWal, through the live bodies: series creation
  // and TTL records call CreateSeries/SetTtl, and the two calls below run
  // the append and delete bodies without advancing the live-write counters
  // (points_appended, append_batches, ooo_points, delete_ranges).

  /// Applies one point record. Points a checkpoint already holds (below
  /// the series' append sequence) are skipped, so only the missing suffix
  /// applies; a record starting past the sequence is a gap. An `overlap`
  /// record (WAL types 6/7) merges into the overlap buffer.
  Status ReplayPoints(const std::string& name, uint64_t first_seq,
                      const int64_t* times, const int64_t* values, size_t n,
                      bool is_float, bool overlap, size_t* points_applied);
  Status ReplayDeleteRange(const std::string& name, int64_t t0, int64_t t1);

 private:
  /// All synchronized state lives behind one shared_ptr so (a) the store
  /// stays movable (benches return stores by value) and (b) background
  /// seal tasks outlive any particular SeriesStore shell.
  struct State {
    mutable std::shared_mutex mu;
    std::condition_variable_any seal_cv;  // signals segment installs
    std::map<std::string, Series> series;
    std::unique_ptr<Wal> wal;
    bool background_seal = false;
    TaskSubmitter submit;
    metrics::IngestStats ingest;
  };

  /// The series `name` when its value type is `is_float`.
  static Result<Series*> FindLocked(State* st, const std::string& name,
                                    bool is_float);
  /// Live append of one batch of value words: validates the ordering,
  /// splits a late prefix off on allow_out_of_order series, and counts.
  Status AppendWords(const std::string& name, const int64_t* times,
                     const int64_t* values, size_t n, bool is_float);
  /// The write body of live appends and replay: the first `late` points
  /// merge into the overlap buffer, the rest append to the buffer and seal
  /// full pages. Each part is logged first when a WAL is attached.
  Status WriteLocked(State* st, Series* s, const int64_t* times,
                     const int64_t* values, size_t n, size_t late);
  /// Merges a sorted late batch into the overlap buffer, last-write-wins.
  static void MergeOooLocked(Series* s, const int64_t* times,
                             const int64_t* values, size_t n);
  /// The delete body of DeleteRange and replay.
  static Status DeleteRangeLocked(State* st, Series* s, int64_t t0,
                                  int64_t t1);
  /// Explicit tombstones merged with the TTL cutoff (sorted, disjoint).
  static std::vector<TimeInterval> EffectiveTombstones(const Series& s);
  /// Cuts the full buffer into a segment and seals it (inline or via the
  /// executor). Caller holds the unique lock.
  Status SealBufferLocked(State* st, Series* s);
  /// Installs every ready segment at the front of s->sealing, in order:
  /// the one install site of pages sealed from the buffer.
  static void DrainReadySegmentsLocked(State* st, Series* s);
  static void EncodeSegment(SealSegment* seg, const PageOptions& options);

  std::shared_ptr<State> state_;
};

}  // namespace etsqp::storage

#endif  // ETSQP_STORAGE_SERIES_STORE_H_
