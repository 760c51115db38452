#ifndef ETSQP_STORAGE_WAL_H_
#define ETSQP_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace etsqp::storage {

class SeriesStore;

/// Per-store write-ahead log: the durability half of the streaming-ingest
/// subsystem (Figure 1's live traffic). Every acknowledged mutation —
/// series creation and point appends — is framed, checksummed, and written
/// to the log *before* it is applied to the in-memory store, so a crash
/// loses at most the records the fsync policy had not yet made durable.
///
/// Record framing (see docs/FORMAT.md):
///   u32 payload_len BE | u32 masked_crc32c(payload) BE | payload
///
/// Payload layout by leading type byte:
///   1 kCreateSeries  u8 time_enc | u8 value_enc | u32 page_size |
///                    u32 block_size | u16 name_len | name [| u8 flags]
///                    (flags bit 0 = allow_out_of_order; the byte is
///                    optional so pre-compaction logs replay unchanged)
///   2 kAppendInt     u16 name_len | name | u64 first_seq | u32 n |
///                    n x (i64 time | i64 value)
///   3 kAppendF64     u16 name_len | name | u64 first_seq | u32 n |
///                    n x (i64 time | u64 value_bits)
///   4 kDeleteRange   u16 name_len | name | i64 t0 | i64 t1
///                    (inclusive tombstone range, already fence-clamped)
///   5 kSetTtl        u16 name_len | name | i64 ttl_nanos
///   6 kAppendIntOoo  same layout as 2 — late points bound for the
///                    out-of-order overlap buffer
///   7 kAppendF64Ooo  same layout as 3, overlap-buffer variant
/// Replay routes types 6/7 to the overlap buffer by their type, not by the
/// replayed fence.
///
/// `first_seq` is the series' append sequence number (total points ever
/// appended) before the batch — it makes replay idempotent: records whose
/// points a checkpoint already covers are skipped, partially covered
/// records apply only their missing suffix. That is what keeps the
/// crash-between-checkpoint-save-and-log-truncate window safe.
///
/// Recovery (`ReplayInto`) scans the log from the start, applies every
/// record whose frame verifies through the store's live write bodies
/// (before the log is attached, so they log nothing), and stops at the
/// first torn or corrupt frame: the remainder is the unacknowledged tail of
/// a crashed writer and is truncated away so subsequent appends never
/// interleave with garbage.
///
/// Truncation (`Reset`) empties the log; the db layer calls it after a
/// checkpoint (Flush + TsFile save) makes the logged state durable
/// elsewhere.
///
/// Thread safety: all members are internally serialized; in practice the
/// owning SeriesStore already calls Append* under its store lock.
class Wal {
 public:
  enum class FsyncPolicy {
    kNever,   // rely on the OS page cache (benchmarks, tests)
    kBatch,   // group commit: fsync once 64 KiB are unsynced
    kAlways,  // fsync every record before acknowledging
  };

  /// Cumulative counters since Open (wal_* rows of metrics::IngestStats).
  struct Stats {
    uint64_t records = 0;
    uint64_t bytes = 0;       // framed bytes written
    uint64_t fsyncs = 0;
    uint64_t sync_nanos = 0;  // wall time spent inside fsync
    uint64_t resets = 0;
  };

  /// Opens (creating if absent) the log at `path` for appending. Call
  /// ReplayInto before the first Append when the file may hold records.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           FsyncPolicy fsync);
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Replays every intact record into `store` through its live write
  /// bodies (idempotently, see above), drops the torn/corrupt tail if any,
  /// and truncates the file to the valid prefix. A record whose frame
  /// verifies but which does not decode or apply is Corruption. `stats`
  /// (optional) reports what happened.
  struct ReplayStats {
    uint64_t records_applied = 0;
    uint64_t records_skipped = 0;   // fully covered by a checkpoint
    uint64_t records_dropped = 0;   // torn or corrupt tail records
    uint64_t bytes_dropped = 0;
    uint64_t points_applied = 0;
  };
  Status ReplayInto(SeriesStore* store, ReplayStats* stats);

  Status AppendCreateSeries(const std::string& name, uint8_t time_encoding,
                            uint8_t value_encoding, uint32_t page_size,
                            uint32_t block_size, uint8_t flags = 0);
  /// One point record: `values` are 64-bit words (a float series' doubles
  /// as their bit patterns). The type byte is 2/3 (int/float) for in-order
  /// points and 6/7 for `overlap` points bound for the out-of-order buffer.
  Status AppendPoints(const std::string& name, uint64_t first_seq,
                      const int64_t* times, const int64_t* values, size_t n,
                      bool is_float, bool overlap);
  /// Inclusive tombstone range [t0, t1] (fence-clamped by the store).
  Status AppendDeleteRange(const std::string& name, int64_t t0, int64_t t1);
  Status AppendSetTtl(const std::string& name, int64_t ttl_nanos);

  /// Forces an fsync of everything appended so far.
  Status Sync();

  /// Truncates the log to empty (after a checkpoint made it redundant).
  Status Reset();

  Stats stats() const;
  const std::string& path() const { return path_; }

 private:
  enum RecordType : uint8_t {
    kCreateSeries = 1,
    kAppendInt = 2,
    kAppendF64 = 3,
    kDeleteRange = 4,
    kSetTtl = 5,
    kAppendIntOoo = 6,
    kAppendF64Ooo = 7,
  };

  Wal(std::string path, int fd, FsyncPolicy fsync);

  /// Frames `payload` and appends it; applies the fsync policy.
  Status AppendRecord(const std::vector<uint8_t>& payload);
  Status SyncLocked();

  const std::string path_;
  const FsyncPolicy fsync_;
  mutable std::mutex mu_;
  int fd_ = -1;
  size_t unsynced_bytes_ = 0;
  Stats stats_;
};

}  // namespace etsqp::storage

#endif  // ETSQP_STORAGE_WAL_H_
