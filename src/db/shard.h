#ifndef ETSQP_DB_SHARD_H_
#define ETSQP_DB_SHARD_H_

#include <memory>
#include <string>

#include "storage/buffer_manager.h"
#include "storage/compaction.h"
#include "storage/series_store.h"

namespace etsqp::db {

/// One slice of the database: a SeriesStore (with its own WAL when ingest
/// is enabled) and an optional file-backed TsFile attachment. Shards own no
/// synchronization of their own — the Database's engine reader/writer lock
/// covers file-store swaps, and the SeriesStore is internally synchronized
/// — so a Shard is plain data the database routes onto.
///
/// On-disk artifacts are namespaced per shard so several shards can live in
/// one directory: shard k of an N-shard database derives `<base>.shard<k>`
/// for TsFiles and WALs. A single-shard database uses the plain `<base>`
/// path.
struct Shard {
  explicit Shard(int index_in) : index(index_in) {}

  int index = 0;
  storage::SeriesStore store;
  std::unique_ptr<storage::FileBackedStore> file_store;
  /// Background compaction service (EnableCompaction); null = disabled.
  std::unique_ptr<storage::Compactor> compactor;

  /// `<base>` for a 1-shard database, `<base>.shard<k>` otherwise.
  static std::string ArtifactPath(const std::string& base, int shard,
                                  int num_shards) {
    if (num_shards <= 1) return base;
    return base + ".shard" + std::to_string(shard);
  }
};

}  // namespace etsqp::db

#endif  // ETSQP_DB_SHARD_H_
