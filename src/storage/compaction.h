#ifndef ETSQP_STORAGE_COMPACTION_H_
#define ETSQP_STORAGE_COMPACTION_H_

#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/codec_advisor.h"
#include "storage/series_store.h"

namespace etsqp::storage {

/// One shard's background compaction service. A pass over a series:
///
///  1. captures the sealed pages + tombstones + overlap buffer under one
///     lock acquisition (SeriesStore::BeginCompaction, which also takes the
///     per-series compacting flag);
///  2. plans off-lock: pages are dirty when a tombstone overlaps them, an
///     overlap-buffer point lands in them, they hold under half the
///     series' page_size, or (first pass only) the advisor has never seen
///     them; the dirty hull becomes one contiguous rewrite span;
///  3. rewrites off-lock: decode the span, drop tombstoned points, merge
///     the reconcilable overlap prefix (late updates win on duplicate
///     timestamps), re-chunk to the series' page_size, and re-encode each
///     chunk with the advisor's pick (CodecAdvisor);
///  4. installs atomically (SeriesStore::InstallCompaction): pointer-
///     identity-validated splice + epoch bump, so concurrent queries keep
///     serving the old pages until the swap and cached results invalidate
///     implicitly. A lost race costs only the discarded rewrite.
///
/// Queries and ingest run concurrently with all four steps; only 1 and 4
/// touch the store lock. Compaction is deliberately not WAL-logged: after a
/// crash, replay rebuilds the pre-compaction pages and the tombstones
/// re-mask them — the pass is a recoverable optimization, not state.
///
/// Thread safety: passes for different series may run concurrently from
/// multiple Compactor methods; per-series mutual exclusion comes from the
/// store's compacting flag (a busy series is skipped, not waited on).
class Compactor {
 public:
  explicit Compactor(SeriesStore* store) : store_(store) {}

  /// One pass over `name`. Ok when there was nothing to do or the series
  /// is already being compacted; errors only on real failures.
  Status CompactSeries(const std::string& name);

  /// One pass over every series of the store.
  Status CompactAll();

  metrics::CompactionStats stats() const;

 private:
  Status RunPass(const std::string& name, metrics::CompactionStats* pass);
  void MergeStats(const metrics::CompactionStats& pass);

  SeriesStore* store_;
  CodecAdvisor advisor_;
  mutable std::mutex mu_;
  metrics::CompactionStats stats_;
};

}  // namespace etsqp::storage

#endif  // ETSQP_STORAGE_COMPACTION_H_
