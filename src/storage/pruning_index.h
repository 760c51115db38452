#ifndef ETSQP_STORAGE_PRUNING_INDEX_H_
#define ETSQP_STORAGE_PRUNING_INDEX_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "simd/prune_simd.h"
#include "storage/page.h"

namespace etsqp::storage {

/// The per-shard pruning index: one conservative envelope per series over
/// (time_min, time_max, value_min, value_max), packed SoA and scanned with
/// the SIMD compare+mask kernels of simd/prune_simd.h. Envelopes cover
/// everything ever appended (pages, tail, OOO buffers) and only widen, so
/// deletes/TTL/compaction can never make them under-approximate. A fleet
/// probe ("which of 10^5 series can match") is one SIMD sweep over four
/// flat arrays instead of a per-series header walk, and every store
/// snapshot carries its series' envelope so the planner can skip a dead
/// input before touching a page header. Nothing is persisted: on load the
/// envelopes rebuild from page headers.
///
/// Value bounds live in a single int64 key domain so one integer kernel
/// covers both series types: integer series store raw values, float series
/// store OrderedValueKey() of their doubles. NaN data (or a NaN page
/// header bound) widens the value envelope to the full range — a NaN says
/// nothing about where a series' values lie. Entries are padded to the
/// 64-wide node fan-out with never-survive sentinels.

/// Order-preserving int64 key for a non-NaN double: key(a) < key(b) iff
/// a < b, with negative zero canonicalized to +0.0 so -0.0 == 0.0 survives
/// range boundaries. Callers must handle NaN themselves (see above).
inline int64_t OrderedValueKey(double v) {
  if (v == 0.0) v = 0.0;  // -0.0 -> +0.0
  int64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double is 8 bytes");
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits >= 0 ? bits : bits ^ std::numeric_limits<int64_t>::max();
}

/// The value bounds of `h` in the shared key domain. Returns false (and
/// writes the full-range never-prune sentinel) when the bounds are unusable
/// — a float header whose min/max bit-cast to NaN.
bool HeaderValueKeys(const PageHeader& h, bool is_float, int64_t* lo,
                     int64_t* hi);

/// The envelope of one series, copied onto SeriesSnapshot under the store
/// lock. Conservative: covers every point ever appended. A series with no
/// data yet has an inverted (empty) envelope.
struct SeriesSummary {
  int64_t time_min = std::numeric_limits<int64_t>::max();
  int64_t time_max = std::numeric_limits<int64_t>::min();
  int64_t value_min_key = std::numeric_limits<int64_t>::max();
  int64_t value_max_key = std::numeric_limits<int64_t>::min();
};

/// A fleet-level probe predicate. Bounds are inclusive; v_lo/v_hi are in
/// the integer domain and mapped into the float key domain per series.
struct PruneProbe {
  int64_t t_lo = std::numeric_limits<int64_t>::min();
  int64_t t_hi = std::numeric_limits<int64_t>::max();
  bool value_active = false;
  int64_t v_lo = 0;
  int64_t v_hi = 0;
};

struct PruneProbeStats {
  uint64_t series_total = 0;
  uint64_t series_matched = 0;
  uint64_t probe_nanos = 0;
};

/// The envelope table. NOT internally synchronized: SeriesStore mutates
/// it under its unique lock and probes it under its shared lock.
class PruningIndex {
 public:
  /// Registers a series; returns its slot. Slots are never reused.
  size_t AddSeries(std::string name, bool is_float);

  /// Widens the time envelope of `slot` to cover [t_min, t_max].
  void WidenTime(size_t slot, int64_t t_min, int64_t t_max);
  /// Widens the value envelope; k_min/k_max are already in the slot's key
  /// domain (raw int64 for integer series, OrderedValueKey for float).
  void WidenValue(size_t slot, int64_t k_min, int64_t k_max);
  /// NaN (or otherwise unboundable) data seen: the value envelope becomes
  /// the full range and the series can never again be value-pruned.
  void InvalidateValue(size_t slot);

  size_t size() const { return names_.size(); }
  const std::string& name(size_t slot) const { return names_[slot]; }
  SeriesSummary GetSummary(size_t slot) const;

  /// One SIMD sweep over all series envelopes; returns the matched count
  /// and, when `matched` is non-null, the surviving slots in slot order.
  PruneProbeStats CountMatching(const PruneProbe& probe, simd::PruneIsa isa,
                                std::vector<size_t>* matched = nullptr) const;

 private:
  std::vector<std::string> names_;
  // SoA envelopes padded to the 64-entry node width with dead sentinels.
  std::vector<int64_t> time_min_, time_max_, value_min_, value_max_;
  // Per-slot bit: float series (value envelope is in the key domain).
  std::vector<uint64_t> float_words_;
};

}  // namespace etsqp::storage

#endif  // ETSQP_STORAGE_PRUNING_INDEX_H_
