#ifndef ETSQP_DB_RESULT_CACHE_H_
#define ETSQP_DB_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "exec/expr.h"

namespace etsqp::db {

/// LRU cache of query results keyed on (plan signature, per-input series
/// data epoch, shard layout). The epoch (SeriesSnapshot::epoch) advances on
/// every acknowledged append, background-seal install, replay, and page
/// load, so invalidation is implicit: a mutation changes the key that
/// subsequent identical queries compute, the old entry simply never hits
/// again and ages out of the LRU list. That keeps the cache cheap — no
/// per-entry dependency tracking, no invalidation fan-out on the (hot)
/// ingest path.
///
/// Bounded by a byte budget (estimated per entry: result columns + key +
/// bookkeeping). Insert evicts from the cold end until the new entry fits;
/// entries larger than the budget are not admitted. Internally synchronized;
/// a zero budget disables the cache entirely (Lookup always misses, Insert
/// is a no-op), which is the Database default.
class ResultCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
    uint64_t budget_bytes = 0;
  };

  explicit ResultCache(size_t budget_bytes) : budget_(budget_bytes) {}

  bool enabled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return budget_ > 0;
  }

  /// On hit, copies the cached result into `out` (stats cleared at insert
  /// time except result_tuples) and refreshes the entry's LRU position.
  /// Counts a hit or miss either way.
  bool Lookup(const std::string& key, exec::QueryResult* out);

  /// Hit/miss accounting without returning the entry — EXPLAIN ANALYZE
  /// probes the cache but always executes so it has a profile to render.
  bool Probe(const std::string& key);

  /// Admits `result` under `key` (replacing any existing entry), evicting
  /// cold entries until it fits. Returns the number of entries evicted by
  /// this insert; oversized results (entry > budget) are not admitted.
  uint64_t Insert(const std::string& key, const exec::QueryResult& result);

  /// Drops everything (reshard, explicit `.cache clear`).
  void Clear();

  void SetBudget(size_t budget_bytes);

  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    exec::QueryResult result;
    size_t bytes = 0;
  };

  static size_t EntryBytes(const std::string& key,
                           const exec::QueryResult& result);
  /// Unlinks the cold end. Caller holds mu_.
  void EvictOneLocked();

  mutable std::mutex mu_;
  size_t budget_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  std::list<Entry> lru_;  // front = hottest
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace etsqp::db

#endif  // ETSQP_DB_RESULT_CACHE_H_
