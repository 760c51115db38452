#ifndef ETSQP_STORAGE_BUFFER_MANAGER_H_
#define ETSQP_STORAGE_BUFFER_MANAGER_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/page.h"
#include "storage/series_store.h"

namespace etsqp::storage {

/// Memory management (paper Section VI-C): "loading all queried pages in
/// memory is impossible ... the Apache IoTDB will load pages gradually based
/// on memory consumption and pipeline execution."
///
/// FileBackedStore indexes a TsFile's page *headers* at open time (cheap:
/// headers carry the statistics pruning needs) and loads page payloads on
/// demand through an LRU-bounded buffer pool. Pruned pages never touch the
/// pool — the header-only index is exactly what makes Propositions 4-5 save
/// I/O rather than just CPU.
class FileBackedStore {
 public:
  struct Options {
    /// Payload-byte budget of the buffer pool. 0 = unbounded.
    size_t memory_budget_bytes = 64 << 20;
  };

  struct SeriesIndex {
    std::string name;
    /// Header-only pages (empty payloads): the resident pruning statistics,
    /// handed out by GetSnapshot without copying.
    std::vector<Page> pages;
    std::vector<uint64_t> file_offsets;  // payload position of each page
    uint64_t total_points = 0;
  };

  struct Stats {
    uint64_t pages_loaded = 0;    // payload fetches from the file
    uint64_t pool_hits = 0;       // served from the buffer pool
    uint64_t pages_evicted = 0;   // LRU evictions
    size_t resident_bytes = 0;    // current pool occupancy
  };

  FileBackedStore() = default;
  ~FileBackedStore();
  FileBackedStore(const FileBackedStore&) = delete;
  FileBackedStore& operator=(const FileBackedStore&) = delete;

  /// Opens a TsFile (written by WriteTsFile) and indexes the page headers
  /// without loading payloads.
  Status Open(const std::string& path, const Options& options);
  Status Open(const std::string& path) { return Open(path, Options()); }

  std::vector<std::string> SeriesNames() const;
  Result<const SeriesIndex*> GetSeries(const std::string& name) const;

  /// A lazily loaded snapshot of `name` for query execution: the resident
  /// page headers (non-owning; valid while this store is open), no tail, no
  /// tombstones, no envelope, and a loader that fetches page payloads
  /// through LoadPage. Nothing is read from the file here.
  Result<SeriesSnapshot> GetSnapshot(const std::string& name);

  /// Returns the fully loaded page (payload fetched or served from the
  /// pool). The returned shared_ptr keeps the page alive across eviction.
  Result<std::shared_ptr<const Page>> LoadPage(const std::string& series,
                                               size_t page_index);

  Stats stats() const;

 private:
  struct CacheKey {
    std::string series;
    size_t index;
    bool operator<(const CacheKey& o) const {
      return series != o.series ? series < o.series : index < o.index;
    }
    bool operator==(const CacheKey& o) const {
      return series == o.series && index == o.index;
    }
  };

  struct PoolEntry {
    std::shared_ptr<const Page> page;
    std::list<CacheKey>::iterator lru;  // this entry's position in lru_
  };

  Result<std::shared_ptr<const Page>> LoadPage(const SeriesIndex& series,
                                               size_t page_index);
  void EvictIfNeeded();

  Options options_;
  std::string path_;
  std::FILE* file_ = nullptr;
  std::map<std::string, SeriesIndex> series_;

  mutable std::mutex mu_;
  std::map<CacheKey, PoolEntry> pool_;
  std::list<CacheKey> lru_;  // front = most recent
  Stats stats_;
};

}  // namespace etsqp::storage

#endif  // ETSQP_STORAGE_BUFFER_MANAGER_H_
