#include "storage/buffer_manager.h"

#include <algorithm>
#include <cstdio>

#include "common/bitstream.h"

namespace etsqp::storage {

namespace {

constexpr uint32_t kMagicV1 = 0x45545351;  // 'ETSQ' (matches tsfile.h)
constexpr uint32_t kMagicV2 = 0x45545352;  // 'ETSR'
constexpr size_t kPageHeaderBytes = 4 + 2 + 32 + 8;

Status ReadExact(std::FILE* f, uint8_t* buf, size_t n) {
  if (std::fread(buf, 1, n, f) != n) {
    return Status::IoError("tsfile: short read");
  }
  return Status::Ok();
}

Status ParsePageHeader(const uint8_t* p, PageHeader* h) {
  h->count = GetFixed32BE(p);
  h->time_encoding = static_cast<enc::ColumnEncoding>(p[4]);
  h->value_encoding = static_cast<enc::ColumnEncoding>(p[5]);
  h->min_time = static_cast<int64_t>(GetFixed64BE(p + 6));
  h->max_time = static_cast<int64_t>(GetFixed64BE(p + 14));
  h->min_value = static_cast<int64_t>(GetFixed64BE(p + 22));
  h->max_value = static_cast<int64_t>(GetFixed64BE(p + 30));
  h->time_bytes = GetFixed32BE(p + 38);
  h->value_bytes = GetFixed32BE(p + 42);
  return Status::Ok();
}

}  // namespace

FileBackedStore::~FileBackedStore() {
  if (file_ != nullptr) std::fclose(file_);
}

Status FileBackedStore::Open(const std::string& path,
                             const Options& options) {
  options_ = options;
  path_ = path;
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) return Status::IoError("open: " + path);

  uint8_t buf[kPageHeaderBytes];
  ETSQP_RETURN_IF_ERROR(ReadExact(file_, buf, 8));
  uint32_t magic = GetFixed32BE(buf);
  if (magic != kMagicV1 && magic != kMagicV2) {
    return Status::Corruption("tsfile: bad magic");
  }
  const bool v2 = magic == kMagicV2;
  uint32_t num_series = GetFixed32BE(buf + 4);
  for (uint32_t i = 0; i < num_series; ++i) {
    ETSQP_RETURN_IF_ERROR(ReadExact(file_, buf, 4));
    uint32_t name_len = GetFixed32BE(buf);
    if (name_len > 4096) return Status::Corruption("tsfile: name length");
    std::string name(name_len, '\0');
    if (std::fread(name.data(), 1, name_len, file_) != name_len) {
      return Status::IoError("tsfile: short read");
    }
    if (v2) {
      // flags(1) + appended_points(8) + ttl(8); the gradual loader serves
      // pages verbatim with no masking path, so a file carrying unresolved
      // deletes, TTL, or overlap points must go through a full load instead.
      ETSQP_RETURN_IF_ERROR(ReadExact(file_, buf, 17));
      int64_t ttl = static_cast<int64_t>(GetFixed64BE(buf + 9));
      ETSQP_RETURN_IF_ERROR(ReadExact(file_, buf, 4));
      uint32_t num_tombstones = GetFixed32BE(buf);
      if (num_tombstones != 0 || ttl != 0) {
        return Status::NotSupported(
            "tsfile: series " + name +
            " has unresolved deletes/TTL; open it via a full load");
      }
      ETSQP_RETURN_IF_ERROR(ReadExact(file_, buf, 4));
      uint32_t num_ooo = GetFixed32BE(buf);
      if (num_ooo != 0) {
        return Status::NotSupported(
            "tsfile: series " + name +
            " has unreconciled out-of-order points; open it via a full load");
      }
    }
    ETSQP_RETURN_IF_ERROR(ReadExact(file_, buf, 4));
    uint32_t num_pages = GetFixed32BE(buf);
    SeriesIndex index;
    index.name = name;
    for (uint32_t p = 0; p < num_pages; ++p) {
      // Index the header; skip the payload (gradual loading).
      Page page;
      if (v2) {
        ETSQP_RETURN_IF_ERROR(ReadExact(file_, buf, 2));
        page.header.level = buf[0];
        page.header.tier = buf[1];
      }
      ETSQP_RETURN_IF_ERROR(ReadExact(file_, buf, kPageHeaderBytes));
      ETSQP_RETURN_IF_ERROR(ParsePageHeader(buf, &page.header));
      long pos = std::ftell(file_);
      if (pos < 0) return Status::IoError("tsfile: ftell");
      index.file_offsets.push_back(static_cast<uint64_t>(pos));
      index.total_points += page.header.count;
      uint64_t payload = static_cast<uint64_t>(page.header.time_bytes) +
                         page.header.value_bytes;
      if (std::fseek(file_, static_cast<long>(payload), SEEK_CUR) != 0) {
        return Status::Corruption("tsfile: payload seek");
      }
      index.pages.push_back(std::move(page));
    }
    series_.emplace(name, std::move(index));
  }
  return Status::Ok();
}

std::vector<std::string> FileBackedStore::SeriesNames() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, unused] : series_) names.push_back(name);
  return names;
}

Result<const FileBackedStore::SeriesIndex*> FileBackedStore::GetSeries(
    const std::string& name) const {
  auto it = series_.find(name);
  if (it == series_.end()) return Status::NotFound("series: " + name);
  return &it->second;
}

Result<SeriesSnapshot> FileBackedStore::GetSnapshot(const std::string& name) {
  auto it = series_.find(name);
  if (it == series_.end()) return Status::NotFound("series: " + name);
  const SeriesIndex& index = it->second;
  SeriesSnapshot snap;
  snap.name = name;
  // A series keeps one value type across all its pages (compaction
  // re-encodes only within the integer or the float codec family).
  snap.is_float = !index.pages.empty() &&
                  enc::IsFloatEncoding(index.pages[0].header.value_encoding);
  // Aliasing an empty owner: the headers live as long as the store, and
  // copying a snapshot touches no reference count.
  snap.pages.reserve(index.pages.size());
  for (const Page& page : index.pages) {
    snap.pages.emplace_back(std::shared_ptr<const Page>(), &page);
  }
  snap.load_page = [this, &index](size_t p) { return LoadPage(index, p); };
  return snap;
}

Result<std::shared_ptr<const Page>> FileBackedStore::LoadPage(
    const std::string& series, size_t page_index) {
  auto it = series_.find(series);
  if (it == series_.end()) return Status::NotFound("series: " + series);
  return LoadPage(it->second, page_index);
}

Result<std::shared_ptr<const Page>> FileBackedStore::LoadPage(
    const SeriesIndex& series, size_t page_index) {
  if (page_index >= series.pages.size()) {
    return Status::OutOfRange("page index");
  }
  const PageHeader& header = series.pages[page_index].header;
  CacheKey key{series.name, page_index};

  std::lock_guard<std::mutex> lock(mu_);
  auto hit = pool_.find(key);
  if (hit != pool_.end()) {
    ++stats_.pool_hits;
    lru_.splice(lru_.begin(), lru_, hit->second.lru);
    return hit->second.page;
  }

  // Fetch the payload from the file.
  if (std::fseek(file_, static_cast<long>(series.file_offsets[page_index]),
                 SEEK_SET) != 0) {
    return Status::IoError("tsfile: seek");
  }
  auto page = std::make_shared<Page>();
  page->header = header;
  std::vector<uint8_t> payload(static_cast<size_t>(header.time_bytes) +
                               header.value_bytes);
  ETSQP_RETURN_IF_ERROR(ReadExact(file_, payload.data(), payload.size()));
  page->time_data.Assign(payload.data(), header.time_bytes);
  page->value_data.Assign(payload.data() + header.time_bytes,
                          header.value_bytes);
  // A corrupt column fails here, before the page enters the pool.
  ETSQP_RETURN_IF_ERROR(ParsePage(page.get()));
  ++stats_.pages_loaded;
  stats_.resident_bytes += payload.size();
  lru_.push_front(key);
  pool_.emplace(std::move(key), PoolEntry{page, lru_.begin()});
  EvictIfNeeded();
  return std::shared_ptr<const Page>(page);
}

void FileBackedStore::EvictIfNeeded() {
  if (options_.memory_budget_bytes == 0) return;
  while (stats_.resident_bytes > options_.memory_budget_bytes &&
         lru_.size() > 1) {
    CacheKey victim = lru_.back();
    lru_.pop_back();
    auto it = pool_.find(victim);
    if (it != pool_.end()) {
      stats_.resident_bytes -= it->second.page->encoded_bytes();
      pool_.erase(it);
      ++stats_.pages_evicted;
    }
  }
}

FileBackedStore::Stats FileBackedStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace etsqp::storage
