#include "storage/tsfile.h"

#include <cstdio>

#include "common/bitstream.h"
#include "storage/page.h"

namespace etsqp::storage {

namespace {
// Sanity bound for ReadTsFile: series names are dotted identifiers. A
// serialized page is never smaller than its fixed header (kPageHeaderBytes).
constexpr uint32_t kMaxNameLen = 4096;

constexpr uint8_t kFlagAllowOutOfOrder = 1u << 0;
constexpr uint8_t kFlagFloatSeries = 1u << 1;
constexpr uint8_t kKnownFlags = kFlagAllowOutOfOrder | kFlagFloatSeries;

/// True when `s` carries state the v1 layout cannot express. Writing v1
/// whenever possible keeps checkpoints of never-compacted stores
/// byte-identical to what pre-compaction builds produced.
bool NeedsV2(const SeriesStore::Series& s) {
  if (s.options.allow_out_of_order || !s.tombstones.empty() ||
      s.ttl_nanos != 0 || !s.ooo_times.empty()) {
    return true;
  }
  if (s.appended_points != s.total_points) return true;  // compaction dropped
  for (const auto& page : s.pages) {
    if (page->header.level != 0 || page->header.tier != 0) return true;
  }
  return false;
}

Status WriteAll(const std::vector<uint8_t>& out, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("open for write: " + path);
  size_t written = std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  if (written != out.size()) return Status::IoError("short write: " + path);
  return Status::Ok();
}

/// Bounds-checked big-endian cursor over the loaded file image.
struct Reader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  size_t remaining() const { return size - pos; }
  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = data[pos++];
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = GetFixed32BE(data + pos);
    pos += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (remaining() < 8) return false;
    *v = GetFixed64BE(data + pos);
    pos += 8;
    return true;
  }
  bool ReadI64(int64_t* v) {
    uint64_t u;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
};

Status ReadSeriesName(Reader* r, std::string* name) {
  uint32_t name_len;
  if (!r->ReadU32(&name_len)) return Status::Corruption("tsfile: truncated");
  if (name_len > kMaxNameLen) {
    return Status::Corruption("tsfile: name length " +
                              std::to_string(name_len) + " exceeds limit");
  }
  if (r->remaining() < name_len) return Status::Corruption("tsfile: truncated");
  name->assign(reinterpret_cast<const char*>(r->data + r->pos), name_len);
  r->pos += name_len;
  return Status::Ok();
}

Status ReadV1Series(Reader* r, SeriesStore* store) {
  std::string name;
  ETSQP_RETURN_IF_ERROR(ReadSeriesName(r, &name));
  uint32_t num_pages;
  if (!r->ReadU32(&num_pages)) return Status::Corruption("tsfile: truncated");
  // A serialized page is at least its fixed header; bound the count before
  // looping so a flipped length fails fast and cleanly.
  if (static_cast<uint64_t>(num_pages) * kPageHeaderBytes >
      r->remaining()) {
    return Status::Corruption("tsfile: page count for series " + name +
                              " exceeds file size");
  }
  std::vector<Page> pages;
  pages.reserve(num_pages);
  for (uint32_t p = 0; p < num_pages; ++p) {
    Page page;
    ETSQP_RETURN_IF_ERROR(DeserializePage(r->data, r->size, &r->pos, &page));
    pages.push_back(std::move(page));
  }
  // Derive the series options from the first page so loaded series keep
  // their value type (float encodings) and encoding configuration.
  SeriesStore::SeriesOptions opt;
  if (!pages.empty()) {
    opt.page.time_encoding = pages[0].header.time_encoding;
    opt.page.value_encoding = pages[0].header.value_encoding;
  }
  ETSQP_RETURN_IF_ERROR(store->CreateSeries(name, opt));
  for (Page& page : pages) {
    ETSQP_RETURN_IF_ERROR(store->AddPage(name, std::move(page)));
  }
  return Status::Ok();
}

Status ReadV2Series(Reader* r, SeriesStore* store) {
  std::string name;
  ETSQP_RETURN_IF_ERROR(ReadSeriesName(r, &name));

  uint8_t flags;
  uint64_t appended_points;
  int64_t ttl_nanos;
  if (!r->ReadU8(&flags) || !r->ReadU64(&appended_points) ||
      !r->ReadI64(&ttl_nanos)) {
    return Status::Corruption("tsfile: truncated metadata for series " + name);
  }
  if ((flags & ~kKnownFlags) != 0) {
    return Status::Corruption("tsfile: unknown series flags for " + name);
  }
  if (ttl_nanos < 0) {
    return Status::Corruption("tsfile: negative ttl for series " + name);
  }
  const bool is_float = (flags & kFlagFloatSeries) != 0;

  uint32_t num_tombstones;
  if (!r->ReadU32(&num_tombstones)) {
    return Status::Corruption("tsfile: truncated metadata for series " + name);
  }
  if (static_cast<uint64_t>(num_tombstones) * 16 > r->remaining()) {
    return Status::Corruption("tsfile: tombstone count for series " + name +
                              " exceeds file size");
  }
  std::vector<TimeInterval> tombstones;
  tombstones.reserve(num_tombstones);
  for (uint32_t i = 0; i < num_tombstones; ++i) {
    TimeInterval t;
    if (!r->ReadI64(&t.lo) || !r->ReadI64(&t.hi)) {
      return Status::Corruption("tsfile: truncated");
    }
    if (t.lo > t.hi) {
      return Status::Corruption("tsfile: inverted tombstone range in series " +
                                name);
    }
    tombstones.push_back(t);
  }

  uint32_t num_ooo;
  if (!r->ReadU32(&num_ooo)) {
    return Status::Corruption("tsfile: truncated metadata for series " + name);
  }
  if (static_cast<uint64_t>(num_ooo) * 16 > r->remaining()) {
    return Status::Corruption("tsfile: overlap-point count for series " +
                              name + " exceeds file size");
  }
  std::vector<int64_t> ooo_times, ooo_values;
  ooo_times.reserve(num_ooo);
  ooo_values.reserve(num_ooo);
  for (uint32_t i = 0; i < num_ooo; ++i) {
    int64_t t;
    uint64_t bits;
    if (!r->ReadI64(&t) || !r->ReadU64(&bits)) {
      return Status::Corruption("tsfile: truncated");
    }
    if (!ooo_times.empty() && t <= ooo_times.back()) {
      return Status::Corruption(
          "tsfile: overlap points not strictly increasing in series " + name);
    }
    ooo_times.push_back(t);
    ooo_values.push_back(static_cast<int64_t>(bits));
  }
  if (num_ooo > 0 && (flags & kFlagAllowOutOfOrder) == 0) {
    return Status::Corruption(
        "tsfile: overlap points on an in-order series " + name);
  }

  uint32_t num_pages;
  if (!r->ReadU32(&num_pages)) {
    return Status::Corruption("tsfile: truncated metadata for series " + name);
  }
  if (static_cast<uint64_t>(num_pages) * (2 + kPageHeaderBytes) >
      r->remaining()) {
    return Status::Corruption("tsfile: page count for series " + name +
                              " exceeds file size");
  }
  std::vector<Page> pages;
  pages.reserve(num_pages);
  uint64_t sealed_points = 0;
  for (uint32_t p = 0; p < num_pages; ++p) {
    uint8_t level, tier;
    if (!r->ReadU8(&level) || !r->ReadU8(&tier)) {
      return Status::Corruption("tsfile: truncated");
    }
    if (level > kTsFileMaxPageLevel || tier > kTsFileMaxPageTier) {
      return Status::Corruption("tsfile: page level/tier out of range in " +
                                name);
    }
    Page page;
    ETSQP_RETURN_IF_ERROR(DeserializePage(r->data, r->size, &r->pos, &page));
    page.header.level = level;
    page.header.tier = tier;
    sealed_points += page.header.count;
    pages.push_back(std::move(page));
  }
  if (appended_points < sealed_points + num_ooo) {
    return Status::Corruption(
        "tsfile: appended_points under-counts stored points in series " +
        name);
  }

  SeriesStore::SeriesOptions opt;
  opt.allow_out_of_order = (flags & kFlagAllowOutOfOrder) != 0;
  if (!pages.empty()) {
    opt.page.time_encoding = pages[0].header.time_encoding;
    opt.page.value_encoding = pages[0].header.value_encoding;
    if (enc::IsFloatEncoding(opt.page.value_encoding) != is_float) {
      return Status::Corruption(
          "tsfile: value-type flag contradicts page encoding in series " +
          name);
    }
  } else if (is_float) {
    opt.page.value_encoding = enc::ColumnEncoding::kGorillaValue;
  }
  ETSQP_RETURN_IF_ERROR(store->CreateSeries(name, opt));
  for (Page& page : pages) {
    ETSQP_RETURN_IF_ERROR(store->AddPage(name, std::move(page)));
  }
  return store->RestoreSeriesMeta(name, appended_points, ttl_nanos,
                                  std::move(tombstones), std::move(ooo_times),
                                  std::move(ooo_values));
}

}  // namespace

Status WriteTsFile(const SeriesStore& store, const std::string& path) {
  std::vector<std::string> names = store.SeriesNames();
  // Collect first so the version decision sees every series, and unflushed
  // buffers fail before any bytes are laid out.
  std::vector<const SeriesStore::Series*> series;
  series.reserve(names.size());
  bool v2 = false;
  for (const std::string& name : names) {
    Result<const SeriesStore::Series*> found = store.GetSeries(name);
    if (!found.ok()) return found.status();
    const SeriesStore::Series* s = found.value();
    if (!s->buf_times.empty() || !s->sealing.empty()) {
      return Status::InvalidArgument("tsfile: unflushed series " + name);
    }
    if (NeedsV2(*s)) v2 = true;
    series.push_back(s);
  }

  std::vector<uint8_t> out;
  PutFixed32BE(&out, v2 ? kTsFileMagicV2 : kTsFileMagicV1);
  PutFixed32BE(&out, static_cast<uint32_t>(series.size()));
  for (const SeriesStore::Series* s : series) {
    PutFixed32BE(&out, static_cast<uint32_t>(s->name.size()));
    out.insert(out.end(), s->name.begin(), s->name.end());
    if (v2) {
      uint8_t flags = 0;
      if (s->options.allow_out_of_order) flags |= kFlagAllowOutOfOrder;
      if (s->is_float()) flags |= kFlagFloatSeries;
      out.push_back(flags);
      PutFixed64BE(&out, s->appended_points);
      PutFixed64BE(&out, static_cast<uint64_t>(s->ttl_nanos));
      PutFixed32BE(&out, static_cast<uint32_t>(s->tombstones.size()));
      for (const TimeInterval& t : s->tombstones) {
        PutFixed64BE(&out, static_cast<uint64_t>(t.lo));
        PutFixed64BE(&out, static_cast<uint64_t>(t.hi));
      }
      PutFixed32BE(&out, static_cast<uint32_t>(s->ooo_times.size()));
      for (size_t i = 0; i < s->ooo_times.size(); ++i) {
        PutFixed64BE(&out, static_cast<uint64_t>(s->ooo_times[i]));
        PutFixed64BE(&out, static_cast<uint64_t>(s->ooo_values[i]));
      }
    }
    PutFixed32BE(&out, static_cast<uint32_t>(s->pages.size()));
    for (const auto& page : s->pages) {
      if (v2) {
        out.push_back(page->header.level);
        out.push_back(page->header.tier);
      }
      SerializePage(*page, &out);
    }
  }
  return WriteAll(out, path);
}

Status ReadTsFile(const std::string& path, SeriesStore* store) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("open for read: " + path);
  std::fseek(f, 0, SEEK_END);
  long file_size = std::ftell(f);
  if (file_size < 0) {
    std::fclose(f);
    return Status::IoError("size: " + path);
  }
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> data(static_cast<size_t>(file_size));
  size_t read = std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (read != data.size()) return Status::IoError("short read: " + path);

  if (data.size() < 8) return Status::Corruption("tsfile: bad magic");
  uint32_t magic = GetFixed32BE(data.data());
  if (magic != kTsFileMagicV1 && magic != kTsFileMagicV2) {
    return Status::Corruption("tsfile: bad magic");
  }
  const bool v2 = magic == kTsFileMagicV2;
  Reader r{data.data(), data.size(), 8};
  uint32_t num_series = GetFixed32BE(data.data() + 4);
  // Every series costs at least name_len + num_pages (8 bytes): a count the
  // file cannot possibly hold is corruption, not a long loop over it.
  if (static_cast<uint64_t>(num_series) * 8 > r.remaining()) {
    return Status::Corruption("tsfile: series count exceeds file size");
  }
  for (uint32_t i = 0; i < num_series; ++i) {
    ETSQP_RETURN_IF_ERROR(v2 ? ReadV2Series(&r, store)
                             : ReadV1Series(&r, store));
  }
  if (r.pos != r.size) {
    return Status::Corruption("tsfile: trailing bytes after last series");
  }
  return Status::Ok();
}

}  // namespace etsqp::storage
