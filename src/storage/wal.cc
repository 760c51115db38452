#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

#include "common/bitstream.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "storage/series_store.h"

namespace etsqp::storage {

namespace {

// A payload larger than this cannot be a real record (the store seals pages
// long before a batch reaches 64 MiB); treat it as a torn length field.
constexpr uint32_t kMaxPayloadBytes = 64u << 20;
constexpr size_t kFrameBytes = 8;  // u32 len + u32 masked crc
// Group-commit threshold of FsyncPolicy::kBatch.
constexpr size_t kBatchSyncBytes = 64 << 10;

void PutFixed16BE(std::vector<uint8_t>* dst, uint16_t v) {
  dst->push_back(static_cast<uint8_t>(v >> 8));
  dst->push_back(static_cast<uint8_t>(v));
}

void PutName(std::vector<uint8_t>* dst, const std::string& name) {
  PutFixed16BE(dst, static_cast<uint16_t>(name.size()));
  dst->insert(dst->end(), name.begin(), name.end());
}

/// Bounds-checked Big-Endian payload reader for replay.
class PayloadReader {
 public:
  PayloadReader(const uint8_t* p, size_t n) : p_(p), n_(n) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > n_) return false;
    *v = p_[pos_++];
    return true;
  }
  bool ReadU16(uint16_t* v) {
    if (pos_ + 2 > n_) return false;
    *v = static_cast<uint16_t>((p_[pos_] << 8) | p_[pos_ + 1]);
    pos_ += 2;
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > n_) return false;
    *v = GetFixed32BE(p_ + pos_);
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > n_) return false;
    *v = GetFixed64BE(p_ + pos_);
    pos_ += 8;
    return true;
  }
  bool ReadName(std::string* name) {
    uint16_t len = 0;
    if (!ReadU16(&len) || pos_ + len > n_) return false;
    name->assign(reinterpret_cast<const char*>(p_ + pos_), len);
    pos_ += len;
    return true;
  }
  bool Done() const { return pos_ == n_; }

 private:
  const uint8_t* p_;
  size_t n_;
  size_t pos_ = 0;
};

Status WriteFully(int fd, const uint8_t* data, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("wal: write failed");
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return Status::Ok();
}

}  // namespace

Wal::Wal(std::string path, int fd, FsyncPolicy fsync)
    : path_(std::move(path)), fsync_(fsync), fd_(fd) {}

Wal::~Wal() {
  if (fd_ >= 0) {
    if (unsynced_bytes_ > 0 && fsync_ != FsyncPolicy::kNever) {
      ::fsync(fd_);
    }
    ::close(fd_);
  }
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       FsyncPolicy fsync) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IoError("wal: open " + path);
  if (::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    return Status::IoError("wal: seek " + path);
  }
  return std::unique_ptr<Wal>(new Wal(path, fd, fsync));
}

Status Wal::AppendRecord(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  frame.reserve(kFrameBytes + payload.size());
  PutFixed32BE(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed32BE(&frame, MaskCrc(Crc32c(payload.data(), payload.size())));
  frame.insert(frame.end(), payload.begin(), payload.end());

  std::lock_guard<std::mutex> lock(mu_);
  ETSQP_RETURN_IF_ERROR(WriteFully(fd_, frame.data(), frame.size()));
  ++stats_.records;
  stats_.bytes += frame.size();
  unsynced_bytes_ += frame.size();
  if (fsync_ == FsyncPolicy::kAlways ||
      (fsync_ == FsyncPolicy::kBatch && unsynced_bytes_ >= kBatchSyncBytes)) {
    return SyncLocked();
  }
  return Status::Ok();
}

Status Wal::SyncLocked() {
  if (unsynced_bytes_ == 0) return Status::Ok();
  uint64_t t0 = metrics::NowNanos();
  if (::fsync(fd_) != 0) return Status::IoError("wal: fsync " + path_);
  stats_.sync_nanos += metrics::NowNanos() - t0;
  ++stats_.fsyncs;
  unsynced_bytes_ = 0;
  return Status::Ok();
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status Wal::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
    return Status::IoError("wal: truncate " + path_);
  }
  uint64_t t0 = metrics::NowNanos();
  if (fsync_ != FsyncPolicy::kNever && ::fsync(fd_) != 0) {
    return Status::IoError("wal: fsync " + path_);
  }
  stats_.sync_nanos += metrics::NowNanos() - t0;
  unsynced_bytes_ = 0;
  ++stats_.resets;
  return Status::Ok();
}

Wal::Stats Wal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status Wal::AppendCreateSeries(const std::string& name, uint8_t time_encoding,
                               uint8_t value_encoding, uint32_t page_size,
                               uint32_t block_size, uint8_t flags) {
  std::vector<uint8_t> payload;
  payload.push_back(kCreateSeries);
  payload.push_back(time_encoding);
  payload.push_back(value_encoding);
  PutFixed32BE(&payload, page_size);
  PutFixed32BE(&payload, block_size);
  PutName(&payload, name);
  // The flags byte is written only when set, keeping byte-identical logs
  // for flag-free series and unambiguous replay of old logs either way.
  if (flags != 0) payload.push_back(flags);
  return AppendRecord(payload);
}

Status Wal::AppendPoints(const std::string& name, uint64_t first_seq,
                         const int64_t* times, const int64_t* values,
                         size_t n, bool is_float, bool overlap) {
  std::vector<uint8_t> payload;
  payload.reserve(1 + 2 + name.size() + 12 + 16 * n);
  payload.push_back(overlap ? (is_float ? kAppendF64Ooo : kAppendIntOoo)
                            : (is_float ? kAppendF64 : kAppendInt));
  PutName(&payload, name);
  PutFixed64BE(&payload, first_seq);
  PutFixed32BE(&payload, static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) {
    PutFixed64BE(&payload, static_cast<uint64_t>(times[i]));
    PutFixed64BE(&payload, static_cast<uint64_t>(values[i]));
  }
  return AppendRecord(payload);
}

Status Wal::AppendDeleteRange(const std::string& name, int64_t t0,
                              int64_t t1) {
  std::vector<uint8_t> payload;
  payload.reserve(1 + 2 + name.size() + 16);
  payload.push_back(kDeleteRange);
  PutName(&payload, name);
  PutFixed64BE(&payload, static_cast<uint64_t>(t0));
  PutFixed64BE(&payload, static_cast<uint64_t>(t1));
  return AppendRecord(payload);
}

Status Wal::AppendSetTtl(const std::string& name, int64_t ttl_nanos) {
  std::vector<uint8_t> payload;
  payload.reserve(1 + 2 + name.size() + 8);
  payload.push_back(kSetTtl);
  PutName(&payload, name);
  PutFixed64BE(&payload, static_cast<uint64_t>(ttl_nanos));
  return AppendRecord(payload);
}

Status Wal::ReplayInto(SeriesStore* store, ReplayStats* stats) {
  // File I/O happens under mu_, but the apply loop below must not: replay
  // calls into the store, which takes the store lock, while appends call
  // into the WAL *while holding* that lock — holding mu_ across store
  // calls would invert the order. Replay runs before the log is attached
  // (nothing can be appending), so dropping mu_ here is safe.
  std::vector<uint8_t> data;
  {
    std::lock_guard<std::mutex> lock(mu_);
    off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) return Status::IoError("wal: seek " + path_);
    data.resize(static_cast<size_t>(end));
    size_t got = 0;
    while (got < data.size()) {
      ssize_t r = ::pread(fd_, data.data() + got, data.size() - got,
                          static_cast<off_t>(got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("wal: read " + path_);
      }
      if (r == 0) break;
      got += static_cast<size_t>(r);
    }
    if (got != data.size()) {
      return Status::IoError("wal: short read " + path_);
    }
  }

  ReplayStats local;
  size_t pos = 0;          // cursor
  size_t valid_end = 0;    // end of the last intact record
  while (pos + kFrameBytes <= data.size()) {
    uint32_t len = GetFixed32BE(data.data() + pos);
    uint32_t masked = GetFixed32BE(data.data() + pos + 4);
    if (len > kMaxPayloadBytes || pos + kFrameBytes + len > data.size()) {
      break;  // torn length or truncated payload
    }
    const uint8_t* payload = data.data() + pos + kFrameBytes;
    if (UnmaskCrc(masked) != Crc32c(payload, len)) {
      break;  // bit flip anywhere in the record
    }

    PayloadReader r(payload, len);
    uint8_t type = 0;
    bool parsed = r.ReadU8(&type);
    bool skipped = false;  // record fully covered by a checkpoint
    Status applied = Status::Ok();
    switch (parsed ? type : 0) {
      case kCreateSeries: {
        uint8_t time_enc = 0, value_enc = 0;
        uint32_t page_size = 0, block_size = 0;
        std::string name;
        parsed = r.ReadU8(&time_enc) && r.ReadU8(&value_enc) &&
                 r.ReadU32(&page_size) && r.ReadU32(&block_size) &&
                 r.ReadName(&name);
        // Optional trailing flags byte (bit 0 = allow_out_of_order);
        // records from before the compaction subsystem end at the name.
        uint8_t flags = 0;
        if (parsed && !r.Done()) parsed = r.ReadU8(&flags) && r.Done();
        if (parsed && !store->HasSeries(name)) {
          SeriesStore::SeriesOptions opt;
          opt.page_size = page_size;
          opt.page.time_encoding = static_cast<enc::ColumnEncoding>(time_enc);
          opt.page.value_encoding =
              static_cast<enc::ColumnEncoding>(value_enc);
          opt.page.block_size = block_size;
          opt.allow_out_of_order = (flags & 1) != 0;
          applied = store->CreateSeries(name, opt);
        } else if (parsed) {
          skipped = true;
        }
        break;
      }
      case kDeleteRange: {
        std::string name;
        uint64_t t0 = 0, t1 = 0;
        parsed = r.ReadName(&name) && r.ReadU64(&t0) && r.ReadU64(&t1) &&
                 r.Done() &&
                 static_cast<int64_t>(t0) <= static_cast<int64_t>(t1);
        if (parsed) {
          applied = store->ReplayDeleteRange(name, static_cast<int64_t>(t0),
                                             static_cast<int64_t>(t1));
        }
        break;
      }
      case kSetTtl: {
        std::string name;
        uint64_t ttl = 0;
        parsed = r.ReadName(&name) && r.ReadU64(&ttl) && r.Done();
        if (parsed) {
          applied = store->SetTtl(name, static_cast<int64_t>(ttl));
        }
        break;
      }
      case kAppendInt:
      case kAppendF64:
      case kAppendIntOoo:
      case kAppendF64Ooo: {
        std::string name;
        uint64_t first_seq = 0;
        uint32_t n = 0;
        parsed = r.ReadName(&name) && r.ReadU64(&first_seq) && r.ReadU32(&n);
        std::vector<int64_t> times, values;
        if (parsed) {
          times.reserve(n);
          values.reserve(n);
          for (uint32_t i = 0; parsed && i < n; ++i) {
            uint64_t t = 0, v = 0;
            parsed = r.ReadU64(&t) && r.ReadU64(&v);
            times.push_back(static_cast<int64_t>(t));
            values.push_back(static_cast<int64_t>(v));
          }
          parsed = parsed && r.Done();
        }
        if (parsed) {
          // Overlap records (types 6/7) route to the overlap buffer by
          // their type, whatever the replayed fence says.
          size_t points = 0;
          applied = store->ReplayPoints(
              name, first_seq, times.data(), values.data(), n,
              /*is_float=*/type == kAppendF64 || type == kAppendF64Ooo,
              /*overlap=*/type == kAppendIntOoo || type == kAppendF64Ooo,
              &points);
          local.points_applied += points;
          skipped = (points == 0);
        }
        break;
      }
      default:
        parsed = false;
    }
    if (!parsed) {
      // The CRC matched but the payload does not decode: not a torn tail
      // but real corruption (or a version mismatch) — refuse to guess.
      return Status::Corruption("wal: undecodable record at offset " +
                                std::to_string(pos));
    }
    if (!applied.ok()) {
      // The record verified but cannot apply at its log position (unknown
      // series, wrong value type, sequence gap, out-of-order points).
      return Status::Corruption("wal: record at offset " +
                                std::to_string(pos) + ": " +
                                applied.message());
    }
    if (skipped) {
      ++local.records_skipped;
    } else {
      ++local.records_applied;
    }
    pos += kFrameBytes + len;
    valid_end = pos;
  }

  if (valid_end < data.size()) {
    local.records_dropped = 1;  // at most one torn frame terminates the scan
    local.bytes_dropped = data.size() - valid_end;
    std::lock_guard<std::mutex> lock(mu_);
    if (::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(valid_end), SEEK_SET) < 0) {
      return Status::IoError("wal: truncate torn tail " + path_);
    }
  }
  if (stats != nullptr) *stats = local;
  return Status::Ok();
}

}  // namespace etsqp::storage
