#include "storage/series_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

namespace etsqp::storage {

void AddInterval(std::vector<TimeInterval>* set, TimeInterval add) {
  if (add.lo > add.hi) return;
  std::vector<TimeInterval>& s = *set;
  std::vector<TimeInterval> out;
  out.reserve(s.size() + 1);
  size_t i = 0;
  while (i < s.size() && s[i].hi < add.lo) out.push_back(s[i++]);
  while (i < s.size() && s[i].lo <= add.hi) {
    add.lo = std::min(add.lo, s[i].lo);
    add.hi = std::max(add.hi, s[i].hi);
    ++i;
  }
  out.push_back(add);
  while (i < s.size()) out.push_back(s[i++]);
  *set = std::move(out);
}

namespace {

/// Index of the first interval whose hi >= t (set sorted by lo, disjoint).
size_t FirstReaching(const std::vector<TimeInterval>& set, int64_t t) {
  size_t lo = 0, hi = set.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (set[mid].hi < t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

bool IntervalsContain(const std::vector<TimeInterval>& set, int64_t t) {
  size_t i = FirstReaching(set, t);
  return i < set.size() && set[i].lo <= t;
}

bool IntervalsOverlap(const std::vector<TimeInterval>& set, int64_t lo,
                      int64_t hi) {
  size_t i = FirstReaching(set, lo);
  return i < set.size() && set[i].lo <= hi;
}

bool IntervalsCover(const std::vector<TimeInterval>& set, int64_t lo,
                    int64_t hi) {
  size_t i = FirstReaching(set, lo);
  return i < set.size() && set[i].lo <= lo && set[i].hi >= hi;
}

namespace {

/// Definition 1: times within a series are strictly increasing — each of
/// times[0..n) above `after` and its predecessor. The whole batch is checked
/// before anything is logged or buffered, so a rejected batch leaves no
/// partial state.
Status CheckIncreasing(const std::string& name, const int64_t* times,
                       size_t n, int64_t after) {
  for (size_t i = 0; i < n; ++i) {
    if (times[i] <= after) {
      return Status::InvalidArgument(
          "out-of-order timestamp " + std::to_string(times[i]) +
          " (newest is " + std::to_string(after) + ") in series: " + name);
    }
    after = times[i];
  }
  return Status::Ok();
}

}  // namespace

SeriesStore::SeriesStore() : state_(std::make_shared<State>()) {}

SeriesStore::SeriesStore(SeriesStore&& o) noexcept
    : state_(std::move(o.state_)) {
  o.state_ = std::make_shared<State>();
}

SeriesStore& SeriesStore::operator=(SeriesStore&& o) noexcept {
  if (this != &o) {
    state_ = std::move(o.state_);
    o.state_ = std::make_shared<State>();
  }
  return *this;
}

Status SeriesStore::CreateSeries(const std::string& name,
                                 const SeriesOptions& options) {
  if (!enc::IsPageEncoding(options.page.time_encoding, /*time_column=*/true) ||
      !enc::IsPageEncoding(options.page.value_encoding,
                           /*time_column=*/false)) {
    return Status::InvalidArgument(
        "series " + name + ": no page column holds encodings " +
        std::to_string(static_cast<int>(options.page.time_encoding)) + "/" +
        std::to_string(static_cast<int>(options.page.value_encoding)));
  }
  State* st = state_.get();
  std::unique_lock<std::shared_mutex> lock(st->mu);
  if (st->series.count(name) != 0) {
    return Status::InvalidArgument("series exists: " + name);
  }
  if (st->wal != nullptr) {
    ETSQP_RETURN_IF_ERROR(st->wal->AppendCreateSeries(
        name, static_cast<uint8_t>(options.page.time_encoding),
        static_cast<uint8_t>(options.page.value_encoding), options.page_size,
        options.page.block_size, options.allow_out_of_order ? 1 : 0));
  }
  Series s;
  s.name = name;
  s.options = options;
  st->series.emplace(name, std::move(s));
  return Status::Ok();
}

void SeriesStore::EncodeSegment(SealSegment* seg, const PageOptions& options) {
  Result<Page> page = BuildPageFromWords(seg->times.data(), seg->values.data(),
                                         seg->times.size(), options);
  if (page.ok()) {
    seg->page = std::make_shared<const Page>(std::move(page).value());
  } else {
    seg->error = page.status();
  }
}

void SeriesStore::DrainReadySegmentsLocked(State* st, Series* s) {
  while (!s->sealing.empty() && s->sealing.front()->ready) {
    SealSegment& front = *s->sealing.front();
    if (!front.error.ok()) {
      if (s->seal_error.ok()) s->seal_error = front.error;
    } else {
      s->total_points += front.page->header.count;
      s->pages.push_back(std::move(front.page));
      ++s->epoch;  // seal install: cached results over the tail go stale
      ++st->ingest.pages_sealed;
    }
    s->sealing.pop_front();
  }
}

Status SeriesStore::SealBufferLocked(State* st, Series* s) {
  if (s->buf_times.empty()) return Status::Ok();
  auto segment = std::make_shared<SealSegment>();
  segment->times = std::move(s->buf_times);
  segment->values = std::move(s->buf_values);
  s->buf_times.clear();
  s->buf_values.clear();
  // The segment stays part of the queryable tail (GetSnapshot) until its
  // page installs.
  s->sealing.push_back(segment);

  if (!st->background_seal || !st->submit) {
    uint64_t t0 = metrics::NowNanos();
    EncodeSegment(segment.get(), s->options.page);
    st->ingest.seal_nanos += metrics::NowNanos() - t0;
    segment->ready = true;
    DrainReadySegmentsLocked(st, s);
    return segment->error;
  }

  // Background seal: encode on the executor. The task holds the shared
  // state, not the SeriesStore shell, so it survives a store move/destroy.
  std::shared_ptr<State> state = state_;
  std::string name = s->name;
  PageOptions page_options = s->options.page;
  st->submit([state, segment, name, page_options] {
    uint64_t t0 = metrics::NowNanos();
    EncodeSegment(segment.get(), page_options);
    uint64_t nanos = metrics::NowNanos() - t0;
    std::unique_lock<std::shared_mutex> lock(state->mu);
    state->ingest.seal_nanos += nanos;
    if (segment->error.ok()) ++state->ingest.background_seals;
    segment->ready = true;
    auto it = state->series.find(name);
    if (it != state->series.end()) {
      DrainReadySegmentsLocked(state.get(), &it->second);
    }
    state->seal_cv.notify_all();
  });
  return Status::Ok();
}

Result<SeriesStore::Series*> SeriesStore::FindLocked(State* st,
                                                     const std::string& name,
                                                     bool is_float) {
  auto it = st->series.find(name);
  if (it == st->series.end()) return Status::NotFound("series: " + name);
  if (it->second.is_float() != is_float) {
    return Status::InvalidArgument(
        (it->second.is_float() ? "float series: " : "int series: ") + name);
  }
  return &it->second;
}

Status SeriesStore::WriteLocked(State* st, Series* s, const int64_t* times,
                                const int64_t* values, size_t n,
                                size_t late) {
  if (late > 0) {
    // Durability before visibility: every part is logged before it
    // mutates the series, so an acknowledged point is always recoverable.
    if (st->wal != nullptr) {
      ETSQP_RETURN_IF_ERROR(st->wal->AppendPoints(
          s->name, s->appended_points, times, values, late, s->is_float(),
          /*overlap=*/true));
    }
    MergeOooLocked(s, times, values, late);
    // The overlap buffer is invisible to queries until compaction
    // reconciles it, so the epoch does not move — cached results stay
    // valid. The sequence fence does: replay idempotency covers these
    // points like any other.
    s->appended_points += late;
    times += late;
    values += late;
    n -= late;
  }
  if (n == 0) return Status::Ok();
  if (st->wal != nullptr) {
    ETSQP_RETURN_IF_ERROR(st->wal->AppendPoints(
        s->name, s->appended_points, times, values, n, s->is_float(),
        /*overlap=*/false));
  }
  const size_t page_size = std::max<size_t>(s->options.page_size, 1);
  for (size_t i = 0; i < n;) {
    size_t take = std::min(n - i, page_size - s->buf_times.size());
    s->buf_times.insert(s->buf_times.end(), times + i, times + i + take);
    s->buf_values.insert(s->buf_values.end(), values + i, values + i + take);
    i += take;
    if (s->buf_times.size() >= page_size) {
      ETSQP_RETURN_IF_ERROR(SealBufferLocked(st, s));
    }
  }
  s->appended_points += n;
  s->last_time = times[n - 1];
  ++s->epoch;
  return Status::Ok();
}

Status SeriesStore::AppendWords(const std::string& name, const int64_t* times,
                                const int64_t* values, size_t n,
                                bool is_float) {
  State* st = state_.get();
  std::unique_lock<std::shared_mutex> lock(st->mu);
  Result<Series*> found = FindLocked(st, name, is_float);
  if (!found.ok()) return found.status();
  Series* s = found.value();
  if (n == 0) return Status::Ok();
  size_t late = 0;
  Status ordered = CheckIncreasing(name, times, n, s->last_time);
  if (!ordered.ok()) {
    // A late batch on an allow_out_of_order series must still be
    // internally increasing; its prefix at or below the fence goes to the
    // overlap buffer, the rest continues down the in-order path.
    if (!s->options.allow_out_of_order ||
        !CheckIncreasing(name, times + 1, n - 1, times[0]).ok()) {
      ++st->ingest.rejected_batches;
      return ordered;
    }
    late = static_cast<size_t>(
        std::upper_bound(times, times + n, s->last_time) - times);
  }
  ETSQP_RETURN_IF_ERROR(WriteLocked(st, s, times, values, n, late));
  st->ingest.points_appended += n;
  st->ingest.ooo_points += late;
  ++st->ingest.append_batches;
  return Status::Ok();
}

Status SeriesStore::Append(const std::string& name, int64_t time,
                           int64_t value) {
  return AppendWords(name, &time, &value, 1, /*is_float=*/false);
}

Status SeriesStore::AppendF64(const std::string& name, int64_t time,
                              double value) {
  int64_t word;
  std::memcpy(&word, &value, sizeof(word));
  return AppendWords(name, &time, &word, 1, /*is_float=*/true);
}

Status SeriesStore::AppendBatch(const std::string& name, const int64_t* times,
                                const int64_t* values, size_t n) {
  return AppendWords(name, times, values, n, /*is_float=*/false);
}

Status SeriesStore::AppendBatchF64(const std::string& name,
                                   const int64_t* times, const double* values,
                                   size_t n) {
  std::vector<int64_t> words(n);
  if (n > 0) std::memcpy(words.data(), values, n * sizeof(double));
  return AppendWords(name, times, words.data(), n, /*is_float=*/true);
}

Status SeriesStore::ReplayPoints(const std::string& name, uint64_t first_seq,
                                 const int64_t* times, const int64_t* values,
                                 size_t n, bool is_float, bool overlap,
                                 size_t* points_applied) {
  *points_applied = 0;
  State* st = state_.get();
  std::unique_lock<std::shared_mutex> lock(st->mu);
  Result<Series*> found = FindLocked(st, name, is_float);
  if (!found.ok()) return found.status();
  Series* s = found.value();
  if (first_seq > s->appended_points) {
    return Status::Corruption(
        "sequence gap in series " + name + ": record starts at " +
        std::to_string(first_seq) + ", store has " +
        std::to_string(s->appended_points));
  }
  size_t covered = static_cast<size_t>(
      std::min<uint64_t>(s->appended_points - first_seq, n));
  times += covered;
  values += covered;
  n -= covered;
  if (n == 0) return Status::Ok();  // the checkpoint already has it all
  ETSQP_RETURN_IF_ERROR(
      overlap ? CheckIncreasing(name, times + 1, n - 1, times[0])
              : CheckIncreasing(name, times, n, s->last_time));
  ETSQP_RETURN_IF_ERROR(WriteLocked(st, s, times, values, n, overlap ? n : 0));
  *points_applied = n;
  return Status::Ok();
}

void SeriesStore::MergeOooLocked(Series* s, const int64_t* times,
                                 const int64_t* values, size_t n) {
  std::vector<int64_t> mt;
  std::vector<int64_t> mv;
  mt.reserve(s->ooo_times.size() + n);
  mv.reserve(s->ooo_times.size() + n);
  size_t a = 0, b = 0;
  while (a < s->ooo_times.size() || b < n) {
    bool take_new;
    if (a >= s->ooo_times.size()) {
      take_new = true;
    } else if (b >= n) {
      take_new = false;
    } else if (s->ooo_times[a] < times[b]) {
      take_new = false;
    } else if (s->ooo_times[a] > times[b]) {
      take_new = true;
    } else {
      ++a;  // duplicate timestamp: the later arrival wins
      take_new = true;
    }
    if (take_new) {
      mt.push_back(times[b]);
      mv.push_back(values[b]);
      ++b;
    } else {
      mt.push_back(s->ooo_times[a]);
      mv.push_back(s->ooo_values[a]);
      ++a;
    }
  }
  s->ooo_times = std::move(mt);
  s->ooo_values = std::move(mv);
}

std::vector<TimeInterval> SeriesStore::EffectiveTombstones(const Series& s) {
  std::vector<TimeInterval> eff = s.tombstones;
  if (s.ttl_nanos > 0 && s.last_time != INT64_MIN) {
    // Points at or below last_time - ttl are expired. The cut keys off the
    // series' own newest time, so it is replay-deterministic.
    __int128 cut = static_cast<__int128>(s.last_time) - s.ttl_nanos;
    if (cut >= INT64_MIN) {
      AddInterval(&eff, {INT64_MIN, static_cast<int64_t>(cut)});
    }
  }
  return eff;
}

Status SeriesStore::DeleteRangeLocked(State* st, Series* s, int64_t t0,
                                      int64_t t1) {
  if (t0 > t1) return Status::InvalidArgument("delete: empty range");
  if (s->last_time == INT64_MIN) return Status::Ok();  // no data yet
  // Clamp to the data the series has seen so the tombstone never masks
  // strictly-newer future appends; the clamped range is what gets logged,
  // so replay at the same log position reproduces it exactly.
  int64_t hi = std::min(t1, s->last_time);
  if (t0 > hi) return Status::Ok();  // entirely in the future
  if (st->wal != nullptr) {
    ETSQP_RETURN_IF_ERROR(st->wal->AppendDeleteRange(s->name, t0, hi));
  }
  AddInterval(&s->tombstones, {t0, hi});
  ++s->epoch;
  return Status::Ok();
}

Status SeriesStore::DeleteRange(const std::string& name, int64_t t0,
                                int64_t t1) {
  State* st = state_.get();
  std::unique_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  if (it == st->series.end()) return Status::NotFound("series: " + name);
  Series& s = it->second;
  const uint64_t epoch = s.epoch;
  ETSQP_RETURN_IF_ERROR(DeleteRangeLocked(st, &s, t0, t1));
  if (s.epoch != epoch) ++st->ingest.delete_ranges;  // a range was recorded
  return Status::Ok();
}

Status SeriesStore::ReplayDeleteRange(const std::string& name, int64_t t0,
                                      int64_t t1) {
  State* st = state_.get();
  std::unique_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  if (it == st->series.end()) return Status::NotFound("series: " + name);
  return DeleteRangeLocked(st, &it->second, t0, t1);
}

Status SeriesStore::SetTtl(const std::string& name, int64_t ttl_nanos) {
  if (ttl_nanos < 0) return Status::InvalidArgument("ttl: negative");
  State* st = state_.get();
  std::unique_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  if (it == st->series.end()) return Status::NotFound("series: " + name);
  Series& s = it->second;
  if (st->wal != nullptr) {
    ETSQP_RETURN_IF_ERROR(st->wal->AppendSetTtl(name, ttl_nanos));
  }
  s.ttl_nanos = ttl_nanos;
  ++s.epoch;
  return Status::Ok();
}

std::vector<TimeInterval> SeriesStore::Tombstones(
    const std::string& name) const {
  State* st = state_.get();
  std::shared_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  return it == st->series.end() ? std::vector<TimeInterval>{}
                                : it->second.tombstones;
}

int64_t SeriesStore::Ttl(const std::string& name) const {
  State* st = state_.get();
  std::shared_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  return it == st->series.end() ? 0 : it->second.ttl_nanos;
}

uint64_t SeriesStore::OooPoints(const std::string& name) const {
  State* st = state_.get();
  std::shared_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  return it == st->series.end() ? 0 : it->second.ooo_times.size();
}

Status SeriesStore::BeginCompaction(const std::string& name,
                                    CompactionCapture* out) {
  State* st = state_.get();
  std::unique_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  if (it == st->series.end()) return Status::NotFound("series: " + name);
  Series& s = it->second;
  if (s.compacting) {
    return Status::FailedPrecondition("compaction in flight for series: " +
                                      name);
  }
  s.compacting = true;
  out->name = s.name;
  out->options = s.options;
  out->is_float = s.is_float();
  out->pages = s.pages;
  out->explicit_tombstones = s.tombstones;
  out->tombstones = EffectiveTombstones(s);
  out->ooo_times = s.ooo_times;
  out->ooo_values = s.ooo_values;
  out->sealed_max_time =
      s.pages.empty() ? INT64_MIN : s.pages.back()->header.max_time;
  out->tail_empty = s.buf_times.empty() && s.sealing.empty();
  return Status::Ok();
}

Status SeriesStore::InstallCompaction(const CompactionCapture& capture,
                                      CompactionInstall install) {
  State* st = state_.get();
  std::unique_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(capture.name);
  if (it == st->series.end()) {
    return Status::Aborted("compaction: series vanished: " + capture.name);
  }
  Series& s = it->second;
  s.compacting = false;  // the pass ends here, install or not
  if (install.replace_begin > install.replace_end ||
      install.replace_end > capture.pages.size()) {
    return Status::InvalidArgument("compaction: bad replace range");
  }
  if (capture.pages.size() > s.pages.size()) {
    return Status::Aborted("compaction: page list changed");
  }
  // Captured indices are stable (appends only push_back; this pass is the
  // only possible remover), but verify pointer identity across the whole
  // replaced span before splicing — a mismatch means the invariant broke
  // and installing would lose data.
  for (size_t i = install.replace_begin; i < install.replace_end; ++i) {
    if (s.pages[i].get() != capture.pages[i].get()) {
      return Status::Aborted("compaction: page list changed");
    }
  }
  std::vector<std::shared_ptr<const Page>> pages;
  pages.reserve(s.pages.size() + install.new_pages.size() -
                (install.replace_end - install.replace_begin));
  pages.insert(pages.end(), s.pages.begin(),
               s.pages.begin() + static_cast<long>(install.replace_begin));
  for (auto& p : install.new_pages) pages.push_back(std::move(p));
  pages.insert(pages.end(),
               s.pages.begin() + static_cast<long>(install.replace_end),
               s.pages.end());
  s.pages = std::move(pages);
  uint64_t total = 0;
  for (const auto& p : s.pages) total += p->header.count;
  s.total_points = total;

  // Trim the reconciled overlap points by (time, value word) identity: a
  // point updated since capture no longer matches and stays buffered for
  // the next pass — last-write-wins survives the race.
  if (install.ooo_consumed > 0) {
    size_t consumed =
        std::min(install.ooo_consumed, capture.ooo_times.size());
    std::vector<int64_t> nt, nv;
    size_t ci = 0;
    for (size_t j = 0; j < s.ooo_times.size(); ++j) {
      while (ci < consumed && capture.ooo_times[ci] < s.ooo_times[j]) ++ci;
      if (ci < consumed && capture.ooo_times[ci] == s.ooo_times[j] &&
          capture.ooo_values[ci] == s.ooo_values[j]) {
        ++ci;
        continue;
      }
      nt.push_back(s.ooo_times[j]);
      nv.push_back(s.ooo_values[j]);
    }
    s.ooo_times = std::move(nt);
    s.ooo_values = std::move(nv);
  }

  // Drop resolved tombstones only when still present verbatim: a range a
  // concurrent DeleteRange merged/grew keeps masking (conservative).
  for (const TimeInterval& t : install.tombstones_resolved) {
    for (auto iter = s.tombstones.begin(); iter != s.tombstones.end();
         ++iter) {
      if (iter->lo == t.lo && iter->hi == t.hi) {
        s.tombstones.erase(iter);
        break;
      }
    }
  }
  ++s.epoch;  // rewritten pages: every cached result over them goes stale
  return Status::Ok();
}

void SeriesStore::AbortCompaction(const std::string& name) {
  State* st = state_.get();
  std::unique_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  if (it != st->series.end()) it->second.compacting = false;
}

Status SeriesStore::RestoreSeriesMeta(const std::string& name,
                                      uint64_t appended_points,
                                      int64_t ttl_nanos,
                                      std::vector<TimeInterval> tombstones,
                                      std::vector<int64_t> ooo_times,
                                      std::vector<int64_t> ooo_values) {
  State* st = state_.get();
  std::unique_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  if (it == st->series.end()) return Status::NotFound("series: " + name);
  Series& s = it->second;
  if (ooo_values.size() != ooo_times.size()) {
    return Status::Corruption("restore: overlap arrays mismatched");
  }
  if (appended_points > s.appended_points) s.appended_points = appended_points;
  if (ttl_nanos > 0) s.ttl_nanos = ttl_nanos;
  for (const TimeInterval& t : tombstones) AddInterval(&s.tombstones, t);
  if (!ooo_times.empty()) {
    MergeOooLocked(&s, ooo_times.data(), ooo_values.data(), ooo_times.size());
  }
  ++s.epoch;
  return Status::Ok();
}

Status SeriesStore::Flush(const std::string& name) {
  State* st = state_.get();
  std::unique_lock<std::shared_mutex> lock(st->mu);
  auto flush_one = [&](Series* s) -> Status {
    // Wait out in-flight background seals first so the final page lands
    // after them in time order.
    st->seal_cv.wait(lock, [&] { return s->sealing.empty(); });
    if (!s->seal_error.ok()) return s->seal_error;
    ETSQP_RETURN_IF_ERROR(SealBufferLocked(st, s));
    // With background sealing the final buffer went to the executor too:
    // Flush promises an empty tail, so wait for its install as well.
    st->seal_cv.wait(lock, [&] { return s->sealing.empty(); });
    return s->seal_error;
  };
  if (!name.empty()) {
    auto it = st->series.find(name);
    if (it == st->series.end()) return Status::NotFound("series: " + name);
    return flush_one(&it->second);
  }
  for (auto& [unused, s] : st->series) {
    ETSQP_RETURN_IF_ERROR(flush_one(&s));
  }
  return Status::Ok();
}

Status SeriesStore::AddPage(const std::string& name, Page page) {
  State* st = state_.get();
  std::unique_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  if (it == st->series.end()) return Status::NotFound("series: " + name);
  Series& s = it->second;
  uint32_t count = page.header.count;
  int64_t max_time = page.header.max_time;
  s.total_points += count;
  s.appended_points += count;
  if (max_time > s.last_time) s.last_time = max_time;
  s.pages.push_back(std::make_shared<const Page>(std::move(page)));
  ++s.epoch;
  return Status::Ok();
}

Result<SeriesSnapshot> SeriesStore::GetSnapshot(
    const std::string& name) const {
  State* st = state_.get();
  std::shared_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  if (it == st->series.end()) return Status::NotFound("series: " + name);
  const Series& s = it->second;
  SeriesSnapshot snap;
  snap.name = s.name;
  snap.page_options = s.options.page;
  snap.is_float = s.is_float();
  snap.epoch = s.epoch;
  snap.pages = s.pages;  // shared, immutable
  snap.tombstones = EffectiveTombstones(s);

  // The tail is filtered against the tombstones right here (it is a copy
  // anyway); sealed pages stay shared and get masked by the exec layer.
  size_t tail = s.buf_times.size();
  for (const auto& seg : s.sealing) tail += seg->times.size();
  std::vector<int64_t> values;  // value words, typed below
  snap.tail_times.reserve(tail);
  values.reserve(tail);
  auto take = [&](const std::vector<int64_t>& times,
                  const std::vector<int64_t>& words) {
    if (snap.tombstones.empty()) {
      snap.tail_times.insert(snap.tail_times.end(), times.begin(),
                             times.end());
      values.insert(values.end(), words.begin(), words.end());
      return;
    }
    for (size_t i = 0; i < times.size(); ++i) {
      if (IntervalsContain(snap.tombstones, times[i])) continue;
      snap.tail_times.push_back(times[i]);
      values.push_back(words[i]);
    }
  };
  for (const auto& seg : s.sealing) take(seg->times, seg->values);
  take(s.buf_times, s.buf_values);
  if (values.empty()) return snap;

  if (!snap.is_float) {
    auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    snap.tail_min_value = *lo;
    snap.tail_max_value = *hi;
    snap.tail_values = std::move(values);
    return snap;
  }
  snap.tail_values_f64.resize(values.size());
  std::memcpy(snap.tail_values_f64.data(), values.data(),
              values.size() * sizeof(double));
  bool any = false, has_nan = false;
  double lo = 0, hi = 0;
  for (double v : snap.tail_values_f64) {
    if (std::isnan(v)) {
      has_nan = true;
      continue;
    }
    if (!any) {
      lo = hi = v;
      any = true;
    } else {
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
  }
  if (has_nan) {
    // A NaN passes every value filter compare downstream, so finite
    // bounds over the rest of the tail would let pruning drop it.
    // NaN bounds make every prune comparison false — tail survives.
    lo = hi = std::numeric_limits<double>::quiet_NaN();
  }
  snap.tail_min_value_f64 = lo;
  snap.tail_max_value_f64 = hi;
  return snap;
}

bool SeriesStore::HasSeries(const std::string& name) const {
  State* st = state_.get();
  std::shared_lock<std::shared_mutex> lock(st->mu);
  return st->series.count(name) != 0;
}

Result<const SeriesStore::Series*> SeriesStore::GetSeries(
    const std::string& name) const {
  State* st = state_.get();
  std::shared_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  if (it == st->series.end()) return Status::NotFound("series: " + name);
  return &it->second;
}

std::vector<std::string> SeriesStore::SeriesNames() const {
  State* st = state_.get();
  std::shared_lock<std::shared_mutex> lock(st->mu);
  std::vector<std::string> names;
  names.reserve(st->series.size());
  for (const auto& [name, unused] : st->series) names.push_back(name);
  return names;
}

uint64_t SeriesStore::EncodedBytes(const std::string& name) const {
  State* st = state_.get();
  std::shared_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  if (it == st->series.end()) return 0;
  uint64_t total = 0;
  for (const auto& p : it->second.pages) total += p->encoded_bytes();
  return total;
}

uint64_t SeriesStore::SeriesEpoch(const std::string& name) const {
  State* st = state_.get();
  std::shared_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  return it == st->series.end() ? 0 : it->second.epoch;
}

void SeriesStore::AttachWal(std::unique_ptr<Wal> wal) {
  State* st = state_.get();
  std::unique_lock<std::shared_mutex> lock(st->mu);
  st->wal = std::move(wal);
}

Wal* SeriesStore::wal() const {
  State* st = state_.get();
  std::shared_lock<std::shared_mutex> lock(st->mu);
  return st->wal.get();
}

void SeriesStore::SetBackgroundSeal(bool enabled, TaskSubmitter submit) {
  State* st = state_.get();
  std::unique_lock<std::shared_mutex> lock(st->mu);
  st->background_seal = enabled;
  st->submit = std::move(submit);
}

metrics::IngestStats SeriesStore::ingest_stats() const {
  State* st = state_.get();
  std::shared_lock<std::shared_mutex> lock(st->mu);
  metrics::IngestStats stats = st->ingest;
  for (const auto& [unused, s] : st->series) {
    stats.tail_points += s.buf_times.size();
    for (const auto& seg : s.sealing) stats.tail_points += seg->times.size();
    stats.ooo_pending += s.ooo_times.size();
  }
  if (st->wal != nullptr) {
    Wal::Stats w = st->wal->stats();
    stats.wal_records = w.records;
    stats.wal_bytes = w.bytes;
    stats.wal_fsyncs = w.fsyncs;
    stats.wal_sync_nanos = w.sync_nanos;
  }
  return stats;
}

uint64_t SeriesStore::AppendedPoints(const std::string& name) const {
  State* st = state_.get();
  std::shared_lock<std::shared_mutex> lock(st->mu);
  auto it = st->series.find(name);
  return it == st->series.end() ? 0 : it->second.appended_points;
}

}  // namespace etsqp::storage
