#include "storage/compaction.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "storage/page_builder.h"

namespace etsqp::storage {

void Compactor::MergeStats(const metrics::CompactionStats& pass) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.Merge(pass);
}

metrics::CompactionStats Compactor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status Compactor::CompactSeries(const std::string& name) {
  metrics::CompactionStats pass;
  uint64_t t0 = metrics::NowNanos();
  Status status = RunPass(name, &pass);
  pass.nanos = metrics::NowNanos() - t0;
  pass.runs = 1;
  MergeStats(pass);
  return status;
}

Status Compactor::CompactAll() {
  metrics::CompactionStats pass;
  uint64_t t0 = metrics::NowNanos();
  Status status = Status::Ok();
  for (const std::string& name : store_->SeriesNames()) {
    Status s = RunPass(name, &pass);
    if (!s.ok() && status.ok()) status = s;
  }
  pass.nanos = metrics::NowNanos() - t0;
  pass.runs = 1;
  MergeStats(pass);
  return status;
}

namespace {

/// A sealed page holding under this fraction of the series' page_size is
/// undersized: the pass coalesces it with its neighbors.
constexpr double kMergeFill = 0.5;

/// Index of the page a reconciled overlap point lands in: the first page
/// whose max_time >= t, or npages when the point is past every page.
size_t TargetPage(const std::vector<std::shared_ptr<const Page>>& pages,
                  int64_t t) {
  size_t lo = 0, hi = pages.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (pages[mid]->header.max_time < t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

Status Compactor::RunPass(const std::string& name,
                          metrics::CompactionStats* pass) {
  SeriesStore::CompactionCapture cap;
  Status begin = store_->BeginCompaction(name, &cap);
  if (!begin.ok()) {
    // Busy (another pass holds the series) or vanished: both are fine.
    if (begin.code() == StatusCode::kFailedPrecondition ||
        begin.code() == StatusCode::kNotFound) {
      return Status::Ok();
    }
    return begin;
  }

  const auto& pages = cap.pages;
  const size_t npages = pages.size();
  const uint32_t target = std::max<uint32_t>(cap.options.page_size, 1);

  // Reconcilable overlap prefix: points at or below the sealed maximum can
  // merge into pages without interleaving with the live tail; with an empty
  // tail everything reconciles (the excess becomes new trailing pages).
  size_t ooo_n = 0;
  if (cap.tail_empty) {
    ooo_n = cap.ooo_times.size();
  } else {
    ooo_n = static_cast<size_t>(
        std::upper_bound(cap.ooo_times.begin(), cap.ooo_times.end(),
                         cap.sealed_max_time) -
        cap.ooo_times.begin());
  }

  // Dirty = must be rewritten. The hull of dirty pages becomes one
  // contiguous span so the splice stays a single-range replace.
  std::vector<char> dirty(npages, 0);
  for (size_t i = 0; i < npages; ++i) {
    const PageHeader& h = pages[i]->header;
    if (!cap.tombstones.empty() &&
        IntervalsOverlap(cap.tombstones, h.min_time, h.max_time)) {
      dirty[i] = 1;
    }
    if (npages >= 2 && static_cast<double>(h.count) <
                           kMergeFill * static_cast<double>(target)) {
      dirty[i] = 1;
    }
    if (h.tier == 0) dirty[i] = 1;  // never seen by the advisor
  }
  bool ooo_past_pages = false;
  for (size_t i = 0; i < ooo_n; ++i) {
    size_t page = TargetPage(pages, cap.ooo_times[i]);
    if (page < npages) {
      dirty[page] = 1;
    } else {
      ooo_past_pages = true;
    }
  }

  size_t span_begin = npages, span_end = 0;
  for (size_t i = 0; i < npages; ++i) {
    if (dirty[i] == 0) continue;
    span_begin = std::min(span_begin, i);
    span_end = std::max(span_end, i + 1);
  }
  if (ooo_past_pages) {
    // Trailing overlap points become new pages after every existing one.
    span_end = npages;
    span_begin = std::min(span_begin, npages);
  }
  if (span_begin >= span_end && !ooo_past_pages && ooo_n == 0) {
    store_->AbortCompaction(name);
    return Status::Ok();  // nothing to do
  }
  if (span_begin > span_end) span_begin = span_end;  // pure-append span

  // Decode the span into times and value words.
  std::vector<int64_t> times, values;
  size_t span_points = 0;
  for (size_t i = span_begin; i < span_end; ++i) {
    span_points += pages[i]->header.count;
  }
  times.reserve(span_points);
  values.reserve(span_points);
  for (size_t i = span_begin; i < span_end; ++i) {
    const Page& p = *pages[i];
    size_t at = times.size();
    times.resize(at + p.header.count);
    values.resize(at + p.header.count);
    Status st = DecodePageColumn(p.time_data.data(), p.time_data.size(),
                                 p.header.time_encoding, p.header.count,
                                 times.data() + at);
    if (st.ok()) st = DecodePageValueWords(p, values.data() + at);
    if (!st.ok()) {
      store_->AbortCompaction(name);
      return st;
    }
  }

  // Merge span points with the reconcilable overlap prefix, dropping
  // tombstoned points from both streams. Duplicate timestamps resolve to
  // the overlap point — the later write wins.
  std::vector<int64_t> mt, mv;
  mt.reserve(times.size() + ooo_n);
  mv.reserve(times.size() + ooo_n);
  size_t a = 0, b = 0;
  uint64_t dropped = 0, merged_ooo = 0;
  while (a < times.size() || b < ooo_n) {
    bool take_ooo;
    if (a >= times.size()) {
      take_ooo = true;
    } else if (b >= ooo_n) {
      take_ooo = false;
    } else if (times[a] < cap.ooo_times[b]) {
      take_ooo = false;
    } else if (times[a] > cap.ooo_times[b]) {
      take_ooo = true;
    } else {
      ++a;  // duplicate: the sealed point is superseded
      ++dropped;
      take_ooo = true;
    }
    int64_t t = take_ooo ? cap.ooo_times[b] : times[a];
    int64_t v = take_ooo ? cap.ooo_values[b] : values[a];
    if (take_ooo) {
      ++b;
    } else {
      ++a;
    }
    if (!cap.tombstones.empty() && IntervalsContain(cap.tombstones, t)) {
      ++dropped;
      continue;
    }
    mt.push_back(t);
    mv.push_back(v);
    if (take_ooo) ++merged_ooo;
  }

  // Was the pass worth anything? A span that decodes to the same points and
  // has no advisor work would be pure churn — but we only got here because
  // something was dirty, so rewrite unconditionally.
  uint8_t level = 0;
  for (size_t i = span_begin; i < span_end; ++i) {
    level = std::max(level, pages[i]->header.level);
  }
  if (level < 255) ++level;

  // Re-chunk into balanced pages: ceil(total/target) chunks sized within
  // one point of each other, so no undersized trailing page re-dirties the
  // series on the next pass.
  std::vector<std::shared_ptr<const Page>> new_pages;
  uint64_t bytes_out = 0, reencoded = 0;
  const size_t total = mt.size();
  if (total > 0) {
    size_t nchunks = (total + target - 1) / target;
    size_t base = total / nchunks, extra = total % nchunks;
    size_t offset = 0;
    for (size_t c = 0; c < nchunks; ++c) {
      size_t len = base + (c < extra ? 1 : 0);
      PageOptions popt = cap.options.page;
      const int64_t* words = mv.data() + offset;
      if (cap.is_float) {
        std::vector<double> doubles(len);
        std::memcpy(doubles.data(), words, len * sizeof(double));
        popt.value_encoding =
            advisor_.AdviseFloat(doubles.data(), len, popt.value_encoding)
                .encoding;
      } else {
        popt.value_encoding =
            advisor_.AdviseInt(words, len, popt.value_encoding,
                               popt.block_size)
                .encoding;
      }
      Result<Page> built =
          BuildPageFromWords(mt.data() + offset, words, len, popt);
      if (!built.ok()) {
        store_->AbortCompaction(name);
        return built.status();
      }
      Page page = std::move(built).value();
      page.header.level = level;
      page.header.tier = 1;
      if (page.header.value_encoding != cap.options.page.value_encoding) {
        ++reencoded;
      }
      bytes_out += page.encoded_bytes();
      new_pages.push_back(std::make_shared<const Page>(std::move(page)));
      offset += len;
    }
  }

  // Tombstones whose reach ends at or before the sealed maximum are now
  // physically applied: every overlapping page sat in the span (the dirty
  // rule put it there) and the tail starts strictly after the sealed
  // maximum, so nothing they could mask survives. Ranges reaching past the
  // sealed maximum keep masking the tail and stay.
  SeriesStore::CompactionInstall install;
  install.replace_begin = span_begin;
  install.replace_end = span_end;
  install.new_pages = std::move(new_pages);
  install.ooo_consumed = ooo_n;
  if (cap.sealed_max_time != INT64_MIN) {
    for (const TimeInterval& t : cap.explicit_tombstones) {
      if (t.hi <= cap.sealed_max_time) {
        install.tombstones_resolved.push_back(t);
      }
    }
  }

  uint64_t bytes_in = 0;
  for (size_t i = span_begin; i < span_end; ++i) {
    bytes_in += pages[i]->encoded_bytes();
  }
  size_t pages_out = install.new_pages.size();
  size_t tombs = install.tombstones_resolved.size();

  Status installed = store_->InstallCompaction(cap, std::move(install));
  if (!installed.ok()) {
    if (installed.code() == StatusCode::kAborted) {
      ++pass->installs_aborted;
      return Status::Ok();
    }
    return installed;
  }
  ++pass->series_compacted;
  pass->pages_in += span_end - span_begin;
  pass->pages_out += pages_out;
  pass->pages_reencoded += reencoded;
  pass->bytes_in += bytes_in;
  pass->bytes_out += bytes_out;
  pass->deleted_points_dropped += dropped;
  pass->tombstones_resolved += tombs;
  pass->ooo_points_merged += merged_ooo;
  return Status::Ok();
}

}  // namespace etsqp::storage
