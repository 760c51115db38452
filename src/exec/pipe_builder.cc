#include "exec/pipe_builder.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "storage/page.h"

namespace etsqp::exec {

DecisionCache::DecisionCache(const LogicalPlan& plan,
                             const PipelineOptions& options,
                             PipelineSpec* spec)
    : enabled_(options.strategy == DecodeStrategy::kEtsqp),
      ctx_(MakePlanContext(plan)),
      spec_(spec) {}

int DecisionCache::Decide(const PageClass& cls) {
  if (!enabled_) return -1;
  std::string key = cls.Key();
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  int idx = static_cast<int>(spec_->decisions.size());
  spec_->decisions.push_back(Schedule(cls, ctx_));
  index_.emplace(std::move(key), idx);
  return idx;
}

void DecisionCache::Cover(int idx, uint64_t pages, uint64_t tuples) {
  if (idx < 0) return;
  spec_->decisions[idx].pages += pages;
  spec_->decisions[idx].tuples += tuples;
}

namespace {

/// Effective time range of the plan (explicit filter intersected with the
/// sliding-window span, which bounds qualifying timestamps from below).
TimeRange EffectiveTimeRange(const LogicalPlan& plan) {
  TimeRange r = plan.time_filter;
  if (plan.window.active) r.lo = std::max(r.lo, plan.window.t_min);
  return r;
}

/// The query's value bounds in the shared pruning key domain: raw int64
/// for integer series, OrderedValueKey of the SQL literals for float
/// series (inclusive, so a strict bound prunes conservatively). Float page
/// headers carry bit-cast doubles — comparing them as raw int64 is wrong
/// for negative values (and NaN would mis-prune), so every header compare
/// goes through this one domain.
void QueryValueKeys(const ValueRange& vrange, bool is_float, int64_t* q_lo,
                    int64_t* q_hi) {
  if (is_float) {
    *q_lo = storage::OrderedValueKey(vrange.LoF64());
    *q_hi = storage::OrderedValueKey(vrange.HiF64());
  } else {
    *q_lo = vrange.lo;
    *q_hi = vrange.hi;
  }
}

/// The pages of one input that survive header pruning, in page order.
struct SurvivingPages {
  std::vector<size_t> indices;
  std::vector<char> masked;
};

/// The page walk (header pruning of Algorithm 2) over the snapshot's page
/// headers — resident for every store, so no payload is read here. A page
/// whose whole [min_time, max_time] sits inside a tombstone is pruned like
/// a header miss; a partially covered page survives but is flagged masked
/// (decoded whole, deleted tuples dropped before the raw-array drain).
void CollectPages(const storage::SeriesSnapshot& snap, const TimeRange& trange,
                  const ValueRange& vrange, bool prune_values,
                  SurvivingPages* out, QueryStats* stats) {
  const bool value_active = prune_values && vrange.active;
  int64_t q_lo = 0, q_hi = 0;
  if (value_active) QueryValueKeys(vrange, snap.is_float, &q_lo, &q_hi);
  const std::vector<storage::TimeInterval>& tombstones = snap.tombstones;
  for (size_t p = 0; p < snap.pages.size(); ++p) {
    const storage::PageHeader& h = snap.pages[p]->header;
    ++stats->pages_total;
    stats->tuples_in_pages += h.count;
    if (!trange.Overlaps(h.min_time, h.max_time)) {
      ++stats->pages_pruned;
      continue;
    }
    bool masked = false;
    if (!tombstones.empty() &&
        storage::IntervalsOverlap(tombstones, h.min_time, h.max_time)) {
      if (storage::IntervalsCover(tombstones, h.min_time, h.max_time)) {
        ++stats->pages_pruned;
        ++stats->pages_pruned_deleted;
        continue;
      }
      masked = true;
    }
    // Header value stats are not valid filters on a masked page: the
    // surviving (non-deleted) subset may have a tighter range.
    if (!masked && value_active) {
      int64_t lo, hi;
      if (storage::HeaderValueKeys(h, snap.is_float, &lo, &hi) &&
          (hi < q_lo || lo > q_hi)) {
        ++stats->pages_pruned;
        continue;
      }
    }
    stats->bytes_loaded += h.time_bytes + h.value_bytes;
    out->indices.push_back(p);
    out->masked.push_back(masked ? 1 : 0);
  }
}

/// Turns the surviving pages of input `in` into jobs: one kernel
/// decision per page class, masked pages whole, the rest sliced across
/// `threads` cores (Lines 5-6 of Algorithm 2; a single core never slices).
/// A lazily loaded input never slices either: whole-page jobs keep one
/// buffer-pool fetch per page. Nor does a float input: a float page
/// decodes whole (its XOR value column is one serial stream), so each
/// slice would decode the whole page again.
void AppendPageJobs(int in, const SurvivingPages& kept,
                    const storage::SeriesSnapshot& snap, int threads,
                    DecisionCache* decisions, PipelineSpec* spec) {
  auto header_at = [&snap](size_t p) -> const storage::PageHeader& {
    return snap.pages[p]->header;
  };
  auto push = [&](size_t page, size_t begin, size_t end, int decision,
                  bool masked) {
    const storage::PageHeader& h = header_at(page);
    spec->jobs.push_back(PipeJob{.input = in,
                                 .page_index = page,
                                 .begin = begin,
                                 .end = end,
                                 .decision = decision,
                                 .masked = masked,
                                 .min_time = h.min_time,
                                 .max_time = h.max_time});
  };
  if (snap.lazy() || snap.is_float) threads = 1;
  // Kernel choice per surviving page (memoized per page class). Masked
  // pages get none: they decode whole and drain as raw arrays,
  // not through a scheduled kernel.
  std::vector<int> page_decisions(kept.indices.size(), -1);
  for (size_t p = 0; p < kept.indices.size(); ++p) {
    if (kept.masked[p] != 0) continue;
    const storage::PageHeader& h = header_at(kept.indices[p]);
    page_decisions[p] = decisions->Decide(ClassifyPage(h));
    decisions->Cover(page_decisions[p], 1, h.count);
  }
  // Only unmasked pages slice; masked pages run whole (one job each),
  // merged back in page order so each input's jobs stay in time order.
  std::vector<size_t> slice_counts;
  std::vector<size_t> slice_pos;  // position within kept.indices
  for (size_t p = 0; p < kept.indices.size(); ++p) {
    if (kept.masked[p] != 0) continue;
    slice_pos.push_back(p);
    slice_counts.push_back(header_at(kept.indices[p]).count);
  }
  std::vector<PageSlice> slices = PlanSlices(slice_counts, threads, 1024);
  size_t cursor = 0;  // slices arrive ordered by page then begin
  for (size_t p = 0; p < kept.indices.size(); ++p) {
    if (kept.masked[p] != 0) {
      push(kept.indices[p], 0, header_at(kept.indices[p]).count, -1, true);
      continue;
    }
    while (cursor < slices.size() &&
           slice_pos[slices[cursor].page_index] == p) {
      const PageSlice& s = slices[cursor];
      push(kept.indices[p], s.begin, s.end, page_decisions[p], false);
      ++cursor;
    }
  }
}

/// Cuts a merge plan's time axis into range jobs: one range at a single
/// thread; else up to `threads`, cut at page starts once the pages before
/// a cut hold their share of the surviving tuples. Each range then takes
/// every job of each input that overlaps it.
void PlanRanges(size_t num_inputs, int threads, PipelineSpec* spec) {
  std::vector<int64_t> cuts;
  if (threads > 1 && !spec->jobs.empty()) {
    std::vector<std::pair<int64_t, uint64_t>> starts;  // (min_time, tuples)
    uint64_t total = 0;
    for (const PipeJob& j : spec->jobs) {
      starts.emplace_back(j.min_time, j.end - j.begin);
      total += j.end - j.begin;
    }
    std::sort(starts.begin(), starts.end());
    const uint64_t n = static_cast<uint64_t>(threads);
    uint64_t acc = 0, k = 1;
    for (const auto& [t, tuples] : starts) {
      if (k < n && acc * n >= total * k && t > starts.front().first &&
          (cuts.empty() || t > cuts.back())) {
        cuts.push_back(t);
        while (k < n && acc * n >= total * k) ++k;
      }
      acc += tuples;
    }
  }
  spec->ranges.assign(cuts.size() + 1, RangeJob{});
  for (size_t r = 0; r < spec->ranges.size(); ++r) {
    RangeJob& range = spec->ranges[r];
    if (r > 0) range.lo = cuts[r - 1];
    if (r < cuts.size()) range.hi = cuts[r] - 1;
    for (size_t in = 0; in < num_inputs; ++in) {
      size_t first = spec->jobs.size(), last = 0;
      for (size_t j = 0; j < spec->jobs.size(); ++j) {
        const PipeJob& job = spec->jobs[j];
        if (job.input != static_cast<int>(in) || job.max_time < range.lo ||
            job.min_time > range.hi) {
          continue;
        }
        first = std::min(first, j);
        last = j + 1;
        range.tuples[in] += job.end - job.begin;
      }
      range.first[in] = std::min(first, last);
      range.last[in] = last;
    }
  }
}

/// Tail analogue of the page-header check: snapshot-captured min/max stats
/// decide whether the tail can contribute at all.
bool TailSurvivesPruning(const storage::SeriesSnapshot& snap,
                         const TimeRange& trange, const ValueRange& vrange,
                         bool prune_values) {
  if (!trange.Overlaps(snap.tail_min_time(), snap.tail_max_time())) {
    return false;
  }
  if (prune_values && vrange.active) {
    if (snap.is_float) {
      if (snap.tail_max_value_f64 < vrange.LoF64() ||
          snap.tail_min_value_f64 > vrange.HiF64()) {
        return false;
      }
    } else if (snap.tail_max_value < vrange.lo ||
               snap.tail_min_value > vrange.hi) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<std::vector<storage::SeriesSnapshot>> ResolveInputs(
    const LogicalPlan& plan, const storage::SeriesStore& store) {
  return ResolveInputs(plan, [&store](const std::string& name) {
    return store.GetSnapshot(name);
  });
}

Result<std::vector<storage::SeriesSnapshot>> ResolveInputs(
    const LogicalPlan& plan, const SnapshotResolver& resolve) {
  std::vector<storage::SeriesSnapshot> inputs;
  Result<storage::SeriesSnapshot> left = resolve(plan.series);
  if (!left.ok()) return left.status();
  inputs.push_back(std::move(left).value());
  if (plan.kind == LogicalPlan::Kind::kProjectBinary ||
      plan.kind == LogicalPlan::Kind::kUnion ||
      plan.kind == LogicalPlan::Kind::kJoin ||
      plan.kind == LogicalPlan::Kind::kCorrelate) {
    Result<storage::SeriesSnapshot> right = resolve(plan.series_right);
    if (!right.ok()) return right.status();
    inputs.push_back(std::move(right).value());
  }
  return inputs;
}

Result<PipelineSpec> BuildPipeline(
    const LogicalPlan& plan,
    const std::vector<storage::SeriesSnapshot>& inputs,
    const PipelineOptions& options) {
  PipelineSpec spec;
  TimeRange trange = EffectiveTimeRange(plan);
  DecisionCache decisions(plan, options, &spec);
  // Merge plans decode whole pages: the merge node walks them in time
  // order, and parallelism comes from its range jobs instead of slices.
  const bool merge_plan = plan.kind != LogicalPlan::Kind::kAggregate;

  for (size_t in = 0; in < inputs.size(); ++in) {
    const storage::SeriesSnapshot& snap = inputs[in];
    SurvivingPages kept;
    CollectPages(snap, trange, plan.value_filter, options.prune, &kept,
                 &spec.plan_stats);
    AppendPageJobs(static_cast<int>(in), kept, snap,
                   merge_plan ? 1 : options.threads, &decisions, &spec);
    // The unsealed tail rides behind the sealed pages of its input: one
    // raw-array job, emitted last so the input's jobs stay in time order. Tail
    // tuples count into tuples_in_pages (they are part of the scan's input
    // volume) and into the tail_tuples breakout.
    if (snap.has_tail()) {
      spec.plan_stats.tuples_in_pages += snap.tail_times.size();
      spec.plan_stats.tail_tuples += snap.tail_times.size();
      if (TailSurvivesPruning(snap, trange, plan.value_filter,
                              options.prune)) {
        int tail_decision = decisions.Decide(ClassifyTail(snap));
        decisions.Cover(tail_decision, 0, snap.tail_times.size());
        spec.jobs.push_back(PipeJob{.input = static_cast<int>(in),
                                    .end = snap.tail_times.size(),
                                    .tail = true,
                                    .decision = tail_decision,
                                    .min_time = snap.tail_min_time(),
                                    .max_time = snap.tail_max_time()});
      }
    }
  }
  // Multi-input plans end in a merge stage; plan its kernel through the
  // Schedule() like any page class. The stage sees every surviving input
  // tuple once, so it covers the tuples of the surviving jobs.
  if (inputs.size() > 1) {
    spec.merge_decision =
        decisions.Decide(ClassifyMerge(static_cast<int>(inputs.size())));
    uint64_t surviving = 0;
    for (const PipeJob& job : spec.jobs) surviving += job.end - job.begin;
    decisions.Cover(spec.merge_decision, 0, surviving);
  }
  if (merge_plan) PlanRanges(inputs.size(), options.threads, &spec);
  return spec;
}

Result<PipelineSpec> BuildPipeline(const LogicalPlan& plan,
                                   const storage::SeriesStore& store,
                                   const PipelineOptions& options) {
  Result<std::vector<storage::SeriesSnapshot>> inputs =
      ResolveInputs(plan, store);
  if (!inputs.ok()) return inputs.status();
  return BuildPipeline(plan, inputs.value(), options);
}

}  // namespace etsqp::exec
