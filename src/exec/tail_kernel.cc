#include "exec/tail_kernel.h"

#include <algorithm>

#include "common/metrics.h"

namespace etsqp::exec {

namespace {

using metrics::ScopedStageTimer;
using metrics::Stage;

metrics::StageBreakdown* StagesOf(const PipelineOptions& opt,
                                  QueryStats* stats) {
  return (opt.collect_stats && stats != nullptr) ? &stats->stages : nullptr;
}

/// [begin, end) positions whose time lies in `trange` (times are sorted).
void TimeBounds(const int64_t* times, size_t n, const TimeRange& trange,
                size_t* begin, size_t* end) {
  *begin = std::lower_bound(times, times + n, trange.lo) - times;
  *end = std::upper_bound(times, times + n, trange.hi) - times;
  if (*end < *begin) *end = *begin;  // empty range (lo > hi)
}

void CountScanned(QueryStats* stats, uint64_t n) {
  if (stats != nullptr) {
    stats->tuples_scanned += n;
    stats->tail_tuples_scanned += n;
  }
}

}  // namespace

void WindowBounds(const int64_t* times, size_t n, const TimeRange& trange,
                  const SlidingWindow& sw, size_t* begin, size_t* end) {
  TimeRange r = trange;
  r.lo = std::max(r.lo, sw.t_min);
  TimeBounds(times, n, r, begin, end);
}

Status TailAggregate(const int64_t* times, const int64_t* values, size_t n,
                     const TimeRange& trange, const ValueRange& vrange,
                     AggFunc func, const PipelineOptions& opt,
                     AggAccum* accum, QueryStats* stats) {
  size_t begin, end;
  TimeBounds(times, n, trange, &begin, &end);
  CountScanned(stats, end - begin);
  ScopedStageTimer timer(StagesOf(opt, stats), Stage::kAggregate);
  timer.AddTuples(end - begin);
  const bool need_sq = func == AggFunc::kVariance;
  for (size_t i = begin; i < end; ++i) {
    if (vrange.Contains(values[i])) accum->AddValue(values[i], need_sq);
  }
  return Status::Ok();
}

Status TailAggregateWindows(const int64_t* times, const int64_t* values,
                            size_t n, const TimeRange& trange,
                            const ValueRange& vrange, const SlidingWindow& sw,
                            AggFunc func, const PipelineOptions& opt,
                            std::map<int64_t, AggAccum>* windows,
                            QueryStats* stats) {
  size_t begin, end;
  WindowBounds(times, n, trange, sw, &begin, &end);
  CountScanned(stats, end - begin);
  ScopedStageTimer timer(StagesOf(opt, stats), Stage::kAggregate);
  timer.AddTuples(end - begin);
  AddToWindows(times, values, begin, end, vrange, sw,
               func == AggFunc::kVariance, windows);
  return Status::Ok();
}

Status TailAggregateF64(const int64_t* times, const double* values, size_t n,
                        const TimeRange& trange, const ValueRange& vrange,
                        AggFunc func, const PipelineOptions& opt,
                        FloatAggAccum* accum, QueryStats* stats) {
  size_t begin, end;
  TimeBounds(times, n, trange, &begin, &end);
  CountScanned(stats, end - begin);
  ScopedStageTimer timer(StagesOf(opt, stats), Stage::kAggregate);
  timer.AddTuples(end - begin);
  const bool need_sq = func == AggFunc::kVariance;
  for (size_t i = begin; i < end; ++i) {
    double v = values[i];
    // The value filter compares doubles against the int64 range, mirroring
    // AggregateFloatSlice.
    if (vrange.active && (v < static_cast<double>(vrange.lo) ||
                          v > static_cast<double>(vrange.hi))) {
      continue;
    }
    accum->AddValue(v, need_sq);
  }
  return Status::Ok();
}

Status TailAggregateWindowsF64(const int64_t* times, const double* values,
                               size_t n, const TimeRange& trange,
                               const ValueRange& vrange,
                               const SlidingWindow& sw, AggFunc func,
                               const PipelineOptions& opt,
                               std::map<int64_t, FloatAggAccum>* windows,
                               QueryStats* stats) {
  size_t begin, end;
  WindowBounds(times, n, trange, sw, &begin, &end);
  CountScanned(stats, end - begin);
  ScopedStageTimer timer(StagesOf(opt, stats), Stage::kAggregate);
  timer.AddTuples(end - begin);
  AddToWindows(times, values, begin, end, vrange, sw,
               func == AggFunc::kVariance, windows);
  return Status::Ok();
}

Status TailMaterialize(const int64_t* times, const int64_t* values, size_t n,
                       const TimeRange& trange, const ValueRange& vrange,
                       const PipelineOptions& opt,
                       std::vector<int64_t>* out_times,
                       std::vector<int64_t>* out_values, QueryStats* stats) {
  size_t begin, end;
  TimeBounds(times, n, trange, &begin, &end);
  // Both columns are inspected, matching MaterializeSlice's accounting.
  CountScanned(stats, 2 * (end - begin));
  ScopedStageTimer timer(StagesOf(opt, stats), Stage::kFilter);
  timer.AddTuples(end - begin);
  for (size_t i = begin; i < end; ++i) {
    if (!vrange.Contains(values[i])) continue;
    out_times->push_back(times[i]);
    out_values->push_back(values[i]);
  }
  return Status::Ok();
}

}  // namespace etsqp::exec
