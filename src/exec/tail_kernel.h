#ifndef ETSQP_EXEC_TAIL_KERNEL_H_
#define ETSQP_EXEC_TAIL_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "exec/pipeline.h"

namespace etsqp::exec {

/// Scalar kernels over the unsealed in-memory tail of a series snapshot
/// (storage::SeriesSnapshot::tail_*). The tail is raw, unencoded and small
/// (bounded by the page size times the in-flight seal count), so a scalar
/// pass is the right tool — the SIMD pipelines earn their keep on encoded
/// pages. Times are strictly increasing (Definition 1), which the kernels
/// exploit by binary-searching the time-range bounds.
///
/// Stats: processed tuples count into tuples_scanned like the page kernels,
/// and additionally into tail_tuples_scanned so EXPLAIN ANALYZE can show
/// how much of a query was served from the tail.

Status TailAggregate(const int64_t* times, const int64_t* values, size_t n,
                     const TimeRange& trange, const ValueRange& vrange,
                     AggFunc func, const PipelineOptions& opt,
                     AggAccum* accum, QueryStats* stats);

/// Sliding-window aggregation over the tuples inside `trange` (and at or
/// after the window origin) whose value passes `vrange`.
Status TailAggregateWindows(const int64_t* times, const int64_t* values,
                            size_t n, const TimeRange& trange,
                            const ValueRange& vrange, const SlidingWindow& sw,
                            AggFunc func, const PipelineOptions& opt,
                            std::map<int64_t, AggAccum>* windows,
                            QueryStats* stats);

Status TailAggregateF64(const int64_t* times, const double* values, size_t n,
                        const TimeRange& trange, const ValueRange& vrange,
                        AggFunc func, const PipelineOptions& opt,
                        FloatAggAccum* accum, QueryStats* stats);

Status TailAggregateWindowsF64(const int64_t* times, const double* values,
                               size_t n, const TimeRange& trange,
                               const ValueRange& vrange,
                               const SlidingWindow& sw, AggFunc func,
                               const PipelineOptions& opt,
                               std::map<int64_t, FloatAggAccum>* windows,
                               QueryStats* stats);

/// Appends the filtered (time, value) tuples of the tail — the tail's page
/// vector in a SELECT / union / join / correlate merge node.
Status TailMaterialize(const int64_t* times, const int64_t* values, size_t n,
                       const TimeRange& trange, const ValueRange& vrange,
                       const PipelineOptions& opt,
                       std::vector<int64_t>* out_times,
                       std::vector<int64_t>* out_values, QueryStats* stats);

/// Positions [*begin, *end) of the sorted `times[0, n)` that a windowed
/// aggregate reads: inside `trange` and at or after window 0's start.
void WindowBounds(const int64_t* times, size_t n, const TimeRange& trange,
                  const SlidingWindow& sw, size_t* begin, size_t* end);

/// The value filter on a decoded value: integers compare exactly, doubles
/// against the widened int64 bounds (a NaN passes, as in every float
/// drain).
inline bool PassesValueFilter(const ValueRange& vrange, int64_t v) {
  return vrange.Contains(v);
}
inline bool PassesValueFilter(const ValueRange& vrange, double v) {
  return !vrange.active || !(v < static_cast<double>(vrange.lo) ||
                             v > static_cast<double>(vrange.hi));
}

/// Folds values[i], i in [begin, end) of sorted `times`, that pass `vrange`
/// into their windows. A window appears only once a value passes, so the
/// answer never depends on page boundaries or header pruning.
template <typename Accum, typename Value>
void AddToWindows(const int64_t* times, const Value* values, size_t begin,
                  size_t end, const ValueRange& vrange,
                  const SlidingWindow& sw, bool need_sq,
                  std::map<int64_t, Accum>* windows) {
  size_t pos = begin;
  while (pos < end) {
    const int64_t k = sw.WindowIndex(times[pos]);
    const size_t pend =
        std::lower_bound(times + pos, times + end, sw.WindowStart(k + 1)) -
        times;
    Accum acc;
    for (size_t i = pos; i < pend; ++i) {
      if (PassesValueFilter(vrange, values[i])) acc.AddValue(values[i], need_sq);
    }
    if (acc.count > 0) (*windows)[k].Merge(acc);
    pos = pend;
  }
}

}  // namespace etsqp::exec

#endif  // ETSQP_EXEC_TAIL_KERNEL_H_
