#ifndef ETSQP_EXEC_PIPELINE_H_
#define ETSQP_EXEC_PIPELINE_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/column_decoder.h"
#include "exec/expr.h"
#include "storage/page.h"

namespace etsqp::exec {

/// Per-query execution switches: the evaluation's system variants map to
/// these (Section VII-A): ETSQP = {kEtsqp, prune off}; ETSQP-prune adds
/// prune; Serial = kSerial; SBoost = kSboost; FastLanes = kFastLanes over
/// FLMM1024-encoded pages.
///
/// kEtsqp is the integrated engine: Pipe asks Schedule()
/// (exec/kernel_schedule.h) for the kernel of every page class, and
/// operator fusion (Section IV) runs wherever FusedAggregate holds. Every
/// other strategy is a baseline pinned for the whole query, without fusion.
///
/// Construct with the named baseline constructors and refine with the
/// fluent setters:
///   PipelineOptions::Etsqp(4).WithPrune(true).WithStats(true)
struct PipelineOptions {
  DecodeStrategy strategy = DecodeStrategy::kEtsqp;
  bool prune = false;
  int threads = 1;
  /// Collect the per-stage ExecStats breakdown (timings, tuples, bytes).
  /// Off by default: instrumented code then skips every clock read.
  bool collect_stats = false;

  /// Canonical option sets for the evaluation baselines (Section VII-A).
  static PipelineOptions Etsqp(int threads = 1);
  static PipelineOptions EtsqpPrune(int threads = 1);
  static PipelineOptions Serial();
  static PipelineOptions Sboost(int threads = 1);
  static PipelineOptions FastLanes(int threads = 1);

  PipelineOptions& WithPrune(bool on) {
    prune = on;
    return *this;
  }
  PipelineOptions& WithThreads(int n) {
    threads = n;
    return *this;
  }
  PipelineOptions& WithStats(bool on) {
    collect_stats = on;
    return *this;
  }
};

/// Whether a kEtsqp aggregate of `func` over a `venc` value column runs a
/// fused reader (Section IV) instead of decoding: SUM/AVG/COUNT over
/// TS2DIFF or Delta-RLE, VAR over Delta-RLE (closed-form sum of squares),
/// and never under a value filter. Schedule() predicts etsqp.fused from
/// this same test (and for an unfiltered COUNT over any codec, which
/// AggValues answers from positions alone).
bool FusedAggregate(AggFunc func, enc::ColumnEncoding venc,
                    bool value_filter);

/// Algebraic aggregate accumulator: (sum, sum_sq, count, min, max) covers
/// SUM/AVG/COUNT/MIN/MAX/VAR. Sums are tracked in 128-bit and checked
/// against int64 on finalize (Section VI-C overflow behaviour).
struct AggAccum {
  __int128 sum = 0;
  __int128 sum_sq = 0;
  uint64_t count = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();

  void AddValue(int64_t v, bool need_sq) {
    sum += v;
    if (need_sq) sum_sq += static_cast<__int128>(v) * v;
    ++count;
    if (v < min) min = v;
    if (v > max) max = v;
  }
  void Merge(const AggAccum& o) {
    sum += o.sum;
    sum_sq += o.sum_sq;
    count += o.count;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }
  /// Final value of `func`; kOverflow when the exact sum exceeds int64.
  Status Finalize(AggFunc func, double* out) const;
};

/// The non-empty windows of a sliding-window aggregate: one run of
/// (window start, partial accumulator) in ascending start, the window
/// starting at s covering [s, s + dT). A page slice meets its windows in time order, so
/// Add appends or folds into the last window; the engine folds the runs of
/// its jobs in job order, and Merge is then an append whenever the next run
/// starts at or after the last key.
template <typename Accum>
class WindowRun {
 public:
  using Entry = std::pair<int64_t, Accum>;

  const std::vector<Entry>& entries() const { return entries_; }

  /// Folds `acc` into the window starting at `start`.
  void Add(int64_t start, const Accum& acc) {
    if (entries_.empty() || entries_.back().first < start) {
      entries_.emplace_back(start, acc);
    } else if (entries_.back().first == start) {
      entries_.back().second.Merge(acc);
    } else {
      WindowRun one;
      one.entries_.emplace_back(start, acc);
      Merge(one);
    }
  }

  /// Folds another ascending run into this one.
  void Merge(const WindowRun& o) {
    if (o.entries_.empty()) return;
    auto from = o.entries_.begin();
    if (!entries_.empty() && from->first == entries_.back().first) {
      entries_.back().second.Merge(from->second);
      ++from;
    }
    if (entries_.empty() || from == o.entries_.end() ||
        from->first > entries_.back().first) {
      entries_.insert(entries_.end(), from, o.entries_.end());
      return;
    }
    // The runs interleave: a two-pointer merge, equal keys folded.
    std::vector<Entry> out;
    out.reserve(entries_.size() + (o.entries_.end() - from));
    auto a = entries_.begin();
    while (a != entries_.end() || from != o.entries_.end()) {
      if (from == o.entries_.end() ||
          (a != entries_.end() && a->first < from->first)) {
        out.push_back(*a++);
      } else if (a == entries_.end() || from->first < a->first) {
        out.push_back(*from++);
      } else {
        out.push_back(*a++);
        out.back().second.Merge((from++)->second);
      }
    }
    entries_.swap(out);
  }

 private:
  std::vector<Entry> entries_;
};

/// Aggregates positions [begin, end) of `page` whose time lies in `trange`
/// and value in `vrange` — the Q1/Q3 pipeline over one page slice.
Status AggregateSlice(const storage::Page& page, size_t begin, size_t end,
                      const TimeRange& trange, const ValueRange& vrange,
                      AggFunc func, const PipelineOptions& opt,
                      AggAccum* accum, QueryStats* stats);

/// Sliding-window aggregation over one page slice in one forward pass: the
/// tuples whose time lies in `trange` (and at or after the window origin)
/// and whose value lies in `vrange` fold into `windows`, keyed by window
/// start. Window cuts are searched in the slice's times without an int64
/// copy: under opt.prune a constant-interval TS2DIFF time block is
/// positioned by arithmetic (Proposition 4) and never decodes; other time
/// blocks decode once into their narrow form when a cut falls in them. The
/// fused value readers carry their running value from one window to the
/// next.
Status AggregateSliceWindows(const storage::Page& page, size_t begin,
                             size_t end, const TimeRange& trange,
                             const ValueRange& vrange, const SlidingWindow& sw,
                             AggFunc func, const PipelineOptions& opt,
                             WindowRun<AggAccum>* windows, QueryStats* stats);

/// Float-series accumulator (double sums; Kahan-free: page-sized partials
/// merged in one pass keep error negligible for the supported scales).
struct FloatAggAccum {
  double sum = 0;
  double sum_sq = 0;
  uint64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void AddValue(double v, bool need_sq) {
    sum += v;
    if (need_sq) sum_sq += v * v;
    ++count;
    if (v < min) min = v;
    if (v > max) max = v;
  }
  void Merge(const FloatAggAccum& o) {
    sum += o.sum;
    sum_sq += o.sum_sq;
    count += o.count;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }
  Status Finalize(AggFunc func, double* out) const;
};

/// The positions [p0, p1) of `page` inside `trange`, intersected with the
/// slice [begin, end): a time search over the encoded column, timed as
/// the filter stage.
Status SlicePositions(const storage::Page& page, size_t begin, size_t end,
                      const TimeRange& trange, const PipelineOptions& opt,
                      size_t* p0, size_t* p1, QueryStats* stats);

/// Appends the (time, value) tuples of positions [begin, end) that satisfy
/// the filters — a sealed page's page vector in a SELECT / union / join /
/// projection / correlate merge node.
Status MaterializeSlice(const storage::Page& page, size_t begin, size_t end,
                        const TimeRange& trange, const ValueRange& vrange,
                        const PipelineOptions& opt,
                        std::vector<int64_t>* times,
                        std::vector<int64_t>* values, QueryStats* stats);

}  // namespace etsqp::exec

#endif  // ETSQP_EXEC_PIPELINE_H_
