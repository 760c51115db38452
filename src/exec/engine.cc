#include "exec/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <type_traits>

#include "common/bit_util.h"
#include "common/metrics.h"
#include "encoding/delta_rle.h"
#include "exec/explain.h"
#include "exec/fusion.h"
#include "exec/pipe_builder.h"
#include "exec/pipeline_job.h"
#include "simd/filter_simd.h"
#include "simd/merge_simd.h"
#include "storage/page_builder.h"

namespace etsqp::exec {

namespace {

using metrics::ScopedStageTimer;
using metrics::Stage;

metrics::StageBreakdown* StagesOf(const PipelineOptions& opt,
                                  QueryStats* stats) {
  return (opt.collect_stats && stats != nullptr) ? &stats->stages : nullptr;
}

/// Realizes one job's kernel decision: the effective options the kernels
/// run with (the decision's strategy), plus the timing needed to score the
/// prediction afterwards. Jobs without a decision (a pinned strategy, a
/// masked page) run the engine's base options untouched.
struct JobSchedule {
  PipelineOptions options;
  const ScheduleDecision* decision = nullptr;
  uint64_t start_nanos = 0;

  JobSchedule(const PipelineOptions& base, const PipelineSpec& spec,
              const PipeJob& job)
      : options(base) {
    if (job.decision >= 0) {
      decision = &spec.decisions[job.decision];
      options.strategy = decision->strategy;
    }
    if (decision != nullptr && base.collect_stats) {
      start_nanos = metrics::NowNanos();
    }
  }

  /// Call after the kernel, before merging `local` into the run stats.
  void Note(const PipeJob& job, QueryStats* local) const {
    if (decision == nullptr || start_nanos == 0) return;
    NoteDecisionOutcome(*decision, job.end - job.begin,
                        metrics::NowNanos() - start_nanos, local);
  }
};

/// The aggregate state of one job, of the merged run and of finalize: the
/// plan's total plus its windows, one ascending run. `Accum` is AggAccum
/// for integer series, FloatAggAccum for float series.
template <typename Accum>
struct AggSink {
  using Value = std::conditional_t<std::is_same_v<Accum, AggAccum>, int64_t,
                                   double>;
  Accum total;
  WindowRun<Accum> windows;

  void Merge(const AggSink& o) {
    total.Merge(o.total);
    windows.Merge(o.windows);
  }

  /// Emits the result rows: one per non-empty window, or the total.
  Status Finish(const LogicalPlan& plan, QueryResult* result) const {
    if (!plan.window.active) {
      result->column_names = {AggFuncName(plan.func)};
      result->columns.assign(1, {});
      double v = 0;
      Status st = total.Finalize(plan.func, &v);
      if (st.code() == StatusCode::kOverflow) return st;
      if (st.ok()) result->columns[0].push_back(v);
      return Status::Ok();
    }
    result->column_names = {"window_start", AggFuncName(plan.func)};
    result->columns.assign(2, {});
    for (const auto& [start, acc] : windows.entries()) {
      double v = 0;
      Status st = acc.Finalize(plan.func, &v);
      if (st.code() == StatusCode::kOverflow) return st;
      if (!st.ok()) continue;  // empty window
      result->columns[0].push_back(static_cast<double>(start));
      result->columns[1].push_back(v);
    }
    return Status::Ok();
  }
};

/// One input's page vector inside a merge node: the decoded (time, value)
/// tuples of one page that pass the value filter and `trange` (the plan's
/// time filter, clipped to the range job when the page straddles a cut).
/// Reused page after page, so it stays cache-resident.
struct PageVector {
  using Value = int64_t;
  TimeRange trange;
  std::vector<int64_t> times;
  std::vector<int64_t> values;
};

// Encoded int page slice -> sink: the vectorized kernels, named once each.
Status DrainSlice(const storage::Page& page, size_t begin, size_t end,
                  const LogicalPlan& plan, const PipelineOptions& opt,
                  AggSink<AggAccum>* sink, QueryStats* stats) {
  return plan.window.active
             ? AggregateSliceWindows(page, begin, end, plan.time_filter,
                                     plan.value_filter, plan.window, plan.func,
                                     opt, &sink->windows, stats)
             : AggregateSlice(page, begin, end, plan.time_filter,
                              plan.value_filter, plan.func, opt, &sink->total,
                              stats);
}

Status DrainSlice(const storage::Page& page, size_t begin, size_t end,
                  const LogicalPlan& plan, const PipelineOptions& opt,
                  PageVector* sink, QueryStats* stats) {
  return MaterializeSlice(page, begin, end, sink->trange, plan.value_filter,
                          opt, &sink->times, &sink->values, stats);
}

/// The value filter on a decoded value: integers against the folded
/// bounds, doubles against the SQL literals with each bound's strictness
/// (a NaN passes, as in every float drain).
bool PassesValueFilter(const ValueRange& vrange, int64_t v) {
  return vrange.Contains(v);
}
bool PassesValueFilter(const ValueRange& vrange, double v) {
  return vrange.ContainsF64(v);
}

/// Raw (time, value) arrays -> sink: the one scalar drain for every job the
/// slice kernels do not take. The XOR float codecs and a raw tail give the
/// vector units nothing to do. `times` ascend (Definition 1), so the time
/// filter is two binary searches. An aggregate folds the passing values
/// into its total or windows. A page vector appends them, and counts both
/// columns as scanned, like MaterializeSlice.
template <typename Value, typename Sink>
Status DrainRaw(const int64_t* times, const Value* values, size_t n,
                const LogicalPlan& plan, const PipelineOptions& opt,
                Sink* sink, QueryStats* stats) {
  constexpr bool kRows = std::is_same_v<Sink, PageVector>;
  TimeRange trange = plan.time_filter;
  if constexpr (kRows) {
    trange = sink->trange;
  } else if (plan.window.active) {
    trange.lo = std::max(trange.lo, plan.window.t_min);
  }
  const size_t begin = std::lower_bound(times, times + n, trange.lo) - times;
  const size_t end = std::max<size_t>(
      begin, std::upper_bound(times, times + n, trange.hi) - times);
  stats->tuples_scanned += (kRows ? 2 : 1) * (end - begin);
  ScopedStageTimer timer(StagesOf(opt, stats),
                         kRows ? Stage::kFilter : Stage::kAggregate);
  timer.AddTuples(end - begin);
  const ValueRange& vrange = plan.value_filter;
  if constexpr (kRows) {
    for (size_t i = begin; i < end; ++i) {
      if (!PassesValueFilter(vrange, values[i])) continue;
      sink->times.push_back(times[i]);
      sink->values.push_back(values[i]);
    }
  } else {
    const bool need_sq = plan.func == AggFunc::kVariance;
    if (!plan.window.active) {
      for (size_t i = begin; i < end; ++i) {
        if (PassesValueFilter(vrange, values[i])) {
          sink->total.AddValue(values[i], need_sq);
        }
      }
      return Status::Ok();
    }
    const SlidingWindow& sw = plan.window;
    size_t pos = begin;
    while (pos < end) {
      const int64_t start = sw.WindowStartOf(times[pos]);
      const __int128 next = sw.NextWindowStart(start);
      const size_t pend =
          next > std::numeric_limits<int64_t>::max()
              ? end
              : std::lower_bound(times + pos, times + end,
                                 static_cast<int64_t>(next)) -
                    times;
      decltype(sink->total) acc;
      for (size_t i = pos; i < pend; ++i) {
        if (PassesValueFilter(vrange, values[i])) {
          acc.AddValue(values[i], need_sq);
        }
      }
      // A window appears only once a value passes, so the answer never
      // depends on page boundaries or header pruning.
      if (acc.count > 0) sink->windows.Add(start, acc);
      pos = pend;
    }
  }
  return Status::Ok();
}

/// The snapshot's unsealed tail values of type `Value`.
template <typename Value>
const Value* TailValues(const storage::SeriesSnapshot& snap) {
  if constexpr (std::is_same_v<Value, double>) {
    return snap.tail_values_f64.data();
  } else {
    return snap.tail_values.data();
  }
}

/// The page behind a job — the one accessor every job reads pages through.
/// Resident pages come straight from the snapshot; a lazily loaded input
/// fetches the payload through its store's buffer pool, timed as the
/// page_fetch stage.
Result<std::shared_ptr<const storage::Page>> JobPage(
    const storage::SeriesSnapshot& snap, size_t index,
    const PipelineOptions& opt, QueryStats* stats) {
  if (!snap.lazy()) return snap.pages[index];
  ScopedStageTimer fetch(StagesOf(opt, stats), Stage::kPageFetch);
  Result<std::shared_ptr<const storage::Page>> page = snap.load_page(index);
  if (page.ok()) {
    fetch.AddTuples(page.value()->header.count);
    fetch.AddBytes(page.value()->encoded_bytes());
  }
  return page;
}

/// Decodes a whole page into raw arrays for DrainRaw: a float page, or a
/// tombstone-masked page (`tombstones` non-null), whose deleted timestamps
/// are dropped in place. The next compaction erases the mask and restores
/// the slice kernels. The time column, and an int value column, decode
/// with the job's strategy; the whole decode is the unpack stage.
template <typename Value>
Status DecodePage(const storage::Page& page,
                  const std::vector<storage::TimeInterval>* tombstones,
                  const PipelineOptions& opt, std::vector<int64_t>* times,
                  std::vector<Value>* values, QueryStats* stats) {
  const uint32_t n = page.header.count;
  times->resize(n);
  values->resize(n);
  {
    ScopedStageTimer timer(StagesOf(opt, stats), Stage::kUnpack);
    timer.AddTuples(n);
    timer.AddBytes(page.encoded_bytes());
    DecodedColumn col;
    ETSQP_RETURN_IF_ERROR(DecodeColumn(
        page.time_data.data(), page.time_data.size(),
        page.header.time_encoding, n, opt.strategy, &col));
    col.Materialize(times->data());
    if constexpr (std::is_same_v<Value, double>) {
      ETSQP_RETURN_IF_ERROR(storage::DecodePageColumnF64(
          page.value_data.data(), page.value_data.size(),
          page.header.value_encoding, n, values->data()));
    } else {
      ETSQP_RETURN_IF_ERROR(DecodeColumn(
          page.value_data.data(), page.value_data.size(),
          page.header.value_encoding, n, opt.strategy, &col));
      col.Materialize(values->data());
    }
  }
  if (tombstones == nullptr) return Status::Ok();
  // Two-pointer filter: page times ascend, tombstones are sorted/disjoint.
  size_t w = 0, ti = 0;
  for (size_t i = 0; i < n; ++i) {
    int64_t t = (*times)[i];
    while (ti < tombstones->size() && (*tombstones)[ti].hi < t) ++ti;
    if (ti < tombstones->size() && t >= (*tombstones)[ti].lo) continue;
    (*times)[w] = t;
    (*values)[w] = (*values)[i];
    ++w;
  }
  stats->tuples_scanned += n - w;
  stats->deleted_tuples_masked += n - w;
  times->resize(w);
  values->resize(w);
  return Status::Ok();
}

/// Runs one pipeline job into `sink`. A sealed, unmasked int page slice
/// runs the vectorized slice kernels. Everything else drains as raw arrays
/// through DrainRaw: the unsealed tail, and a masked or float page decoded
/// whole.
template <typename Sink>
Status DrainJob(const PipeJob& job, const storage::SeriesSnapshot& snap,
                const LogicalPlan& plan, const PipelineOptions& opt,
                Sink* sink, QueryStats* stats) {
  using Value = typename Sink::Value;
  if (job.tail) {
    const uint64_t scanned = stats->tuples_scanned;
    Status st = DrainRaw(snap.tail_times.data(), TailValues<Value>(snap),
                         snap.tail_times.size(), plan, opt, sink, stats);
    stats->tail_tuples_scanned += stats->tuples_scanned - scanned;
    return st;
  }
  Result<std::shared_ptr<const storage::Page>> page =
      JobPage(snap, job.page_index, opt, stats);
  if (!page.ok()) return page.status();
  if constexpr (std::is_same_v<Value, int64_t>) {
    if (!job.masked) {
      return DrainSlice(*page.value(), job.begin, job.end, plan, opt, sink,
                        stats);
    }
  }
  std::vector<int64_t> times;
  std::vector<Value> values;
  ETSQP_RETURN_IF_ERROR(DecodePage(*page.value(),
                                   job.masked ? &snap.tombstones : nullptr,
                                   opt, &times, &values, stats));
  return DrainRaw(times.data(), values.data(), times.size(), plan, opt, sink,
                  stats);
}

/// Aggregation over one input: every job drains into its own sink; the
/// merge stage folds the sinks in job order — time order, so window runs
/// append — and finalizes.
template <typename Accum>
Result<QueryResult> RunAggregate(const LogicalPlan& plan,
                                 const storage::SeriesSnapshot& snap,
                                 const PipelineSpec& spec,
                                 const PipelineOptions& options) {
  QueryResult result;
  result.stats = spec.plan_stats;
  std::mutex mu;
  std::vector<AggSink<Accum>> sinks(spec.jobs.size());
  QueryStats run_stats;

  PipelineJobSet set;
  set.num_jobs = spec.jobs.size();
  set.job = [&](size_t i) -> Status {
    const PipeJob& job = spec.jobs[i];
    JobSchedule sched(options, spec, job);
    QueryStats local_stats;
    Status st =
        DrainJob(job, snap, plan, sched.options, &sinks[i], &local_stats);
    sched.Note(job, &local_stats);
    std::lock_guard<std::mutex> lock(mu);
    run_stats.Merge(local_stats);
    return st;
  };
  set.merge = [&]() -> Status {
    result.stats.Merge(run_stats);
    ScopedStageTimer merge_timer(StagesOf(options, &result.stats),
                                 Stage::kMerge);
    AggSink<Accum> merged;
    for (const AggSink<Accum>& sink : sinks) merged.Merge(sink);
    return merged.Finish(plan, &result);
  };
  ETSQP_RETURN_IF_ERROR(RunPipelineJobs(set, options, &result.stats));
  result.stats.result_tuples = result.num_rows();
  return result;
}

/// Pearson correlation / covariance accumulator over aligned pairs.
struct CorrAccum {
  __int128 sum_a = 0;
  __int128 sum_b = 0;
  __int128 sum_a2 = 0;
  __int128 sum_b2 = 0;
  __int128 sum_ab = 0;
  uint64_t n = 0;

  void Add(int64_t a, int64_t b) {
    sum_a += a;
    sum_b += b;
    sum_a2 += static_cast<__int128>(a) * a;
    sum_b2 += static_cast<__int128>(b) * b;
    sum_ab += static_cast<__int128>(a) * b;
    ++n;
  }
  void Merge(const CorrAccum& o) {
    sum_a += o.sum_a;
    sum_b += o.sum_b;
    sum_a2 += o.sum_a2;
    sum_b2 += o.sum_b2;
    sum_ab += o.sum_ab;
    n += o.n;
  }

  void Finish(QueryResult* result) const {
    result->column_names = {"corr", "cov", "n"};
    result->columns.assign(3, {});
    if (n == 0) return;
    double dn = static_cast<double>(n);
    double ma = static_cast<double>(sum_a) / dn;
    double mb = static_cast<double>(sum_b) / dn;
    double cov = static_cast<double>(sum_ab) / dn - ma * mb;
    double va = static_cast<double>(sum_a2) / dn - ma * ma;
    double vb = static_cast<double>(sum_b2) / dn - mb * mb;
    double denom = std::sqrt(va) * std::sqrt(vb);
    result->columns[0].push_back(denom > 0 ? cov / denom : 0.0);
    result->columns[1].push_back(cov);
    result->columns[2].push_back(dn);
  }
};

/// Section IV's fused CORR over one page pair with identical time columns
/// and Delta-RLE value columns: closed-form SUM, SUM^2 (FusedAggDeltaRle)
/// and the cross-product polynomial (FusedCrossDeltaRle), no decoding.
Status FusedCorrPair(const storage::Page& a, const storage::Page& b,
                     CorrAccum* out) {
  Result<enc::DeltaRleColumn> ca =
      enc::DeltaRleColumn::Parse(a.value_data.data(), a.value_data.size());
  if (!ca.ok()) return ca.status();
  Result<enc::DeltaRleColumn> cb =
      enc::DeltaRleColumn::Parse(b.value_data.data(), b.value_data.size());
  if (!cb.ok()) return cb.status();
  const uint32_t n = ca.value().count();
  DeltaRleAggregates aa, ab;
  __int128 cross = 0;
  ETSQP_RETURN_IF_ERROR(FusedAggDeltaRle(ca.value(), 0, n, true, &aa));
  ETSQP_RETURN_IF_ERROR(FusedAggDeltaRle(cb.value(), 0, n, true, &ab));
  ETSQP_RETURN_IF_ERROR(
      FusedCrossDeltaRle(ca.value(), cb.value(), 0, n, &cross));
  CorrAccum pair;
  pair.sum_a = aa.sum;
  pair.sum_b = ab.sum;
  pair.sum_a2 = aa.sum_sq;
  pair.sum_b2 = ab.sum_sq;
  pair.sum_ab = cross;
  pair.n = aa.count;
  out->Merge(pair);
  return Status::Ok();
}

/// The result columns of a merge plan; CORR's come from CorrAccum.
std::vector<std::string> ColumnNames(LogicalPlan::Kind kind) {
  switch (kind) {
    case LogicalPlan::Kind::kProjectBinary:
      return {"time", "expr"};
    case LogicalPlan::Kind::kJoin:
      return {"time", "left", "right"};
    case LogicalPlan::Kind::kCorrelate:
      return {};
    default:
      return {"time", "value"};
  }
}

/// `a op b` for the projection operators; false when it overflows int64.
bool Project(char op, int64_t a, int64_t b, int64_t* out) {
  switch (op) {
    case '-':
      return !__builtin_sub_overflow(a, b, out);
    case '*':
      return !__builtin_mul_overflow(a, b, out);
    default:
      return !__builtin_add_overflow(a, b, out);
  }
}

/// The inter-column predicate on a joined pair (Eq. 3).
bool InterColumnOk(char op, int64_t a, int64_t b) {
  switch (op) {
    case '<':
      return a < b;
    case '>':
      return a > b;
    case '=':
      return a == b;
    default:
      return true;
  }
}

/// One input's walk through the page jobs of a range job: the header
/// bounds of the next page are known before it decodes, and a page decodes
/// on demand — through the job's scheduled kernels — into one reusable page
/// vector, clipped to the range when it straddles a cut.
class PageCursor {
 public:
  PageCursor(const PipelineSpec& spec, const RangeJob& range, int input,
             const storage::SeriesSnapshot* snap)
      : spec_(spec),
        range_(range),
        snap_(snap),
        next_(range.first[input]),
        last_(range.last[input]) {}

  /// The page vector holds no unconsumed tuple.
  bool empty() const { return pos_ == vec_.times.size(); }
  /// Nothing left: the vector is consumed and no page remains.
  bool done() const { return empty() && next_ == last_; }
  bool has_page() const { return next_ < last_; }
  /// The next undecoded page (requires has_page()).
  const PipeJob& page() const { return spec_.jobs[next_]; }
  size_t pages_left() const { return last_ - next_; }
  /// Moves past the next page without decoding it.
  void Advance() { ++next_; }

  const int64_t* times() const { return vec_.times.data() + pos_; }
  const int64_t* values() const { return vec_.values.data() + pos_; }
  size_t size() const { return vec_.times.size() - pos_; }
  int64_t front() const { return vec_.times[pos_]; }
  int64_t back() const { return vec_.times.back(); }
  void Consume(size_t n) { pos_ += n; }

  /// Decodes the next page into the page vector.
  Status Load(const LogicalPlan& plan, const PipelineOptions& options,
              QueryStats* stats) {
    const PipeJob& job = spec_.jobs[next_++];
    vec_.times.clear();
    vec_.values.clear();
    pos_ = 0;
    vec_.trange = plan.time_filter;
    if (job.min_time < range_.lo) {
      vec_.trange.lo = std::max(vec_.trange.lo, range_.lo);
    }
    if (job.max_time > range_.hi) {
      vec_.trange.hi = std::min(vec_.trange.hi, range_.hi);
    }
    if (vec_.trange.lo > vec_.trange.hi) return Status::Ok();
    JobSchedule sched(options, spec_, job);
    Status st = DrainJob(job, *snap_, plan, sched.options, &vec_, stats);
    sched.Note(job, stats);
    return st;
  }

 private:
  const PipelineSpec& spec_;
  const RangeJob& range_;
  const storage::SeriesSnapshot* snap_;
  size_t next_;
  size_t last_;
  PageVector vec_;
  size_t pos_ = 0;
};

/// The merge node of one range job (Figure 9). It pulls page vectors from
/// the two input cursors as the merge consumes them, runs the merge kernels
/// on them, and emits rows (or accumulates CORR sums). SELECT is the one-input case: its
/// right cursor is empty. Apart from the range's result columns, everything
/// it allocates is page-vector sized.
class MergeNode {
 public:
  MergeNode(const LogicalPlan& plan, const PipelineSpec& spec,
            const RangeJob& range,
            const std::vector<storage::SeriesSnapshot>& snaps,
            const PipelineOptions& options)
      : plan_(plan),
        snaps_(snaps),
        options_(options),
        decision_(spec.merge_decision >= 0
                      ? &spec.decisions[spec.merge_decision]
                      : nullptr),
        isa_(MergeIsaFor(options.strategy)),
        l_(spec, range, 0, &snaps[0]),
        r_(spec, range, 1, snaps.size() > 1 ? &snaps[1] : nullptr) {
    // Result columns sized from the surviving header counts: a join pairs
    // at most the smaller side; SELECT and UNION emit every tuple.
    const bool pairs = plan.kind == LogicalPlan::Kind::kJoin ||
                       plan.kind == LogicalPlan::Kind::kProjectBinary;
    const uint64_t rows = pairs ? std::min(range.tuples[0], range.tuples[1])
                                : range.tuples[0] + range.tuples[1];
    columns.assign(ColumnNames(plan.kind).size(), {});
    for (std::vector<double>& c : columns) c.reserve(rows);
  }

  Status Run() {
    Status st = plan_.kind == LogicalPlan::Kind::kSelect ||
                        plan_.kind == LogicalPlan::Kind::kUnion
                    ? RunUnion()
                    : RunIntersect();
    if (decision_ != nullptr && options_.collect_stats) {
      NoteDecisionOutcome(
          *decision_, merged_,
          stats.stages.stages[static_cast<int>(Stage::kMerge)].nanos, &stats);
    }
    return st;
  }

  std::vector<std::vector<double>> columns;
  CorrAccum corr;
  QueryStats stats;

 private:
  metrics::StageBreakdown* Stages() { return StagesOf(options_, &stats); }

  Status Load(PageCursor* c) { return c->Load(plan_, options_, &stats); }

  void Skip(PageCursor* c) {
    c->Advance();
    ++stats.merge_pages_skipped;
  }

  /// The merge node's one exit: appends n rows — time plus one or two value
  /// columns — to the range's result columns.
  void Emit(const int64_t* t, const int64_t* a, const int64_t* b, size_t n) {
    columns[0].insert(columns[0].end(), t, t + n);
    columns[1].insert(columns[1].end(), a, a + n);
    if (b != nullptr) columns[2].insert(columns[2].end(), b, b + n);
  }

  /// UNION (Eq. 5) and SELECT: whichever vector ends first goes out whole,
  /// merged with the other side's tuples before its end (left first on
  /// equal timestamps); a vector the other side does not reach is copied
  /// without a compare.
  Status RunUnion() {
    while (true) {
      if (l_.empty() && l_.has_page()) {
        ETSQP_RETURN_IF_ERROR(Load(&l_));
        continue;
      }
      if (r_.empty() && r_.has_page()) {
        ETSQP_RETURN_IF_ERROR(Load(&r_));
        continue;
      }
      if (l_.empty() && r_.empty()) return Status::Ok();
      ScopedStageTimer timer(Stages(), Stage::kMerge);
      size_t nl = l_.size(), nr = r_.size();
      if (nl > 0 && nr > 0) {
        if (l_.back() <= r_.back()) {
          nr = std::lower_bound(r_.times(), r_.times() + nr, l_.back()) -
               r_.times();
        } else {
          nl = std::upper_bound(l_.times(), l_.times() + nl, r_.back()) -
               l_.times();
        }
      }
      timer.AddTuples(nl + nr);
      merged_ += nl + nr;
      if (nr == 0) {
        Emit(l_.times(), l_.values(), nullptr, nl);
      } else if (nl == 0) {
        Emit(r_.times(), r_.values(), nullptr, nr);
      } else {
        out_t_.resize(nl + nr);
        out_v_.resize(nl + nr);
        const size_t m = simd::MergeUnionInt64(
            l_.times(), l_.values(), nl, r_.times(), r_.values(), nr,
            out_t_.data(), out_v_.data(), isa_);
        Emit(out_t_.data(), out_v_.data(), nullptr, m);
      }
      l_.Consume(nl);
      r_.Consume(nr);
    }
  }

  /// Natural join (Eq. 6), projection and CORR. Page headers decide first:
  /// a page that ends before the other side's next page or vector begins
  /// is skipped undecoded, and a CORR page pair that can fuse aggregates in
  /// closed form. Only overlapping vectors reach the intersection kernel.
  Status RunIntersect() {
    while (!l_.done() && !r_.done()) {
      if (l_.empty() && r_.empty()) {
        const PipeJob& a = l_.page();
        const PipeJob& b = r_.page();
        if (a.max_time < b.min_time) {
          Skip(&l_);
          continue;
        }
        if (b.max_time < a.min_time) {
          Skip(&r_);
          continue;
        }
        bool fused = false;
        ETSQP_RETURN_IF_ERROR(TryFuse(&fused));
        if (!fused) ETSQP_RETURN_IF_ERROR(Load(&l_));
        continue;
      }
      if (l_.empty() || r_.empty()) {
        PageCursor& at_page = l_.empty() ? l_ : r_;
        PageCursor& loaded = l_.empty() ? r_ : l_;
        if (at_page.page().max_time < loaded.front()) {
          Skip(&at_page);
        } else if (at_page.page().min_time > loaded.back()) {
          loaded.Consume(loaded.size());
        } else {
          ETSQP_RETURN_IF_ERROR(Load(&at_page));
        }
        continue;
      }
      ETSQP_RETURN_IF_ERROR(Intersect());
    }
    // What one input has left, the other can no longer match.
    stats.merge_pages_skipped += l_.pages_left() + r_.pages_left();
    return Status::Ok();
  }

  /// Pairs the two loaded vectors; the one that ends first is spent, with
  /// the other side's tuples up to that end.
  Status Intersect() {
    ScopedStageTimer timer(Stages(), Stage::kMerge);
    const size_t nl = l_.size(), nr = r_.size();
    timer.AddTuples(nl + nr);
    merged_ += nl + nr;
    il_.resize(std::min(nl, nr));
    ir_.resize(std::min(nl, nr));
    const size_t m =
        simd::IntersectIndicesInt64(l_.times(), nl, r_.times(), nr,
                                    il_.data(), ir_.data(), isa_);
    const int64_t* lt = l_.times();
    const int64_t* lv = l_.values();
    const int64_t* rv = r_.values();
    if (plan_.kind == LogicalPlan::Kind::kCorrelate) {
      for (size_t k = 0; k < m; ++k) corr.Add(lv[il_[k]], rv[ir_[k]]);
    } else {
      // Eq. 3 runs on the decoded vectors; matched rows gather into
      // page-sized scratch and leave through Emit.
      const bool project = plan_.kind == LogicalPlan::Kind::kProjectBinary;
      row_t_.resize(m);
      row_a_.resize(m);
      row_b_.resize(project ? 0 : m);
      size_t rows = 0;
      for (size_t k = 0; k < m; ++k) {
        const int64_t a = lv[il_[k]];
        const int64_t b = rv[ir_[k]];
        if (!InterColumnOk(plan_.inter_column_op, a, b)) continue;
        row_t_[rows] = lt[il_[k]];
        if (!project) {
          row_a_[rows] = a;
          row_b_[rows] = b;
        } else if (!Project(plan_.binary_op, a, b, &row_a_[rows])) {
          return Status::Overflow("projection overflow");
        }
        ++rows;
      }
      Emit(row_t_.data(), row_a_.data(), project ? nullptr : row_b_.data(),
           rows);
    }
    const int64_t lb = l_.back(), rb = r_.back();
    if (lb <= rb) {
      l_.Consume(nl);
      r_.Consume(std::upper_bound(r_.times(), r_.times() + nr, lb) -
                 r_.times());
    } else {
      r_.Consume(nr);
      l_.Consume(std::upper_bound(l_.times(), l_.times() + nl, rb) -
                 l_.times());
    }
    return Status::Ok();
  }

  /// Fuses the CORR page pair both cursors sit at when their time columns
  /// are identical and both value columns are Delta-RLE. Needs kEtsqp (the
  /// fusion datapath), no value filter, and both pages wholly inside the
  /// time filter; an exact sum past int64 falls back to decoding. Range
  /// cuts are page starts, so none falls inside a pair with identical
  /// bounds.
  Status TryFuse(bool* fused) {
    const PipeJob& a = l_.page();
    const PipeJob& b = r_.page();
    if (plan_.kind != LogicalPlan::Kind::kCorrelate ||
        options_.strategy != DecodeStrategy::kEtsqp ||
        plan_.value_filter.active || a.tail || b.tail || a.masked ||
        b.masked || a.min_time != b.min_time || a.max_time != b.max_time ||
        a.min_time < plan_.time_filter.lo ||
        a.max_time > plan_.time_filter.hi) {
      return Status::Ok();
    }
    const storage::PageHeader& ha = snaps_[0].pages[a.page_index]->header;
    const storage::PageHeader& hb = snaps_[1].pages[b.page_index]->header;
    if (ha.count != hb.count || ha.time_bytes != hb.time_bytes ||
        ha.value_encoding != enc::ColumnEncoding::kDeltaRle ||
        hb.value_encoding != enc::ColumnEncoding::kDeltaRle) {
      return Status::Ok();
    }
    Result<std::shared_ptr<const storage::Page>> pa =
        JobPage(snaps_[0], a.page_index, options_, &stats);
    if (!pa.ok()) return pa.status();
    Result<std::shared_ptr<const storage::Page>> pb =
        JobPage(snaps_[1], b.page_index, options_, &stats);
    if (!pb.ok()) return pb.status();
    // Equal encoded time columns <=> equal timestamps (encoding is a
    // deterministic function of the series).
    if (std::memcmp(pa.value()->time_data.data(),
                    pb.value()->time_data.data(), ha.time_bytes) != 0) {
      return Status::Ok();
    }
    ScopedStageTimer timer(Stages(), Stage::kAggregate);
    timer.AddTuples(2 * static_cast<uint64_t>(ha.count));
    Status st = FusedCorrPair(*pa.value(), *pb.value(), &corr);
    if (st.code() == StatusCode::kOverflow) return Status::Ok();
    ETSQP_RETURN_IF_ERROR(st);
    l_.Advance();
    r_.Advance();
    ++stats.merge_pairs_fused;
    *fused = true;
    return Status::Ok();
  }

  const LogicalPlan& plan_;
  const std::vector<storage::SeriesSnapshot>& snaps_;
  const PipelineOptions& options_;
  // The etsqp.merge decision (outcome scoring only; null under a pinned
  // strategy) and the merge kernels' datapath: scalar for kSerial.
  const ScheduleDecision* decision_;
  const simd::MergeIsa isa_;
  PageCursor l_;
  PageCursor r_;
  uint64_t merged_ = 0;  // tuples fed through the merge kernels
  // Page-vector sized scratch, reused across the range's pages.
  std::vector<int64_t> out_t_, out_v_;
  std::vector<uint32_t> il_, ir_;
  std::vector<int64_t> row_t_, row_a_, row_b_;
};

/// Runs a merge plan: one MergeNode per range job on the job scheduler.
/// Each range fills its own result columns, sized from its header counts;
/// one pass concatenates them in time order (a move when p = 1).
Result<QueryResult> RunMerge(const LogicalPlan& plan,
                             const std::vector<storage::SeriesSnapshot>& snaps,
                             const PipelineSpec& spec,
                             const PipelineOptions& options) {
  QueryResult result;
  result.stats = spec.plan_stats;
  std::vector<std::unique_ptr<MergeNode>> nodes(spec.ranges.size());

  PipelineJobSet set;
  set.num_jobs = spec.ranges.size();
  set.job = [&](size_t i) -> Status {
    nodes[i] = std::make_unique<MergeNode>(plan, spec, spec.ranges[i], snaps,
                                           options);
    return nodes[i]->Run();
  };
  set.merge = [&]() -> Status {
    for (const auto& node : nodes) result.stats.Merge(node->stats);
    ScopedStageTimer timer(StagesOf(options, &result.stats), Stage::kMerge);
    if (plan.kind == LogicalPlan::Kind::kCorrelate) {
      CorrAccum total;
      for (const auto& node : nodes) total.Merge(node->corr);
      total.Finish(&result);
      return Status::Ok();
    }
    result.column_names = ColumnNames(plan.kind);
    if (nodes.size() == 1) {
      result.columns = std::move(nodes[0]->columns);
      return Status::Ok();
    }
    result.columns.assign(result.column_names.size(), {});
    for (size_t c = 0; c < result.columns.size(); ++c) {
      size_t rows = 0;
      for (const auto& node : nodes) rows += node->columns[c].size();
      result.columns[c].reserve(rows);
      for (const auto& node : nodes) {
        result.columns[c].insert(result.columns[c].end(),
                                 node->columns[c].begin(),
                                 node->columns[c].end());
      }
    }
    return Status::Ok();
  };
  ETSQP_RETURN_IF_ERROR(RunPipelineJobs(set, options, &result.stats));
  result.stats.result_tuples = result.num_rows();
  return result;
}

/// Resolves the plan's inputs through the handle (memory store, file store
/// or the db layer's cross-shard resolver — same code path either way).
Result<std::vector<storage::SeriesSnapshot>> ResolveHandle(
    const LogicalPlan& plan, const StoreHandle& store) {
  return ResolveInputs(
      plan, [&store](const std::string& name) { return store.Snapshot(name); });
}

}  // namespace

Result<QueryResult> Engine::Execute(const LogicalPlan& plan,
                                    StoreHandle store) const {
  if (plan.explain != LogicalPlan::ExplainMode::kNone) {
    return ExecuteExplain(plan, store);
  }
  const bool timed = options_.collect_stats;
  const uint64_t t0 = timed ? metrics::NowNanos() : 0;
  Result<QueryResult> result = ExecutePlan(plan, store);
  if (timed && result.ok()) {
    result.value().stats.wall_nanos = metrics::NowNanos() - t0;
    result.value().stats.threads = options_.threads;
  }
  return result;
}

Result<QueryResult> Engine::ExecuteExplain(const LogicalPlan& plan,
                                           const StoreHandle& store) const {
  LogicalPlan inner = plan;
  inner.explain = LogicalPlan::ExplainMode::kNone;
  // The rendered tree comes from Pipe compilation either way; it is
  // header-only work, so re-running it for ANALYZE costs nothing visible.
  Result<std::vector<storage::SeriesSnapshot>> snaps =
      ResolveHandle(inner, store);
  if (!snaps.ok()) return snaps.status();
  Result<PipelineSpec> spec = BuildPipeline(inner, snaps.value(), options_);
  if (!spec.ok()) return spec.status();

  if (plan.explain == LogicalPlan::ExplainMode::kPlan) {
    QueryResult out;
    out.stats = spec.value().plan_stats;
    out.explain_text = RenderExplain(inner, options_, spec.value());
    return out;
  }
  // EXPLAIN ANALYZE: run with stats collection forced on.
  Engine analyzed(PipelineOptions(options_).WithStats(true));
  Result<QueryResult> run = analyzed.Execute(inner, store);
  if (!run.ok()) return run.status();
  QueryResult out = std::move(run.value());
  out.explain_text = RenderExplainAnalyze(inner, analyzed.options(),
                                          spec.value(), out.stats);
  return out;
}

Result<QueryResult> Engine::ExecutePlan(const LogicalPlan& plan,
                                        const StoreHandle& store) const {
  switch (plan.kind) {
    case LogicalPlan::Kind::kAggregate:
      return ExecuteAggregate(plan, store);
    case LogicalPlan::Kind::kSelect:
    case LogicalPlan::Kind::kProjectBinary:
    case LogicalPlan::Kind::kUnion:
    case LogicalPlan::Kind::kJoin:
    case LogicalPlan::Kind::kCorrelate:
      return ExecuteMerge(plan, store);
  }
  return Status::Internal("unknown plan kind");
}

Result<QueryResult> Engine::ExecuteAggregate(const LogicalPlan& plan,
                                             const StoreHandle& store) const {
  Result<std::vector<storage::SeriesSnapshot>> snaps =
      ResolveHandle(plan, store);
  if (!snaps.ok()) return snaps.status();
  Result<PipelineSpec> spec = BuildPipeline(plan, snaps.value(), options_);
  if (!spec.ok()) return spec.status();
  // Float-valued series take the double pipeline (XOR-pattern codecs).
  const storage::SeriesSnapshot& snap = snaps.value()[0];
  return snap.is_float
             ? RunAggregate<FloatAggAccum>(plan, snap, spec.value(), options_)
             : RunAggregate<AggAccum>(plan, snap, spec.value(), options_);
}

Result<QueryResult> Engine::ExecuteMerge(const LogicalPlan& plan,
                                         const StoreHandle& store) const {
  Result<std::vector<storage::SeriesSnapshot>> snaps =
      ResolveHandle(plan, store);
  if (!snaps.ok()) return snaps.status();
  for (const storage::SeriesSnapshot& snap : snaps.value()) {
    if (snap.is_float) {
      return Status::NotSupported("materialize on float series " + snap.name);
    }
  }
  Result<PipelineSpec> spec = BuildPipeline(plan, snaps.value(), options_);
  if (!spec.ok()) return spec.status();
  return RunMerge(plan, snaps.value(), spec.value(), options_);
}

}  // namespace etsqp::exec
