#include "exec/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <type_traits>

#include "common/bit_util.h"
#include "common/metrics.h"
#include "encoding/delta_rle.h"
#include "exec/explain.h"
#include "exec/fusion.h"
#include "exec/pipe_builder.h"
#include "exec/pipeline_job.h"
#include "exec/tail_kernel.h"
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

/// Realizes one job's registry decision: the effective options the kernels
/// run with, plus the timing needed to score the prediction afterwards.
/// Jobs without a decision (registry off, or nothing schedulable) run the
/// engine's base options untouched.
struct JobSchedule {
  PipelineOptions options;
  const ScheduleDecision* decision = nullptr;
  uint64_t start_nanos = 0;

  JobSchedule(const PipelineOptions& base, const PipelineSpec& spec,
              const PipeJob& job)
      : options(base) {
    if (job.decision >= 0) {
      decision = &spec.decisions[job.decision];
      options = ApplyDecision(base, *decision);
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

/// The merge stage's planned kernel: the registry decision (for EXPLAIN
/// and outcome scoring) plus the datapath the merge kernels run on. The
/// datapath follows the decision's strategy, or the engine's pinned one
/// when the registry did not plan the stage (kSerial pins the scalar
/// reference kernels).
struct MergeSchedule {
  const ScheduleDecision* decision = nullptr;
  simd::MergeIsa isa = simd::MergeIsa::kScalar;

  MergeSchedule(const PipelineOptions& base, const PipelineSpec& spec) {
    DecodeStrategy strategy = base.strategy;
    if (spec.merge_decision >= 0) {
      decision = &spec.decisions[spec.merge_decision];
      strategy = ApplyDecision(base, *decision).strategy;
    }
    isa = MergeIsaFor(strategy);
  }
};

/// Per-input materialized tuples, stitched in storage order: the sink of
/// the SELECT / union / join / correlate jobs.
struct Materialized {
  using Value = int64_t;
  std::vector<int64_t> times;
  std::vector<int64_t> values;
};

/// The aggregate state of one job, of the merged run and of finalize: the
/// plan's total plus its windows (keyed by window index). `Accum` is
/// AggAccum for integer series, FloatAggAccum for float series.
template <typename Accum>
struct AggSink {
  using Value = std::conditional_t<std::is_same_v<Accum, AggAccum>, int64_t,
                                   double>;
  Accum total;
  std::map<int64_t, Accum> windows;

  void Merge(const AggSink& o) {
    total.Merge(o.total);
    for (const auto& [k, acc] : o.windows) windows[k].Merge(acc);
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
    for (const auto& [k, acc] : windows) {
      double v = 0;
      Status st = acc.Finalize(plan.func, &v);
      if (st.code() == StatusCode::kOverflow) return st;
      if (!st.ok()) continue;  // empty window
      result->columns[0].push_back(
          static_cast<double>(plan.window.WindowStart(k)));
      result->columns[1].push_back(v);
    }
    return Status::Ok();
  }
};

// Encoded page slice -> sink: the vectorized kernels, named once each.
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
                  AggSink<FloatAggAccum>* sink, QueryStats* stats) {
  return plan.window.active
             ? AggregateFloatSliceWindows(page, begin, end, plan.time_filter,
                                          plan.value_filter, plan.window,
                                          plan.func, opt, &sink->windows,
                                          stats)
             : AggregateFloatSlice(page, begin, end, plan.time_filter,
                                   plan.value_filter, plan.func, opt,
                                   &sink->total, stats);
}

Status DrainSlice(const storage::Page& page, size_t begin, size_t end,
                  const LogicalPlan& plan, const PipelineOptions& opt,
                  Materialized* sink, QueryStats* stats) {
  return MaterializeSlice(page, begin, end, plan.time_filter,
                          plan.value_filter, opt, &sink->times, &sink->values,
                          stats);
}

// Raw (time, value) arrays -> sink: the scalar kernels that drain the
// unsealed tail and the survivors of a tombstone-masked page.
Status DrainRaw(const int64_t* times, const int64_t* values, size_t n,
                const LogicalPlan& plan, const PipelineOptions& opt,
                AggSink<AggAccum>* sink, QueryStats* stats) {
  return plan.window.active
             ? TailAggregateWindows(times, values, n, plan.time_filter,
                                    plan.value_filter, plan.window, plan.func,
                                    opt, &sink->windows, stats)
             : TailAggregate(times, values, n, plan.time_filter,
                             plan.value_filter, plan.func, opt, &sink->total,
                             stats);
}

Status DrainRaw(const int64_t* times, const double* values, size_t n,
                const LogicalPlan& plan, const PipelineOptions& opt,
                AggSink<FloatAggAccum>* sink, QueryStats* stats) {
  return plan.window.active
             ? TailAggregateWindowsF64(times, values, n, plan.time_filter,
                                       plan.value_filter, plan.window,
                                       plan.func, opt, &sink->windows, stats)
             : TailAggregateF64(times, values, n, plan.time_filter,
                                plan.value_filter, plan.func, opt,
                                &sink->total, stats);
}

Status DrainRaw(const int64_t* times, const int64_t* values, size_t n,
                const LogicalPlan& plan, const PipelineOptions& opt,
                Materialized* sink, QueryStats* stats) {
  return TailMaterialize(times, values, n, plan.time_filter,
                         plan.value_filter, opt, &sink->times, &sink->values,
                         stats);
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

/// Decodes a tombstone-masked page in full and drops deleted timestamps in
/// place. Survivors drain through the raw-array kernels — correctness over
/// speed on the (transient) partially deleted page; the next compaction
/// pass erases the mask and restores the vectorized path.
template <typename Value>
Status DecodeMaskedPage(const storage::Page& page,
                        const std::vector<storage::TimeInterval>& tombstones,
                        std::vector<int64_t>* times,
                        std::vector<Value>* values, uint64_t* dropped) {
  const uint32_t n = page.header.count;
  times->resize(n);
  values->resize(n);
  ETSQP_RETURN_IF_ERROR(storage::DecodePageColumn(
      page.time_data, page.header.time_encoding, n, times->data()));
  if constexpr (std::is_same_v<Value, double>) {
    ETSQP_RETURN_IF_ERROR(storage::DecodePageColumnF64(
        page.value_data, page.header.value_encoding, n, values->data()));
  } else {
    ETSQP_RETURN_IF_ERROR(storage::DecodePageColumn(
        page.value_data, page.header.value_encoding, n, values->data()));
  }
  // Two-pointer filter: page times ascend, tombstones are sorted/disjoint.
  size_t w = 0, ti = 0;
  for (size_t i = 0; i < n; ++i) {
    int64_t t = (*times)[i];
    while (ti < tombstones.size() && tombstones[ti].hi < t) ++ti;
    if (ti < tombstones.size() && t >= tombstones[ti].lo) continue;
    (*times)[w] = t;
    (*values)[w] = (*values)[i];
    ++w;
  }
  *dropped += n - w;
  times->resize(w);
  values->resize(w);
  return Status::Ok();
}

/// Runs one pipeline job into `sink`: a page slice through the vectorized
/// kernels; the tail, and a masked page decoded into raw arrays, through
/// the raw-array kernels.
template <typename Sink>
Status DrainJob(const PipeJob& job, const storage::SeriesSnapshot& snap,
                const LogicalPlan& plan, const PipelineOptions& opt,
                Sink* sink, QueryStats* stats) {
  using Value = typename Sink::Value;
  if (job.tail) {
    return DrainRaw(snap.tail_times.data(), TailValues<Value>(snap),
                    snap.tail_times.size(), plan, opt, sink, stats);
  }
  Result<std::shared_ptr<const storage::Page>> page =
      JobPage(snap, job.page_index, opt, stats);
  if (!page.ok()) return page.status();
  if (!job.masked) {
    return DrainSlice(*page.value(), job.begin, job.end, plan, opt, sink,
                      stats);
  }
  std::vector<int64_t> times;
  std::vector<Value> values;
  uint64_t dropped = 0;
  Status st = DecodeMaskedPage(*page.value(), snap.tombstones, &times,
                               &values, &dropped);
  if (st.ok()) {
    st = DrainRaw(times.data(), values.data(), times.size(), plan, opt, sink,
                  stats);
  }
  stats->tail_tuples_scanned = 0;  // page tuples, not tail tuples
  stats->tuples_scanned += dropped;
  stats->deleted_tuples_masked += dropped;
  return st;
}

/// Aggregation over one input: every job drains into a job-local sink,
/// merged under a lock; the merge stage finalizes the merged sink.
template <typename Accum>
Result<QueryResult> RunAggregate(const LogicalPlan& plan,
                                 const storage::SeriesSnapshot& snap,
                                 const PipelineSpec& spec,
                                 const PipelineOptions& options) {
  QueryResult result;
  result.stats = spec.plan_stats;
  std::mutex mu;
  AggSink<Accum> merged;
  QueryStats run_stats;

  PipelineJobSet set;
  set.num_jobs = spec.jobs.size();
  set.job = [&](size_t i) -> Status {
    const PipeJob& job = spec.jobs[i];
    JobSchedule sched(options, spec, job);
    QueryStats local_stats;
    AggSink<Accum> local;
    Status st = DrainJob(job, snap, plan, sched.options, &local, &local_stats);
    sched.Note(job, &local_stats);
    std::lock_guard<std::mutex> lock(mu);
    merged.Merge(local);
    run_stats.Merge(local_stats);
    return st;
  };
  set.merge = [&]() -> Status {
    result.stats.Merge(run_stats);
    ScopedStageTimer merge_timer(StagesOf(options, &result.stats),
                                 Stage::kMerge);
    return merged.Finish(plan, &result);
  };
  ETSQP_RETURN_IF_ERROR(RunPipelineJobs(set, options, &result.stats));
  result.stats.result_tuples = result.num_rows();
  return result;
}

/// Runs the materializing jobs of one plan and returns per-input tuple
/// streams in time order. Integer series only.
Status MaterializeInputs(const LogicalPlan& plan,
                         const std::vector<storage::SeriesSnapshot>& snaps,
                         const PipelineOptions& options,
                         const PipelineSpec& spec,
                         std::vector<Materialized>* inputs,
                         QueryStats* stats) {
  for (const storage::SeriesSnapshot& snap : snaps) {
    if (snap.is_float) {
      return Status::NotSupported("materialize on float series " + snap.name);
    }
  }
  // Per-job local buffers, stitched by the merge step to preserve order.
  std::vector<Materialized> locals(spec.jobs.size());
  std::vector<QueryStats> job_stats(spec.jobs.size());

  PipelineJobSet set;
  set.num_jobs = spec.jobs.size();
  set.job = [&](size_t i) -> Status {
    const PipeJob& job = spec.jobs[i];
    JobSchedule sched(options, spec, job);
    Status st = DrainJob(job, snaps[job.input], plan, sched.options,
                         &locals[i], &job_stats[i]);
    sched.Note(job, &job_stats[i]);
    return st;
  };
  set.merge = [&]() -> Status {
    // Jobs were emitted in (input, page, slice) order; concatenation keeps
    // time order within each input.
    for (size_t i = 0; i < spec.jobs.size(); ++i) {
      stats->Merge(job_stats[i]);
      Materialized& dst = (*inputs)[spec.jobs[i].input];
      dst.times.insert(dst.times.end(), locals[i].times.begin(),
                       locals[i].times.end());
      dst.values.insert(dst.values.end(), locals[i].values.begin(),
                        locals[i].values.end());
    }
    return Status::Ok();
  };
  return RunPipelineJobs(set, options, stats);
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
      return ExecuteSelect(plan, store);
    case LogicalPlan::Kind::kProjectBinary:
    case LogicalPlan::Kind::kUnion:
    case LogicalPlan::Kind::kJoin:
      return ExecuteBinary(plan, store);
    case LogicalPlan::Kind::kCorrelate:
      return ExecuteCorrelate(plan, store);
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

Result<QueryResult> Engine::ExecuteSelect(const LogicalPlan& plan,
                                          const StoreHandle& store) const {
  Result<std::vector<storage::SeriesSnapshot>> snaps =
      ResolveHandle(plan, store);
  if (!snaps.ok()) return snaps.status();
  Result<PipelineSpec> spec = BuildPipeline(plan, snaps.value(), options_);
  if (!spec.ok()) return spec.status();
  QueryResult result;
  result.stats = spec.value().plan_stats;

  std::vector<Materialized> inputs(2);
  ETSQP_RETURN_IF_ERROR(MaterializeInputs(plan, snaps.value(), options_,
                                          spec.value(), &inputs,
                                          &result.stats));
  const Materialized& m = inputs[0];
  result.column_names = {"time", "value"};
  result.columns.assign(2, {});
  result.columns[0].assign(m.times.begin(), m.times.end());
  result.columns[1].assign(m.values.begin(), m.values.end());
  result.stats.result_tuples = result.num_rows();
  return result;
}

Result<QueryResult> Engine::ExecuteBinary(const LogicalPlan& plan,
                                          const StoreHandle& store) const {
  Result<std::vector<storage::SeriesSnapshot>> snaps =
      ResolveHandle(plan, store);
  if (!snaps.ok()) return snaps.status();
  Result<PipelineSpec> spec = BuildPipeline(plan, snaps.value(), options_);
  if (!spec.ok()) return spec.status();
  QueryResult result;
  result.stats = spec.value().plan_stats;

  std::vector<Materialized> inputs(2);
  ETSQP_RETURN_IF_ERROR(MaterializeInputs(plan, snaps.value(), options_,
                                          spec.value(), &inputs,
                                          &result.stats));
  const Materialized& l = inputs[0];
  const Materialized& r = inputs[1];
  const size_t nl = l.times.size();
  const size_t nr = r.times.size();

  // The merge stage runs as its own (single) pipeline job so it lands in
  // the job scheduler, carries a per-stage `merge` ExecStats breakout, and
  // scores its registry decision like any decode job.
  MergeSchedule msched(options_, spec.value());
  QueryStats merge_stats;
  PipelineJobSet set;
  set.num_jobs = 1;
  set.job = [&](size_t) -> Status {
    const uint64_t t0 = (msched.decision != nullptr && options_.collect_stats)
                            ? metrics::NowNanos()
                            : 0;
    {
      ScopedStageTimer merge_timer(StagesOf(options_, &merge_stats),
                                   Stage::kMerge);
      merge_timer.AddTuples(nl + nr);
      if (plan.kind == LogicalPlan::Kind::kUnion) {
        // Q5: series concatenation merged by time (Eq. 5).
        result.column_names = {"time", "value"};
        result.columns.assign(2, {});
        std::vector<int64_t> out_t(nl + nr);
        std::vector<int64_t> out_v(nl + nr);
        size_t m = simd::MergeUnionInt64(l.times.data(), l.values.data(), nl,
                                         r.times.data(), r.values.data(), nr,
                                         out_t.data(), out_v.data(),
                                         msched.isa);
        result.columns[0].assign(out_t.begin(), out_t.begin() + m);
        result.columns[1].assign(out_v.begin(), out_v.begin() + m);
      } else {
        // Q4/Q6: natural join on timestamps (Eq. 6). The intersection
        // kernel emits aligned index pairs (k-th match on each side), then
        // the matched tuples project in time order.
        bool project = plan.kind == LogicalPlan::Kind::kProjectBinary;
        const size_t cap = std::min(nl, nr);
        std::vector<uint32_t> il(cap);
        std::vector<uint32_t> ir(cap);
        size_t matches =
            simd::IntersectIndicesInt64(l.times.data(), nl, r.times.data(),
                                        nr, il.data(), ir.data(), msched.isa);
        if (project) {
          result.column_names = {"time", "expr"};
          result.columns.assign(2, {});
        } else {
          result.column_names = {"time", "left", "right"};
          result.columns.assign(3, {});
        }
        for (auto& col : result.columns) col.reserve(matches);
        auto inter_ok = [&plan](int64_t a, int64_t b) {
          switch (plan.inter_column_op) {
            case '<':
              return a < b;
            case '>':
              return a > b;
            case '=':
              return a == b;
            default:
              return true;
          }
        };
        for (size_t k = 0; k < matches; ++k) {
          int64_t a = l.values[il[k]];
          int64_t b = r.values[ir[k]];
          if (!inter_ok(a, b)) continue;  // Eq. 3: filter on decoded vectors
          result.columns[0].push_back(static_cast<double>(l.times[il[k]]));
          if (project) {
            int64_t v = plan.binary_op == '-'   ? a - b
                        : plan.binary_op == '*' ? a * b
                                                : a + b;
            result.columns[1].push_back(static_cast<double>(v));
          } else {
            result.columns[1].push_back(static_cast<double>(a));
            result.columns[2].push_back(static_cast<double>(b));
          }
        }
      }
    }
    if (t0 != 0) {
      NoteDecisionOutcome(*msched.decision, nl + nr,
                          metrics::NowNanos() - t0, &merge_stats);
    }
    return Status::Ok();
  };
  set.merge = [&]() -> Status {
    result.stats.Merge(merge_stats);
    return Status::Ok();
  };
  ETSQP_RETURN_IF_ERROR(RunPipelineJobs(set, options_, &result.stats));
  result.stats.result_tuples = result.num_rows();
  return result;
}

namespace {

/// Pearson correlation / covariance accumulator over aligned pairs.
struct CorrAccum {
  __int128 sum_a = 0;
  __int128 sum_b = 0;
  __int128 sum_a2 = 0;
  __int128 sum_b2 = 0;
  __int128 sum_ab = 0;
  uint64_t n = 0;

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

/// True when the two series share identical page layout and timestamps and
/// both value columns are Delta-RLE — the Section IV fused cross-product
/// applies page by page, no decoding at all. Unsealed tails are raw, so
/// the fused path requires both tails empty (a Flush, or quiesced ingest).
bool FusedCorrApplies(const storage::SeriesSnapshot& a,
                      const storage::SeriesSnapshot& b) {
  if (a.has_tail() || b.has_tail()) return false;
  // Lazily loaded pages hold headers only; comparing time columns would
  // mean fetching every page, so those inputs take the general path.
  if (a.lazy() || b.lazy()) return false;
  // Tombstones invalidate the closed-form sums; the general path masks.
  if (!a.tombstones.empty() || !b.tombstones.empty()) return false;
  if (a.pages.size() != b.pages.size()) return false;
  for (size_t p = 0; p < a.pages.size(); ++p) {
    const storage::PageHeader& ha = a.pages[p]->header;
    const storage::PageHeader& hb = b.pages[p]->header;
    if (ha.count != hb.count || ha.min_time != hb.min_time ||
        ha.max_time != hb.max_time ||
        ha.value_encoding != enc::ColumnEncoding::kDeltaRle ||
        hb.value_encoding != enc::ColumnEncoding::kDeltaRle ||
        ha.time_bytes != hb.time_bytes) {
      return false;
    }
    // Equal encoded time columns <=> equal timestamps (encoding is a
    // deterministic function of the series).
    if (std::memcmp(a.pages[p]->time_data.data(),
                    b.pages[p]->time_data.data(), ha.time_bytes) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<QueryResult> Engine::ExecuteCorrelate(const LogicalPlan& plan,
                                             const StoreHandle& store) const {
  Result<std::vector<storage::SeriesSnapshot>> snaps =
      ResolveHandle(plan, store);
  if (!snaps.ok()) return snaps.status();

  QueryResult result;
  CorrAccum accum;

  const bool no_filters =
      plan.time_filter.IsUniverse() && !plan.value_filter.active;
  if (options_.fusion && options_.strategy == DecodeStrategy::kEtsqp &&
      no_filters && FusedCorrApplies(snaps.value()[0], snaps.value()[1])) {
    // Section IV fused path: per page pair, closed-form sums over the
    // <delta, run> structure — SUM, SUM^2 (FusedAggDeltaRle) and the
    // cross-product polynomial (FusedCrossDeltaRle). No value decoding.
    std::mutex mu;
    const auto& pa = snaps.value()[0].pages;
    const auto& pb = snaps.value()[1].pages;
    PipelineJobSet set;
    set.num_jobs = pa.size();
    set.job = [&](size_t p) -> Status {
      auto ca = enc::DeltaRleColumn::Parse(pa[p]->value_data.data(),
                                           pa[p]->value_data.size());
      auto cb = enc::DeltaRleColumn::Parse(pb[p]->value_data.data(),
                                           pb[p]->value_data.size());
      Status st;
      CorrAccum local;
      if (!ca.ok()) {
        st = ca.status();
      } else if (!cb.ok()) {
        st = cb.status();
      } else {
        uint32_t n = ca.value().count();
        DeltaRleAggregates aa, ab;
        __int128 cross = 0;
        st = FusedAggDeltaRle(ca.value(), 0, n, true, &aa);
        if (st.ok()) st = FusedAggDeltaRle(cb.value(), 0, n, true, &ab);
        if (st.ok()) {
          st = FusedCrossDeltaRle(ca.value(), cb.value(), 0, n, &cross);
        }
        if (st.ok()) {
          local.sum_a = aa.sum;
          local.sum_b = ab.sum;
          local.sum_a2 = aa.sum_sq;
          local.sum_b2 = ab.sum_sq;
          local.sum_ab = cross;
          local.n = aa.count;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      accum.sum_a += local.sum_a;
      accum.sum_b += local.sum_b;
      accum.sum_a2 += local.sum_a2;
      accum.sum_b2 += local.sum_b2;
      accum.sum_ab += local.sum_ab;
      accum.n += local.n;
      result.stats.pages_total += 2;
      result.stats.tuples_in_pages += 2 * pa[p]->header.count;
      result.stats.bytes_loaded +=
          pa[p]->encoded_bytes() + pb[p]->encoded_bytes();
      return st;
    };
    set.merge = [&]() -> Status {
      accum.Finish(&result);
      return Status::Ok();
    };
    ETSQP_RETURN_IF_ERROR(RunPipelineJobs(set, options_, &result.stats));
    result.stats.result_tuples = result.num_rows();
    return result;
  }

  // General path: materialize, join on time, accumulate.
  Result<PipelineSpec> spec = BuildPipeline(plan, snaps.value(), options_);
  if (!spec.ok()) return spec.status();
  result.stats = spec.value().plan_stats;
  std::vector<Materialized> inputs(2);
  ETSQP_RETURN_IF_ERROR(MaterializeInputs(plan, snaps.value(), options_,
                                          spec.value(), &inputs,
                                          &result.stats));
  const Materialized& l = inputs[0];
  const Materialized& r = inputs[1];
  const size_t nl = l.times.size();
  const size_t nr = r.times.size();
  MergeSchedule msched(options_, spec.value());
  {
    const uint64_t t0 = (msched.decision != nullptr && options_.collect_stats)
                            ? metrics::NowNanos()
                            : 0;
    {
      ScopedStageTimer merge_timer(StagesOf(options_, &result.stats),
                                   Stage::kMerge);
      merge_timer.AddTuples(nl + nr);
      const size_t cap = std::min(nl, nr);
      std::vector<uint32_t> il(cap);
      std::vector<uint32_t> ir(cap);
      size_t matches =
          simd::IntersectIndicesInt64(l.times.data(), nl, r.times.data(), nr,
                                      il.data(), ir.data(), msched.isa);
      for (size_t k = 0; k < matches; ++k) {
        int64_t a = l.values[il[k]];
        int64_t b = r.values[ir[k]];
        accum.sum_a += a;
        accum.sum_b += b;
        accum.sum_a2 += static_cast<__int128>(a) * a;
        accum.sum_b2 += static_cast<__int128>(b) * b;
        accum.sum_ab += static_cast<__int128>(a) * b;
        ++accum.n;
      }
    }
    if (t0 != 0) {
      NoteDecisionOutcome(*msched.decision, nl + nr,
                          metrics::NowNanos() - t0, &result.stats);
    }
  }
  accum.Finish(&result);
  result.stats.result_tuples = result.num_rows();
  return result;
}

}  // namespace etsqp::exec
