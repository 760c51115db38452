#ifndef ETSQP_EXEC_PIPE_BUILDER_H_
#define ETSQP_EXEC_PIPE_BUILDER_H_

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/expr.h"
#include "exec/kernel_schedule.h"
#include "exec/pipeline.h"
#include "exec/scheduler.h"
#include "storage/series_store.h"

namespace etsqp::exec {

/// Pipe (paper Algorithm 2): compiles a logical plan plus the storage page
/// map into per-thread pipeline jobs. Single-column filters are pushed into
/// the decoding pipelines (Eq. 1-2); pages that the header statistics rule
/// out are dropped here (whole-page pruning); an aggregate's remaining pages
/// are split into block-aligned slices when there are more cores than pages
/// (Lines 5-6); SELECT and binary operators get whole-page jobs per input,
/// grouped into time-range jobs that each feed one merge node (Eq. 5-6,
/// Figure 9). Every store
/// reaches Pipe as SeriesSnapshots — in-memory ones with resident pages,
/// file-backed ones with headers only and a payload loader (Section VI-C's
/// gradual loading) — so each plan kind compiles one way whatever the
/// storage.

/// One decoding-pipeline job: a slice of one page of one input series, or
/// (when `tail` is set) the unsealed in-memory tail of that input — the
/// streaming-ingest buffer, drained as raw arrays. Each input's
/// jobs are contiguous and in time order: its pages, then its tail.
struct PipeJob {
  int input = 0;  // 0 = plan.series, 1 = plan.series_right
  size_t page_index = 0;
  size_t begin = 0;
  size_t end = 0;
  bool tail = false;  // job covers snapshot.tail_* instead of a page
  /// Index into PipelineSpec::decisions when Schedule() chose this job's
  /// kernel (kEtsqp plans); -1 = run the options' pinned strategy.
  int decision = -1;
  /// A tombstone partially covers the page: the job decodes the whole page
  /// and filters deleted timestamps before draining it as raw arrays,
  /// instead of running the vectorized slice kernels. Masked jobs, like
  /// float-page jobs, are never sliced.
  bool masked = false;
  /// Header time bounds of the page (or of the tail): what the merge node
  /// compares before deciding to decode.
  int64_t min_time = 0;
  int64_t max_time = 0;
};

/// A time-range job of a merge plan (SELECT, projection, join, UNION,
/// CORR; Figure 9): one merge node over the inclusive time slice [lo, hi],
/// fed by the page jobs of each input that overlap it — jobs[first[i],
/// last[i]) of input i, in time order. A page that straddles a cut belongs
/// to both neighbouring ranges, each decoding only its side. `tuples[i]`
/// sums those jobs' header counts: the bound the range's output is sized
/// from.
struct RangeJob {
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  size_t first[2] = {0, 0};
  size_t last[2] = {0, 0};
  uint64_t tuples[2] = {0, 0};
};

/// The compiled pipeline: jobs ready for the job scheduler, the kernel
/// decisions the jobs reference (one per distinct page class), plus
/// counters for pages pruned at planning time.
struct PipelineSpec {
  std::vector<PipeJob> jobs;
  /// Merge plans only: the range jobs the engine schedules. Their page jobs
  /// are whole pages; aggregates schedule `jobs` directly.
  std::vector<RangeJob> ranges;
  std::vector<ScheduleDecision> decisions;
  QueryStats plan_stats;  // pages_total / pages_pruned / tuples_in_pages
  /// Index into `decisions` for the merge stage of multi-input plans
  /// (binary/correlate/concat): the etsqp.merge decision that combines the
  /// per-input streams. -1 = single input or a pinned strategy.
  int merge_decision = -1;
};

/// Plan-time kernel choices, one per distinct page class: classes are
/// memoized by key so a thousand-page series with one codec and width costs
/// a single Schedule() call. A no-op (every Decide returns -1) unless the
/// options run kEtsqp.
class DecisionCache {
 public:
  DecisionCache(const LogicalPlan& plan, const PipelineOptions& options,
                PipelineSpec* spec);

  /// Decision index for `cls` (memoized); -1 under a pinned strategy.
  int Decide(const PageClass& cls);

  /// EXPLAIN bookkeeping: pages/tuples covered per decision.
  void Cover(int idx, uint64_t pages, uint64_t tuples);

 private:
  bool enabled_;
  PlanContext ctx_;
  PipelineSpec* spec_;
  std::map<std::string, int> index_;
};

/// Maps a series name to a consistent snapshot. The indirection is what
/// lets one compiled pipeline span stores: the db layer's shard router
/// supplies a resolver that looks each input up on its owning shard, so a
/// cross-shard binary plan still compiles into a single PipelineJobSet and
/// merges through the ordinary merge stage.
using SnapshotResolver =
    std::function<Result<storage::SeriesSnapshot>(const std::string&)>;

/// Captures consistent snapshots of the plan's input series (left, plus
/// right for binary operators): sealed pages and the queryable tail in one
/// lock acquisition per input, so execution is stable under concurrent
/// ingest.
Result<std::vector<storage::SeriesSnapshot>> ResolveInputs(
    const LogicalPlan& plan, const storage::SeriesStore& store);

/// Same, but each input snapshot comes from `resolve` — the multi-shard
/// entry point (inputs may live on different stores).
Result<std::vector<storage::SeriesSnapshot>> ResolveInputs(
    const LogicalPlan& plan, const SnapshotResolver& resolve);

/// Builds jobs for `plan` over resolved input snapshots, whatever store
/// issued them. An input whose envelope (SeriesStore snapshots only)
/// misses the filters is skipped whole; the others go through the one page
/// walk: header-level page pruning (time range vs page min/max always;
/// value range vs page min/max when options.prune) and the same statistics
/// check on the tail (its min/max are computed at snapshot capture). The
/// walk reads headers only, so a lazily loaded input (a FileBackedStore
/// snapshot) never fetches a pruned page; its surviving pages become
/// whole-page jobs, one buffer-pool fetch each. Merge plans (every kind but
/// the aggregate) also get their range jobs: one at a single thread, else up
/// to `options.threads`, cut at page starts so each holds a similar share
/// of the surviving tuples.
Result<PipelineSpec> BuildPipeline(
    const LogicalPlan& plan,
    const std::vector<storage::SeriesSnapshot>& inputs,
    const PipelineOptions& options);

/// Convenience wrapper: resolves snapshots from `store` and compiles.
Result<PipelineSpec> BuildPipeline(const LogicalPlan& plan,
                                   const storage::SeriesStore& store,
                                   const PipelineOptions& options);

}  // namespace etsqp::exec

#endif  // ETSQP_EXEC_PIPE_BUILDER_H_
