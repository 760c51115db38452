#include "exec/explain.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <limits>

namespace etsqp::exec {

namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  *out += buf;
}

/// Nanoseconds as a human-scaled fixed-width time.
void AppendTime(std::string* out, uint64_t nanos) {
  double ms = static_cast<double>(nanos) / 1e6;
  if (ms >= 1000.0) {
    Appendf(out, "%8.3f s ", ms / 1000.0);
  } else if (nanos >= 1000) {
    Appendf(out, "%8.3f ms", ms);
  } else {
    Appendf(out, "%5" PRIu64 "    ns", nanos);
  }
}

void AppendFilterLine(std::string* out, const char* indent,
                      const LogicalPlan& plan) {
  const bool have_time = !plan.time_filter.IsUniverse();
  const bool have_value = plan.value_filter.active;
  if (!have_time && !have_value) return;
  *out += indent;
  *out += "filter:";
  if (have_time) {
    Appendf(out, " time in [%" PRId64 ", %" PRId64 "]", plan.time_filter.lo,
            plan.time_filter.hi);
  }
  if (have_value) {
    Appendf(out, "%s value in [%" PRId64 ", %" PRId64 "]",
            have_time ? "," : "", plan.value_filter.lo, plan.value_filter.hi);
  }
  *out += '\n';
}

/// One scan leaf: the pages of one input series with the compile-time
/// pruning decision. Per-input page counts are recovered from the job list
/// (each surviving page contributes >= 1 job).
void AppendScan(std::string* out, const char* indent, const std::string& name,
                int input, const PipelineSpec& spec) {
  size_t jobs = 0;
  size_t pages = 0;
  size_t tail_tuples = 0;
  size_t last_page = std::numeric_limits<size_t>::max();
  for (const PipeJob& j : spec.jobs) {
    if (j.input != input) continue;
    if (j.tail) {
      tail_tuples = j.end - j.begin;
      continue;
    }
    ++jobs;
    if (j.page_index != last_page) {
      ++pages;
      last_page = j.page_index;
    }
  }
  Appendf(out, "%sScan %s  pages=%zu jobs=%zu", indent, name.c_str(), pages,
          jobs);
  if (tail_tuples > 0) Appendf(out, " tail=%zu", tail_tuples);
  *out += '\n';
}

}  // namespace

std::string RenderExplain(const LogicalPlan& plan,
                          const PipelineOptions& options,
                          const PipelineSpec& spec) {
  std::string out;

  // Root operator.
  switch (plan.kind) {
    case LogicalPlan::Kind::kAggregate:
      Appendf(&out, "Aggregate(%s)", AggFuncName(plan.func));
      if (plan.window.active) {
        Appendf(&out, " sliding_window(t_min=%" PRId64 ", dt=%" PRId64 ")",
                plan.window.t_min, plan.window.delta_t);
      }
      break;
    case LogicalPlan::Kind::kSelect:
      out += "Materialize";
      break;
    case LogicalPlan::Kind::kProjectBinary:
      Appendf(&out, "Project(left %c right)", plan.binary_op);
      break;
    case LogicalPlan::Kind::kUnion:
      out += "MergeUnion(time order)";
      break;
    case LogicalPlan::Kind::kJoin:
      out += "MergeJoin(on time)";
      break;
    case LogicalPlan::Kind::kCorrelate:
      out += "Correlate(corr, cov)";
      break;
  }
  out += '\n';
  if (plan.inter_column_op != 0) {
    Appendf(&out, "  inter-column filter: left %c right\n",
            plan.inter_column_op);
  }

  // Compiled Pipe configuration (Algorithm 2).
  Appendf(&out, "  Pipe[%s, prune=%s, threads=%d]",
          DecodeStrategyName(options.strategy), options.prune ? "on" : "off",
          options.threads);
  Appendf(&out, ": %zu jobs, %" PRIu64 "/%" PRIu64 " pages after pruning\n",
          spec.jobs.size(),
          spec.plan_stats.pages_total - spec.plan_stats.pages_pruned,
          spec.plan_stats.pages_total);
  // Kernel decisions: one line per page class, the chosen kernel and the
  // cost estimate it won on.
  for (const ScheduleDecision& d : spec.decisions) {
    Appendf(&out, "    sched %s: entry=%s est=%.2fns/t pages=%" PRIu64
            " tuples=%" PRIu64 "\n",
            d.class_key.c_str(), d.label, d.predicted_ns_per_tuple, d.pages,
            d.tuples);
  }
  AppendFilterLine(&out, "    ", plan);

  // Scan leaves (one per input series).
  AppendScan(&out, "    ", plan.series, 0, spec);
  if (!plan.series_right.empty()) {
    AppendScan(&out, "    ", plan.series_right, 1, spec);
  }
  return out;
}

std::string RenderStats(const ExecStats& stats) {
  std::string out;
  if (stats.wall_nanos > 0) {
    out += "wall: ";
    AppendTime(&out, stats.wall_nanos);
    Appendf(&out, "  threads: %d\n", stats.threads > 0 ? stats.threads : 1);
  }
  if (!stats.pool.empty() || stats.pool_workers > 0) {
    Appendf(&out,
            "pool: workers=%d tasks=%" PRIu64 " steals=%" PRIu64
            " parks=%" PRIu64 " parked=",
            stats.pool_workers, stats.pool.tasks, stats.pool.steals,
            stats.pool.parks);
    AppendTime(&out, stats.pool.park_nanos);
    out += '\n';
  }
  Appendf(&out,
          "pages: total=%" PRIu64 " pruned=%" PRIu64 " blocks_pruned=%" PRIu64
          "\n",
          stats.pages_total, stats.pages_pruned, stats.blocks_pruned);
  Appendf(&out,
          "tuples: in_pages=%" PRIu64 " scanned=%" PRIu64 " result=%" PRIu64
          "\n",
          stats.tuples_in_pages, stats.tuples_scanned, stats.result_tuples);
  if (stats.tail_tuples > 0) {
    Appendf(&out, "tail: tuples=%" PRIu64 " scanned=%" PRIu64 "\n",
            stats.tail_tuples, stats.tail_tuples_scanned);
  }
  if (stats.pages_pruned_deleted > 0 || stats.deleted_tuples_masked > 0) {
    Appendf(&out,
            "deletes: pages_pruned=%" PRIu64 " tuples_masked=%" PRIu64 "\n",
            stats.pages_pruned_deleted, stats.deleted_tuples_masked);
  }
  if (stats.merge_pages_skipped > 0 || stats.merge_pairs_fused > 0) {
    Appendf(&out,
            "merge: pages_skipped=%" PRIu64 " pairs_fused=%" PRIu64 "\n",
            stats.merge_pages_skipped, stats.merge_pairs_fused);
  }
  Appendf(&out, "bytes loaded: %" PRIu64 "\n", stats.bytes_loaded);
  if (stats.cache_hits + stats.cache_misses + stats.cache_evictions > 0) {
    Appendf(&out,
            "result cache: hits=%" PRIu64 " misses=%" PRIu64
            " evictions=%" PRIu64 "\n",
            stats.cache_hits, stats.cache_misses, stats.cache_evictions);
  }
  if (!stats.scheduler.empty()) {
    // Predicted-vs-measured per page class: how well the static cost model
    // anticipated the kernels it scheduled.
    Appendf(&out, "scheduler: mispredictions=%" PRIu64 "\n",
            stats.mispredictions);
    for (const auto& [key, s] : stats.scheduler) {
      double pred =
          s.tuples > 0 ? s.predicted_nanos / static_cast<double>(s.tuples) : 0;
      double meas =
          s.tuples > 0
              ? static_cast<double>(s.measured_nanos) / static_cast<double>(s.tuples)
              : 0;
      Appendf(&out, "  %s: entry=%s pred=%.2fns/t meas=%.2fns/t",
              key.c_str(), s.entry.c_str(), pred, meas);
      if (pred > 0) {
        Appendf(&out, " delta=%+.0f%%", (meas - pred) / pred * 100.0);
      }
      Appendf(&out, " jobs=%" PRIu64 " tuples=%" PRIu64 "\n", s.jobs,
              s.tuples);
    }
  }
  if (stats.stages.empty()) return out;

  Appendf(&out, "%-11s %-11s %10s %12s %14s\n", "stage", "time", "calls",
          "tuples", "bytes");
  for (int i = 0; i < metrics::kNumStages; ++i) {
    const metrics::StageStats& s =
        stats.stages.stages[i];
    if (s.empty()) continue;
    Appendf(&out, "%-11s ",
            metrics::StageName(static_cast<metrics::Stage>(i)));
    AppendTime(&out, s.nanos);
    Appendf(&out, " %10" PRIu64 " %12" PRIu64 " %14" PRIu64 "\n", s.calls,
            s.tuples, s.bytes);
  }
  return out;
}

std::string RenderExplainAnalyze(const LogicalPlan& plan,
                                 const PipelineOptions& options,
                                 const PipelineSpec& spec,
                                 const ExecStats& stats) {
  std::string out = RenderExplain(plan, options, spec);
  out += "---- execution profile ----\n";
  out += RenderStats(stats);
  return out;
}

}  // namespace etsqp::exec
