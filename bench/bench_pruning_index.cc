// Pruning-index planning benchmark: fleet-scale series counts. A shard
// with 10^5 series (ETSQP_BENCH_SCALE scales it) where a filter query that
// plans series one by one snapshots and plans every series before
// scheduling a single job. Measured per filter shape, over the whole fleet:
//
//   linear       snapshot every series and plan it (envelope check, then
//                the page-header walk for series the envelope keeps)
//   fleet-probe  one SIMD sweep over the series envelopes
//                (SeriesStore::CountMatchingSeries) picks the surviving
//                series; only those are snapshotted and planned
//
// On time-only shapes both must schedule identical job sets. With a value
// filter the fleet probe may schedule fewer jobs, never more: the planner
// here runs without header value pruning (value pruning runs at block
// level inside the drain), while the probe rules out whole series by value
// up front. The acceptance bar is fleet-probe >= 5x faster than linear
// planning on the selective shapes at 10^5 series.
//
//   ETSQP_BENCH_SCALE   scales the series count (default 1.0 = 100k)
//   ETSQP_BENCH_JSON    appends one JSON line per case

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/pipe_builder.h"
#include "exec/pipeline.h"
#include "storage/pruning_index.h"
#include "storage/series_store.h"

namespace etsqp {
namespace {

using bench::PrintCell;
using bench::PrintHeader;
using bench::TimeBest;
using exec::LogicalPlan;
using exec::PipelineOptions;
using storage::PruneProbe;
using storage::SeriesStore;

constexpr int64_t kPointsPerSeries = 32;
constexpr int64_t kTimeStride = 2;  // series k owns [k*64, k*64+62]
constexpr int64_t kSpanPerSeries = kPointsPerSeries * kTimeStride;

struct Fleet {
  SeriesStore store;
  std::vector<std::string> names;
};

/// 10^5 staggered series, 2 sealed pages each: series k holds 32 points in
/// [k*64, k*64+62] with values clustered at k % 1000 — so a narrow time
/// window or value band is selective across the fleet, the planner's worst
/// pre-index case (every header touched, almost everything discarded).
void BuildFleet(Fleet* fleet, size_t n_series) {
  fleet->names.reserve(n_series);
  std::vector<int64_t> times(kPointsPerSeries), values(kPointsPerSeries);
  for (size_t k = 0; k < n_series; ++k) {
    fleet->names.push_back("dev" + std::to_string(k));
    SeriesStore::SeriesOptions opt;
    opt.page_size = static_cast<uint32_t>(kPointsPerSeries / 2);
    if (!fleet->store.CreateSeries(fleet->names.back(), opt).ok()) {
      std::abort();
    }
    const int64_t base = static_cast<int64_t>(k) * kSpanPerSeries;
    for (int64_t i = 0; i < kPointsPerSeries; ++i) {
      times[i] = base + i * kTimeStride;
      values[i] = static_cast<int64_t>(k % 1000) * 10 + (i % 7);
    }
    if (!fleet->store
             .AppendBatch(fleet->names.back(), times.data(), values.data(),
                          kPointsPerSeries)
             .ok()) {
      std::abort();
    }
  }
  if (!fleet->store.Flush().ok()) std::abort();
}

struct PlanOutcome {
  size_t jobs = 0;
  size_t series_planned = 0;
  exec::ExecStats stats;
};

/// Plans `plan` against every series in `names` (plan.series is rewritten
/// per series) and accumulates the scheduled jobs and planning counters.
PlanOutcome PlanSeries(const SeriesStore& store,
                       const std::vector<std::string>& names,
                       LogicalPlan* plan, const PipelineOptions& options) {
  PlanOutcome out;
  std::vector<storage::SeriesSnapshot> inputs(1);
  for (const std::string& name : names) {
    plan->series = name;
    auto snap = store.GetSnapshot(name);
    if (!snap.ok()) std::abort();
    inputs[0] = std::move(snap).value();
    auto spec = BuildPipeline(*plan, inputs, options);
    if (!spec.ok()) std::abort();
    out.jobs += spec.value().jobs.size();
    out.stats.Merge(spec.value().plan_stats);
    ++out.series_planned;
  }
  return out;
}

/// The fleet-probe path: one SIMD sweep over the series envelopes, then
/// plan only the survivors.
PlanOutcome PlanFleetProbe(const SeriesStore& store, LogicalPlan* plan,
                           const PipelineOptions& options) {
  PruneProbe probe;
  probe.t_lo = plan->time_filter.lo;
  probe.t_hi = plan->time_filter.hi;
  probe.value_active = plan->value_filter.active;
  probe.v_lo = plan->value_filter.lo;
  probe.v_hi = plan->value_filter.hi;
  std::vector<std::string> matched;
  storage::PruneProbeStats ps = store.CountMatchingSeries(probe, &matched);
  PlanOutcome out = PlanSeries(store, matched, plan, options);
  out.stats.index_probe_nanos += ps.probe_nanos;
  out.stats.series_pruned += ps.series_total - ps.series_matched;
  return out;
}

void ExportCase(const char* case_name, size_t n_series, double linear_s,
                double probe_s, size_t jobs, size_t jobs_fleet) {
  const char* path = std::getenv("ETSQP_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\"bench\": \"pruning_index\", \"case\": \"%s\", "
               "\"series\": %zu, \"linear_seconds\": %.9f, "
               "\"fleet_probe_seconds\": %.9f, \"speedup_fleet\": %.3f, "
               "\"jobs_scheduled\": %zu, \"jobs_fleet_probe\": %zu}\n",
               case_name, n_series, linear_s, probe_s,
               probe_s > 0 ? linear_s / probe_s : 0.0, jobs, jobs_fleet);
  std::fclose(f);
}

}  // namespace
}  // namespace etsqp

int main() {
  using namespace etsqp;
  const size_t n_series = static_cast<size_t>(100'000 * bench::BenchScale());
  Fleet fleet;
  BuildFleet(&fleet, n_series);
  const int64_t fleet_span = static_cast<int64_t>(n_series) * kSpanPerSeries;

  std::printf("pruning-index planning: %zu series x %lld points "
              "(2 sealed pages each)\n",
              n_series, static_cast<long long>(kPointsPerSeries));
  PrintHeader("planning latency, per-series vs fleet probe (best-of timing)",
              {"case", "linear-ms", "probe-ms", "fleet-x"});

  struct Shape {
    const char* name;
    bool time_selective;    // ~1% of the fleet's time span
    bool value_selective;   // ~1% of the value clusters
  };
  const Shape shapes[] = {
      {"time_1pct", true, false},
      {"time_value_1pct", true, true},
      {"value_1pct", false, true},
      {"unselective", false, false},
  };

  bool ok = true;
  double selective_worst = 1e100;
  for (const Shape& shape : shapes) {
    LogicalPlan plan = LogicalPlan::Aggregate("", exec::AggFunc::kSum);
    if (shape.time_selective) {
      plan.time_filter.lo = fleet_span / 2;
      plan.time_filter.hi = fleet_span / 2 + fleet_span / 100;
    }
    if (shape.value_selective) {
      plan.value_filter.active = true;
      plan.value_filter.lo = 4200;  // clusters k%1000 in [420, 429]
      plan.value_filter.hi = 4299;
    }

    const PipelineOptions options = PipelineOptions::Etsqp(1);
    PlanOutcome r_linear, r_probe;
    double linear_s = TimeBest([&] {
      r_linear = PlanSeries(fleet.store, fleet.names, &plan, options);
    });
    double probe_s = TimeBest(
        [&] { r_probe = PlanFleetProbe(fleet.store, &plan, options); });

    // The fleet probe and the per-series envelope check use the same
    // envelopes, so time-only shapes schedule exactly the same jobs. With
    // a value filter the probe may schedule strictly fewer (the planner
    // here has header value pruning off), never more.
    const bool probe_ok = shape.value_selective
                              ? r_probe.jobs <= r_linear.jobs
                              : r_probe.jobs == r_linear.jobs;
    if (!probe_ok) {
      std::fprintf(stderr,
                   "FAIL %s: scheduled jobs diverge (linear=%zu probe=%zu)\n",
                   shape.name, r_linear.jobs, r_probe.jobs);
      ok = false;
    }

    PrintCell(shape.name);
    PrintCell(linear_s * 1e3);
    PrintCell(probe_s * 1e3);
    PrintCell(probe_s > 0 ? linear_s / probe_s : 0.0);
    bench::EndRow();
    ExportCase(shape.name, n_series, linear_s, probe_s, r_linear.jobs,
               r_probe.jobs);
    if ((shape.time_selective || shape.value_selective) && probe_s > 0) {
      selective_worst = std::min(selective_worst, linear_s / probe_s);
    }
  }

  std::printf("\nworst selective fleet-probe speedup: %.2fx "
              "(acceptance: >= 5x at 100k series)\n",
              selective_worst);
  if (!ok) return 1;
  return 0;
}
