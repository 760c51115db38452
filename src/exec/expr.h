#ifndef ETSQP_EXEC_EXPR_H_
#define ETSQP_EXEC_EXPR_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace etsqp::exec {

/// Aggregation functions (Definition 2: valid value aggregation). SUM/COUNT
/// are associative; AVG/VARIANCE are algebraic over (sum, count, sum_sq);
/// MIN/MAX are associative but not Delta-fusable (they require decoding).
enum class AggFunc {
  kSum,
  kAvg,
  kCount,
  kMin,
  kMax,
  kVariance,
};

const char* AggFuncName(AggFunc f);

/// Inclusive time range predicate T >= lo AND T <= hi.
struct TimeRange {
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();

  bool IsUniverse() const {
    return lo == std::numeric_limits<int64_t>::min() &&
           hi == std::numeric_limits<int64_t>::max();
  }
  bool Contains(int64_t t) const { return t >= lo && t <= hi; }
  bool Overlaps(int64_t mn, int64_t mx) const { return mn <= hi && mx >= lo; }
};

/// Inclusive value range predicate A >= lo AND A <= hi. `active` false means
/// no value predicate.
///
/// The bounds are folded for integers: `v > L` is lo = L + 1 and `v < L`
/// is hi = L - 1, exact on int64 series and what the fused and SIMD kernels
/// use. A float value can lie between L and L + 1, so each bound also keeps
/// its strictness: a strict lo stands for `v > lo - 1`, a strict hi for
/// `v < hi + 1`. Float series filter with ContainsF64.
struct ValueRange {
  bool active = false;
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  bool lo_strict = false;
  bool hi_strict = false;

  bool Contains(int64_t v) const { return !active || (v >= lo && v <= hi); }

  /// The SQL literals of the bounds as doubles. Comparing inclusively
  /// against them is conservative, so pruning may do so.
  double LoF64() const { return static_cast<double>(lo_strict ? lo - 1 : lo); }
  double HiF64() const { return static_cast<double>(hi_strict ? hi + 1 : hi); }

  /// The filter on a float value, honouring each bound's strictness. A NaN
  /// passes, as in every float drain.
  bool ContainsF64(double v) const {
    if (!active) return true;
    const bool below = lo_strict ? v <= LoF64() : v < LoF64();
    const bool above = hi_strict ? v >= HiF64() : v > HiF64();
    return !below && !above;
  }
};

/// Sliding window description sw(T_min, dT) (Definition 2): window k covers
/// [T_min + k*dT, T_min + (k+1)*dT). `active` false = single whole-range agg.
struct SlidingWindow {
  bool active = false;
  int64_t t_min = 0;
  int64_t delta_t = 1;

  /// Start of the window holding a time t >= t_min. Windows are keyed by
  /// their start, which lies in [t_min, t] and so always fits int64, while
  /// the index (t - t_min) / dT need not (dT = 1 across the int64 range).
  /// t - t_min lies in [0, 2^64), so it is exact in uint64.
  int64_t WindowStartOf(int64_t t) const {
    const uint64_t rel =
        static_cast<uint64_t>(t) - static_cast<uint64_t>(t_min);
    return t - static_cast<int64_t>(rel % static_cast<uint64_t>(delta_t));
  }
  /// Start of the window after the one starting at `start`, where that
  /// window's cut falls; 128-bit because it can lie past the int64 edge.
  __int128 NextWindowStart(int64_t start) const {
    return static_cast<__int128>(start) + delta_t;
  }
};

/// Logical query plan covering the benchmark dialect (Table III) plus simple
/// extensions. One node description rather than a full tree: the Q1-Q6
/// shapes are fixed pipelines (Figure 2/9), which Pipe (Algorithm 2)
/// compiles into per-thread jobs.
struct LogicalPlan {
  enum class Kind {
    kAggregate,       // Q1-Q3: SELECT f(A) FROM ts [WHERE ...] [SW(...)]
    kSelect,          // SELECT * FROM ts [WHERE ...]
    kProjectBinary,   // Q4: SELECT ts1.A <op> ts2.A FROM ts1, ts2
    kUnion,           // Q5: SELECT * FROM ts1 UNION ts2 ORDER BY TIME
    kJoin,            // Q6: SELECT * FROM ts1, ts2 (natural join on time)
    kCorrelate,       // SELECT CORR(ts1.A, ts2.A) FROM ts1, ts2
  };

  /// EXPLAIN wrapper around the statement: kPlan compiles and renders the
  /// Pipe operator tree without executing; kAnalyze executes with stats
  /// collection forced on and annotates the tree with measured per-stage
  /// time/tuples/bytes.
  enum class ExplainMode { kNone, kPlan, kAnalyze };

  Kind kind = Kind::kAggregate;
  ExplainMode explain = ExplainMode::kNone;
  std::string series;        // left/primary input
  std::string series_right;  // right input for binary operators
  AggFunc func = AggFunc::kSum;
  TimeRange time_filter;
  ValueRange value_filter;
  SlidingWindow window;
  char binary_op = '+';  // + - * for kProjectBinary

  /// Inter-column predicate on joined tuples: left.value <op> right.value
  /// (Algorithm 2 Eq. 3: single-column filters push into the decoding
  /// pipelines; inter-column filters apply to the decoded vectors after the
  /// join mask). 0 = none; otherwise one of < > = (<= >= fold via swap).
  char inter_column_op = 0;

  static LogicalPlan Aggregate(std::string series, AggFunc func) {
    LogicalPlan p;
    p.kind = Kind::kAggregate;
    p.series = std::move(series);
    p.func = func;
    return p;
  }
};

/// Per-page-class scheduler outcome (populated only under collect_stats
/// for kEtsqp queries): which kernel ran the class's jobs, the cost the
/// static model predicted for them, the cost the jobs actually measured,
/// and how many jobs fell outside the prediction's tolerance band
/// (mispredictions).
struct SchedDecisionStats {
  std::string entry;  // the chosen kernel's label, e.g. "etsqp.fused"
  uint64_t jobs = 0;
  uint64_t tuples = 0;
  double predicted_nanos = 0;
  uint64_t measured_nanos = 0;
  uint64_t mispredictions = 0;

  void Merge(const SchedDecisionStats& o) {
    if (entry.empty()) entry = o.entry;
    jobs += o.jobs;
    tuples += o.tuples;
    predicted_nanos += o.predicted_nanos;
    measured_nanos += o.measured_nanos;
    mispredictions += o.mispredictions;
  }
};

/// Execution statistics reported with every query result. The flat counters
/// are what the benches derive throughput (tuples of loaded pages per
/// second, counting pruned slices — Section VII-B) and I/O volume from; they
/// are deterministic (identical across thread counts, except that a merge
/// plan's page straddling a range cut decodes in both ranges). The per-stage
/// breakdown (timings, tuples, bytes per pipeline stage) is populated only
/// when PipelineOptions.collect_stats is on; jobs record it locally and the
/// engine merges at job completion, so collection is lock-free on the hot
/// path and free when off.
struct ExecStats {
  uint64_t pages_total = 0;
  uint64_t pages_pruned = 0;   // skipped whole (header-only)
  uint64_t blocks_pruned = 0;  // skipped by Propositions 4-5
  uint64_t tuples_in_pages = 0;
  uint64_t tuples_scanned = 0;  // actually decoded/inspected
  uint64_t bytes_loaded = 0;    // encoded payload bytes touched
  uint64_t result_tuples = 0;
  // Streaming-ingest tail (unsealed in-memory points served by the raw-array
  // drain). tail_tuples counts tail points visible to the scan;
  // tail_tuples_scanned the subset the drain actually inspected
  // (also included in tuples_scanned, which stays the grand total).
  uint64_t tail_tuples = 0;
  uint64_t tail_tuples_scanned = 0;
  // Delete/TTL masking (storage tombstones): pages skipped at planning time
  // because a tombstone covers their whole time range, and tuples dropped by
  // the masked drain of partially covered pages. Tail points never appear
  // here — snapshots pre-filter the tail.
  uint64_t pages_pruned_deleted = 0;
  uint64_t deleted_tuples_masked = 0;
  // Merge node header shortcuts (Figure 9): pages a join, projection or
  // CORR never decoded because the other input had nothing in their time
  // range, and CORR page pairs aggregated in closed form without decoding.
  uint64_t merge_pages_skipped = 0;
  uint64_t merge_pairs_fused = 0;

  // Populated only under collect_stats.
  metrics::StageBreakdown stages;  // summed across jobs/threads
  uint64_t wall_nanos = 0;         // whole-query wall clock (engine level)
  int threads = 0;                 // worker threads configured for the run

  // Populated only under collect_stats for parallel runs on the shared
  // executor pool: the pool-wide counter delta (tasks, steals, parks,
  // parked time) observed during the run, and the pool's worker count.
  // Under concurrent queries the delta includes sibling queries' pool
  // activity — the pool is shared by design.
  metrics::PoolStats pool;
  int pool_workers = 0;

  // Populated only under collect_stats for kEtsqp queries: the
  // per-page-class decision outcomes (keyed by PageClass::Key()) and the
  // query-total misprediction counter.
  std::map<std::string, SchedDecisionStats> scheduler;
  uint64_t mispredictions = 0;

  // Serving-layer counters (db/database.h): result-cache outcomes for this
  // query (a hit short-circuits execution entirely). Always zero for
  // bare-Engine runs; the Database front end fills them in.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;  // entries this query's insert evicted
  // Always 0: the database has no admission queue. The field stays because
  // the SQL benchmark driver (sqlbench/src/runner.cc) still sums it.
  uint64_t admission_wait_nanos = 0;
  // Always 0: planning has no series-level index to probe; page headers
  // and tail stats are the only pruning. The field stays because the SQL
  // benchmark (sqlbench/src/{runner,main}.cc) still reads it.
  uint64_t index_probe_nanos = 0;

  void Merge(const ExecStats& o) {
    pages_total += o.pages_total;
    pages_pruned += o.pages_pruned;
    blocks_pruned += o.blocks_pruned;
    tuples_in_pages += o.tuples_in_pages;
    tuples_scanned += o.tuples_scanned;
    bytes_loaded += o.bytes_loaded;
    result_tuples += o.result_tuples;
    tail_tuples += o.tail_tuples;
    tail_tuples_scanned += o.tail_tuples_scanned;
    pages_pruned_deleted += o.pages_pruned_deleted;
    deleted_tuples_masked += o.deleted_tuples_masked;
    merge_pages_skipped += o.merge_pages_skipped;
    merge_pairs_fused += o.merge_pairs_fused;
    stages.Merge(o.stages);
    if (o.wall_nanos > wall_nanos) wall_nanos = o.wall_nanos;
    if (o.threads > threads) threads = o.threads;
    pool.Merge(o.pool);
    if (o.pool_workers > pool_workers) pool_workers = o.pool_workers;
    for (const auto& [key, s] : o.scheduler) scheduler[key].Merge(s);
    mispredictions += o.mispredictions;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_evictions += o.cache_evictions;
  }

  /// One-line-per-field JSON object (counters, and — when collected — the
  /// per-stage breakdown and wall time). Reused by the bench JSON export.
  std::string ToJson() const;
};

/// Historical name: the flat counter block before the per-stage extension.
using QueryStats = ExecStats;

/// Tabular query output. Values are doubles (timestamps in the benchmark
/// datasets stay below 2^53, so the conversion is exact).
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<std::vector<double>> columns;
  ExecStats stats;

  /// Non-empty for EXPLAIN / EXPLAIN ANALYZE: the rendered operator tree.
  std::string explain_text;

  size_t num_rows() const {
    return columns.empty() ? 0 : columns[0].size();
  }
};

}  // namespace etsqp::exec

#endif  // ETSQP_EXEC_EXPR_H_
