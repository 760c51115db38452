#ifndef SQLBENCH_RUNNER_H_
#define SQLBENCH_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "check.h"
#include "common/metrics.h"
#include "common/status.h"
#include "db/database.h"
#include "trace.h"

namespace sqlbench {

/// One query as a client issues it. `check` compares the result with the
/// oracle; it runs after the timed call returns. `kind` (a string literal)
/// groups latencies by query type in the report.
struct QueryCase {
  const char* kind = "";
  /// Position in the workload's fixed query list; -1 for generated queries.
  int list_index = -1;
  std::string sql;
  std::function<bool(const etsqp::exec::QueryResult&, std::string*)> check;
};

/// Wraps a precomputed answer into a QueryCase check.
QueryCase StaticCase(const char* kind, std::string sql,
                     std::shared_ptr<const Expected> expected,
                     int list_index = -1);

/// What set-up left behind besides the database: its InsertBatch call
/// latencies (closed loop: each call is due when the previous returns) and
/// the ingest counters of the stores it loaded.
struct SetupLog {
  std::vector<double> insert_us;
  etsqp::metrics::IngestStats ingest;
};

/// Open-loop writer results (iot_serving): per-batch latency measured from
/// the batch's scheduled send time, how late the generator issued each
/// batch, and what the stores did.
struct WriterLog {
  struct Batch {
    uint64_t due_ns = 0;
    double latency_us = 0;   // from due time to the call's return
    double lateness_us = 0;  // from due time to the call's start
  };
  std::vector<Batch> batches;
  uint64_t attempted = 0;
  uint64_t rejected = 0;
  uint64_t tail_points_max = 0;
  std::string first_error;
  // Written by the compaction thread the writer triggers.
  std::vector<std::pair<uint64_t, uint64_t>> compaction_windows;  // ns
  uint64_t compaction_errors = 0;
  std::string compaction_error;
};

/// A workload: generated inputs loaded into a Database, and the queries
/// its clients issue. The database receives only the data and the SQL.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates every input from the seed and builds the database.
  virtual etsqp::Status Setup(Tracer* tracer, SetupLog* log) = 0;

  virtual etsqp::db::Database& db() = 0;
  virtual int clients() const = 0;
  /// Engine threads per query (the workload's `threads` setting).
  virtual int engine_threads() const = 0;

  /// The next query of `client`, drawn with that client's generator.
  virtual QueryCase Next(int client, std::mt19937_64* rng) = 0;

  /// Background load that runs beside the clients (iot_serving's writer).
  virtual void StartBackground(Tracer* /*tracer*/) {}
  virtual void StopBackground() {}
  virtual const WriterLog* writer_log() const { return nullptr; }

  /// Encoded bytes per live point at the end of the run.
  virtual double BytesPerPoint() = 0;

  /// FNV-1a over the generated points (after Setup).
  virtual uint64_t HashData() const = 0;

  /// Traced mode: re-times the Fig. 10 queries of this workload on the
  /// engine's ETSQP, SBoost and FastLanes configurations and returns
  /// (query number, ETSQP / best-baseline throughput) rows.
  virtual std::vector<std::pair<int, double>> PaperBar() { return {}; }
};

/// Builds the named workload; null for an unknown name. Files the
/// workload writes (TsFile, WAL) go under `scratch_dir`.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double seconds,
                                       const std::string& scratch_dir,
                                       double scale = 1.0);

/// Engine counters summed over the cache-missing queries of a traced phase.
struct ExecTotals {
  uint64_t queries = 0;
  uint64_t wall_nanos = 0;
  uint64_t tuples_in_pages = 0;
  uint64_t tuples_scanned = 0;
  uint64_t bytes_loaded = 0;
  uint64_t pages_total = 0;
  uint64_t pages_pruned = 0;
  uint64_t blocks_pruned = 0;
  uint64_t tail_tuples = 0;
  uint64_t index_probe_nanos = 0;
  uint64_t jobs = 0;
  uint64_t mispredictions = 0;
  uint64_t pool_queries = 0;  // parallel runs that report pool deltas
  uint64_t pool_steals = 0;
  uint64_t pool_park_nanos = 0;
  uint64_t admission_wait_nanos = 0;
  uint64_t cache_evictions = 0;
  uint64_t stage_nanos[etsqp::metrics::kNumStages] = {};

  void Add(const etsqp::exec::ExecStats& s);
  void Merge(const ExecTotals& o);
};

/// One Query call as a client made it.
struct QueryRecord {
  const char* kind = "";  // QueryCase::kind
  int list_index = -1;    // QueryCase::list_index
  uint64_t t0 = 0;  // ns, call issued
  uint64_t t1 = 0;  // ns, call returned
  uint64_t tuples = 0;  // tuples_in_pages credited (0 unless validated)
  int client = 0;
  bool validated = false;
  bool hit = false;

  double ms() const { return static_cast<double>(t1 - t0) / 1e6; }
};

/// Results of one measured phase, merged over its clients.
struct PhaseResult {
  double seconds = 0;  // wall time of the phase
  std::vector<QueryRecord> queries;  // per client, in issue order
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t mismatches = 0;
  uint64_t validated = 0;
  uint64_t cache_hits = 0;
  uint64_t tuples = 0;  // of validated queries; hits count their reference
  // Closed-loop rates: one pass over the queries at median latencies, so
  // a slow outlier moves them little. For a workload that replays a fixed
  // list, each list position once at its median latency: list length
  // (Σ tuples_in_pages of the list) ÷ Σ of the medians. Otherwise the
  // validated queries grouped by (kind, cache hit), each group's count at
  // its median latency: validated queries (tuples) ÷ that time, times the
  // client count.
  double qps = 0;
  double tuples_per_s = 0;
  std::string first_failure;
  ExecTotals exec;
  uint64_t probe_snapshots = 0;    // GetSnapshot calls of the probes
  uint64_t probe_tail_points = 0;  // tail points those snapshots copied
};

/// Runs every client of `w` in a closed loop for `seconds` of wall time.
/// A client's timed interval is the sum of its Query calls, so validation
/// (outside the calls) does not count against throughput. Each client
/// thread moves to the next CPU every quarter second. With a tracer,
/// each query records a `db.query` span and every `probe_every`-th one
/// also times sql::PlanQuery, GetSnapshot and exec::BuildPipeline as
/// separate calls beside it.
PhaseResult RunClients(Workload* w, double seconds, uint64_t seed,
                       Tracer* tracer, int probe_every);

/// The closed-loop rates described at PhaseResult::qps.
void ClosedLoopRates(const std::vector<QueryRecord>& queries, int clients,
                     double* qps, double* tuples_per_s);

}  // namespace sqlbench

#endif  // SQLBENCH_RUNNER_H_
