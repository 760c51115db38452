#include "runner.h"

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "exec/pipe_builder.h"
#include "sql/planner.h"
#include "stats.h"
#include "workloads.h"

namespace sqlbench {
namespace {

using etsqp::metrics::NowNanos;
namespace ex = etsqp::exec;

bool HasRightInput(const ex::LogicalPlan& plan) {
  using Kind = ex::LogicalPlan::Kind;
  return plan.kind == Kind::kProjectBinary || plan.kind == Kind::kUnion ||
         plan.kind == Kind::kJoin || plan.kind == Kind::kCorrelate;
}

/// The layer calls Database::Query makes internally, made again as
/// separate timed calls: parse/plan, snapshot capture on the owning
/// shards, and Pipe compilation over those snapshots.
void Probe(const etsqp::db::Database& db, int threads,
           const std::string& sql, Tracer* tracer, uint64_t qid,
           PhaseResult* log) {
  const int64_t root = tracer->Open("probe", NowNanos(), -1, qid);
  uint64_t t0 = NowNanos();
  auto plan = etsqp::sql::PlanQuery(sql);
  tracer->Record("sql.plan", t0, NowNanos(), root, qid);
  // File-backed inputs have no snapshots; their pages stream from the pool.
  if (plan.ok() && db.file_store() == nullptr) {
    std::vector<std::string> names = {plan.value().series};
    if (HasRightInput(plan.value())) names.push_back(plan.value().series_right);
    std::vector<etsqp::storage::SeriesSnapshot> snaps;
    t0 = NowNanos();
    for (const std::string& name : names) {
      auto snap = db.shard_store(db.ShardOf(name)).GetSnapshot(name);
      if (!snap.ok()) break;
      snaps.push_back(std::move(snap).value());
    }
    tracer->Record("storage.snapshot", t0, NowNanos(), root, qid);
    if (snaps.size() == names.size()) {
      for (const auto& s : snaps) {
        ++log->probe_snapshots;
        log->probe_tail_points += s.tail_times.size();
      }
      t0 = NowNanos();
      auto spec = ex::BuildPipeline(
          plan.value(), snaps,
          ex::PipelineOptions::EtsqpPrune(threads).WithStats(true));
      tracer->Record("exec.build_pipeline", t0, NowNanos(), root, qid);
    }
  }
  tracer->Close(root, NowNanos());
}

}  // namespace

void ExecTotals::Merge(const ExecTotals& o) {
  queries += o.queries;
  wall_nanos += o.wall_nanos;
  tuples_in_pages += o.tuples_in_pages;
  tuples_scanned += o.tuples_scanned;
  bytes_loaded += o.bytes_loaded;
  pages_total += o.pages_total;
  pages_pruned += o.pages_pruned;
  blocks_pruned += o.blocks_pruned;
  tail_tuples += o.tail_tuples;
  index_probe_nanos += o.index_probe_nanos;
  jobs += o.jobs;
  mispredictions += o.mispredictions;
  pool_queries += o.pool_queries;
  pool_steals += o.pool_steals;
  pool_park_nanos += o.pool_park_nanos;
  admission_wait_nanos += o.admission_wait_nanos;
  cache_evictions += o.cache_evictions;
  for (int i = 0; i < etsqp::metrics::kNumStages; ++i) {
    stage_nanos[i] += o.stage_nanos[i];
  }
}

void ExecTotals::Add(const ex::ExecStats& s) {
  ++queries;
  wall_nanos += s.wall_nanos;
  tuples_in_pages += s.tuples_in_pages;
  tuples_scanned += s.tuples_scanned;
  bytes_loaded += s.bytes_loaded;
  pages_total += s.pages_total;
  pages_pruned += s.pages_pruned;
  blocks_pruned += s.blocks_pruned;
  tail_tuples += s.tail_tuples;
  index_probe_nanos += s.index_probe_nanos;
  for (const auto& [key, d] : s.scheduler) jobs += d.jobs;
  mispredictions += s.mispredictions;
  if (s.pool_workers > 0) {
    ++pool_queries;
    pool_steals += s.pool.steals;
    pool_park_nanos += s.pool.park_nanos;
  }
  admission_wait_nanos += s.admission_wait_nanos;
  cache_evictions += s.cache_evictions;
  for (int i = 0; i < etsqp::metrics::kNumStages; ++i) {
    stage_nanos[i] += s.stages.stages[i].nanos;
  }
}

PhaseResult RunClients(Workload* w, double seconds, uint64_t seed,
                       Tracer* tracer, int probe_every) {
  const int n = w->clients();
  std::vector<PhaseResult> logs(n);  // one per client, merged at the end
  const bool cache_on = w->db().cache_stats().budget_bytes > 0;
  // A cache hit counts the tuples_in_pages of the miss that produced it:
  // the last miss of the same SQL string (equal SQL + unchanged epochs).
  std::mutex ref_mu;
  std::unordered_map<std::string, uint64_t> ref_tuples;
  std::atomic<uint64_t> next_qid{1};
  const double start = NowSeconds();
  const double deadline = start + seconds;

  auto client = [&](int c) {
    std::mt19937_64 rng(DeriveSeed(seed, 100 + c));
    PhaseResult& log = logs[c];
    const int cpus = static_cast<int>(std::thread::hardware_concurrency());
    int slot = -1;
    for (uint64_t issued = 0; NowSeconds() < deadline; ++issued) {
      // Rotate this client over every CPU, a quarter second on each, so
      // one run samples all of them rather than whichever it landed on.
      const int want = static_cast<int>((NowSeconds() - start) * 4 + c) % cpus;
      if (cpus > 1 && want != slot) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(want, &set);
        pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
        slot = want;
      }
      QueryCase q = w->Next(c, &rng);
      const uint64_t qid = next_qid.fetch_add(1);
      const uint64_t t0 = NowNanos();
      auto res = w->db().Query(q.sql);
      const uint64_t t1 = NowNanos();
      ++log.attempted;
      log.queries.push_back(
          QueryRecord{q.kind, q.list_index, t0, t1, 0, c, false, false});
      QueryRecord& rec = log.queries.back();
      if (!res.ok()) {
        ++log.errors;
        if (log.first_failure.empty()) {
          log.first_failure = q.sql + ": " + res.status().ToString();
        }
        continue;
      }
      const ex::ExecStats& st = res.value().stats;
      const bool hit = st.cache_hits > 0;
      const int64_t span = tracer->Record("db.query", t0, t1, -1, qid);
      if (!hit && st.wall_nanos > 0 && span >= 0) {
        // The engine's own wall clock, placed at the end of the call: the
        // part of the Query span the serving layer does not own.
        tracer->Record("exec.engine", t1 - std::min(st.wall_nanos, t1 - t0),
                       t1, span, qid);
      }
      std::string why;
      if (!q.check(res.value(), &why)) {
        ++log.mismatches;
        if (log.first_failure.empty()) {
          log.first_failure = q.sql + ": " + why;
        }
        continue;
      }
      ++log.validated;
      rec.validated = true;
      rec.hit = hit;
      uint64_t tuples = st.tuples_in_pages;
      if (hit) {
        ++log.cache_hits;
        std::lock_guard<std::mutex> lock(ref_mu);
        auto it = ref_tuples.find(q.sql);
        tuples = it == ref_tuples.end() ? 0 : it->second;
      } else if (cache_on) {
        std::lock_guard<std::mutex> lock(ref_mu);
        ref_tuples[q.sql] = tuples;
      }
      log.tuples += tuples;
      rec.tuples = tuples;
      if (tracer->on()) {
        if (!hit) log.exec.Add(st);
        if (probe_every > 0 && issued % probe_every == 0) {
          Probe(w->db(), w->engine_threads(), q.sql, tracer, qid, &log);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();

  PhaseResult r;
  r.seconds = NowSeconds() - start;
  for (PhaseResult& log : logs) {
    r.queries.insert(r.queries.end(), log.queries.begin(), log.queries.end());
    r.attempted += log.attempted;
    r.errors += log.errors;
    r.mismatches += log.mismatches;
    r.validated += log.validated;
    r.cache_hits += log.cache_hits;
    r.tuples += log.tuples;
    if (r.first_failure.empty()) r.first_failure = log.first_failure;
    r.exec.Merge(log.exec);
    r.probe_snapshots += log.probe_snapshots;
    r.probe_tail_points += log.probe_tail_points;
  }
  ClosedLoopRates(r.queries, n, &r.qps, &r.tuples_per_s);
  return r;
}

void ClosedLoopRates(const std::vector<QueryRecord>& queries, int clients,
                     double* qps, double* tuples_per_s) {
  // Fixed list: validated latencies and tuples per list position.
  std::map<int, std::pair<std::vector<double>, uint64_t>> listed;
  for (const QueryRecord& q : queries) {
    if (q.list_index < 0 || !q.validated) continue;
    auto& [ms, tuples] = listed[q.list_index];
    ms.push_back(q.ms());
    tuples = q.tuples;
  }
  if (!listed.empty()) {
    double median_ms = 0, tuples = 0;
    for (auto& [index, entry] : listed) {
      median_ms += Median(std::move(entry.first));
      tuples += static_cast<double>(entry.second);
    }
    *qps = static_cast<double>(listed.size()) / median_ms * 1e3;
    *tuples_per_s = tuples / median_ms * 1e3;
    return;
  }
  // Generated queries: the same pass, over (kind, hit) cells weighted by
  // how often each occurred, so each client's time is its count of
  // queries at their cell's median latency.
  std::map<std::pair<std::string, bool>, std::vector<double>> cells;
  double validated = 0, tuples = 0;
  for (const QueryRecord& q : queries) {
    if (!q.validated) continue;
    cells[{q.kind, q.hit}].push_back(q.ms());
    ++validated;
    tuples += static_cast<double>(q.tuples);
  }
  double busy_ms = 0;
  for (auto& [cell, ms] : cells) {
    const double n = static_cast<double>(ms.size());
    busy_ms += n * Median(std::move(ms));
  }
  if (busy_ms <= 0) return;
  *qps = clients * validated / busy_ms * 1e3;
  *tuples_per_s = clients * tuples / busy_ms * 1e3;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double seconds,
                                       const std::string& scratch_dir,
                                       double scale) {
  if (name == "scan_agg") return MakeScanAgg(seed, scale);
  if (name == "merge_join") return MakeMergeJoin(seed, scale);
  if (name == "cold_scan") return MakeColdScan(seed, scale, scratch_dir);
  if (name == "iot_serving") {
    return MakeIotServing(seed, scale, seconds, scratch_dir);
  }
  return nullptr;
}

uint64_t InputHash(Workload* w) {
  uint64_t h = w->HashData();
  for (int c = 0; c < w->clients(); ++c) {
    std::mt19937_64 rng(DeriveSeed(0, c));
    for (int i = 0; i < 64; ++i) {
      const std::string sql = w->Next(c, &rng).sql;
      h = Fnv1a(sql.data(), sql.size(), h);
    }
  }
  return h;
}

}  // namespace sqlbench
