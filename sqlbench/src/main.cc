// The SQL-to-rows benchmark driver. Runs one workload through the public
// db::Database API, checks every answer against an oracle, and prints its
// metrics; the last line of stdout is one JSON object.
//
//   sqlbench --workload scan_agg --seed 1 --seconds 10 --trace 0
//            --out .bench_build/sqlbench/run
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced
// phase and a traced phase and prints the per-layer metrics, writing the
// traced phase's spans to <out>/spans-<workload>-<seed>.jsonl.

#include <sys/stat.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "runner.h"
#include "stats.h"
#include "workloads.h"

namespace sqlbench {
namespace {

using etsqp::metrics::NowNanos;
using etsqp::metrics::Stage;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_build/sqlbench/run";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

/// Ordered metric list: name, value, unit.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Samples per p99 chunk (see MedianChunkP99): each chunk's p99 has
/// exactly 10 samples beyond it.
constexpr size_t kChunk = 1000;

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

std::vector<double> LatenciesMs(const PhaseResult& p, bool hits_only = false) {
  std::vector<double> out;
  for (const QueryRecord& q : p.queries) {
    if (!hits_only || q.hit) out.push_back(q.ms());
  }
  return out;
}

/// Durations (µs) of the spans named `name`; `roots_only` keeps spans
/// without a parent.
std::vector<double> SpanMicros(const std::vector<Span>& spans,
                               const char* name, bool roots_only = false) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0 && (!roots_only || s.parent < 0)) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

int Run(const Args& args) {
  mkdir(args.out.c_str(), 0755);
  Tracer tracer(args.trace);

  // --- Instances: each is set up from the seed, warmed up and measured for
  // its share of --seconds. One build of a database can run ~10% faster or
  // slower than the next on the same inputs, so an untraced run measures
  // three and reports the medians. A traced run
  // builds one and measures it twice, untraced and then traced.
  const int instances = args.trace ? 1 : 3;
  const double phase_s = args.seconds / instances;
  std::vector<double> setup_s, qps, tuples_per_s, p50_ms;
  std::unique_ptr<Workload> w;
  SetupLog setup;
  PhaseResult u, t;  // the last instance's phases
  etsqp::metrics::CompactionStats comp0, comp1;
  etsqp::storage::FileBackedStore::Stats file0, file1;
  etsqp::metrics::IngestStats ingest1;
  uint64_t attempted = 0, failed = 0;
  std::string first_failure;
  std::vector<double> ingest_us, lateness_us;
  for (int i = 0; i < instances; ++i) {
    w.reset();
    w = MakeWorkload(args.workload, args.seed, args.seconds, args.out);
    if (w == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    SetupLog log;
    const double t0 = NowSeconds();
    etsqp::Status st = w->Setup(&tracer, &log);
    setup_s.push_back(NowSeconds() - t0);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup.insert_us.insert(setup.insert_us.end(), log.insert_us.begin(),
                           log.insert_us.end());
    setup.ingest = log.ingest;

    etsqp::db::Database& db = w->db();
    tracer.set_on(false);
    w->StartBackground(&tracer);
    // Warm-up: lazy set-up (pool workers, caches) finishes before timing.
    RunClients(w.get(), std::min(1.0, phase_s / 4), args.seed + 1, &tracer,
               0);
    const uint64_t u_start = NowNanos();
    u = RunClients(w.get(), phase_s, args.seed, &tracer, 0);
    const uint64_t u_end = NowNanos();
    if (args.trace) {
      db.SetCollectStats(true);
      comp0 = db.compaction_stats();
      if (db.file_store() != nullptr) file0 = db.file_store()->stats();
      tracer.set_on(true);
      t = RunClients(w.get(), phase_s, args.seed, &tracer, 4);
    }
    w->StopBackground();
    tracer.set_on(false);
    if (args.trace) {
      comp1 = db.compaction_stats();
      if (db.file_store() != nullptr) file1 = db.file_store()->stats();
      ingest1 = db.ingest_stats();
    }
    qps.push_back(u.qps);
    tuples_per_s.push_back(u.tuples_per_s);
    p50_ms.push_back(Percentile(LatenciesMs(u), 50));

    // --- Failures ------------------------------------------------------
    attempted += u.attempted + t.attempted;
    failed += u.errors + u.mismatches + t.errors + t.mismatches;
    if (first_failure.empty()) first_failure = u.first_failure;
    if (first_failure.empty()) first_failure = t.first_failure;
    const WriterLog* wl = w->writer_log();
    if (wl != nullptr) {
      attempted += wl->attempted + wl->compaction_windows.size();
      failed += wl->rejected + wl->compaction_errors;
      if (first_failure.empty()) first_failure = wl->first_error;
      if (first_failure.empty()) first_failure = wl->compaction_error;
      for (const WriterLog::Batch& b : wl->batches) {
        if (b.due_ns >= u_start && b.due_ns < u_end) {
          ingest_us.push_back(b.latency_us);
          lateness_us.push_back(b.lateness_us);
        }
      }
    }
  }
  std::printf("info setup_s_samples");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\ninfo qps_samples");
  for (double q : qps) std::printf(" %.1f", q);
  std::printf("\n");
  const WriterLog* wl = w->writer_log();
  if (wl == nullptr) {
    ingest_us = setup.insert_us;  // the set-up load is the only ingest
  }
  const bool correct = failed == 0;
  if (!correct) {
    std::printf("info first_failure %s\n", first_failure.c_str());
  }
  std::printf("info failed_frac %.6g ratio (failed %" PRIu64
              " of %" PRIu64 " attempted)\n",
              Ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              failed, attempted);
  // Per kind and overall: the last instance's measured phase.
  const std::vector<double> latency_ms = LatenciesMs(u);
  std::map<std::string, std::vector<double>> by_kind;
  for (const QueryRecord& q : u.queries) by_kind[q.kind].push_back(q.ms());
  for (const auto& [kind, ms] : by_kind) {
    std::printf("info kind %s queries %zu p50_ms %.4f\n", kind.c_str(),
                ms.size(), Percentile(ms, 50));
  }
  std::printf("info latency_samples %zu chunks_of_%zu %zu whole_run_p99_ms "
              "%.4f cache_hits %" PRIu64 "\n",
              latency_ms.size(), kChunk, latency_ms.size() / kChunk,
              Percentile(latency_ms, 99), u.cache_hits);
  // InsertBatch latency: iot_serving's writer from each batch's due time,
  // else the set-up load. Printed, not bounded: see README.md.
  const double ingest_p99_us = Percentile(ingest_us, 99);
  std::printf("info ingest_samples %zu p50_us %.3f p90_us %.3f "
              "ingest_p99_us %.3f p99_beyond %zu\n",
              ingest_us.size(), Percentile(ingest_us, 50),
              Percentile(ingest_us, 90), ingest_p99_us,
              SamplesBeyond(ingest_us.size(), 99));
  if (!lateness_us.empty()) {
    std::printf("info writer_lateness_us p50 %.3f p99 %.3f\n",
                Percentile(lateness_us, 50), Percentile(lateness_us, 99));
  }

  const double bytes_per_point = w->BytesPerPoint();
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"query_tput_tuples_per_s", Median(tuples_per_s), "tuples/s"},
        {"qps", Median(qps), "1/s"},
        {"latency_p50_ms", Median(p50_ms), "ms"},
        {"bytes_per_point", bytes_per_point, "B"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
    };
    for (const Metric& m : metrics) {
      std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::fflush(stdout);
    PrintJson(correct, attempted, failed, metrics);
    return 0;
  }

  // --- Per-layer metrics from the traced phase ---------------------------
  const std::vector<Span> spans = tracer.spans();
  const std::string span_path = args.out + "/spans-" + args.workload + "-" +
                                std::to_string(args.seed) + ".jsonl";
  if (!tracer.WriteJsonl(span_path)) {
    std::fprintf(stderr, "cannot write %s\n", span_path.c_str());
  }
  const std::vector<uint64_t> self = SelfNanos(spans);
  const double plan_us = Percentile(SpanMicros(spans, "sql.plan"), 50);
  std::vector<double> db_self_us;
  std::vector<bool> has_engine(spans.size());
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "exec.engine") == 0) has_engine[s.parent] = true;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (has_engine[i]) {
      db_self_us.push_back(static_cast<double>(self[i]) / 1e3 - plan_us);
    }
  }
  std::vector<double> during_compaction_ms;
  if (wl != nullptr) {
    for (const QueryRecord& q : t.queries) {
      for (const auto& [c0, c1] : wl->compaction_windows) {
        if (q.t0 < c1 && c0 < q.t1) {
          during_compaction_ms.push_back(q.ms());
          break;
        }
      }
    }
  }
  std::vector<double> writer_append_us =
      SpanMicros(spans, "db.insert_batch", /*roots_only=*/true);
  if (writer_append_us.empty()) {
    writer_append_us = SpanMicros(spans, "db.insert_batch");
  }
  const ExecTotals& e = t.exec;
  const double tuples = static_cast<double>(e.tuples_in_pages);
  auto per_tuple = [&](Stage s) {
    return Ratio(static_cast<double>(e.stage_nanos[static_cast<int>(s)]),
                 tuples);
  };
  uint64_t stage_total = 0;
  for (uint64_t ns : e.stage_nanos) stage_total += ns;
  // Ingest counters: the run's own writes when there is a writer, else the
  // set-up load.
  etsqp::metrics::IngestStats ing = wl != nullptr ? ingest1 : setup.ingest;
  // Points the run itself appended (the WAL is attached after the load).
  const double wal_points = static_cast<double>(ingest1.points_appended) -
                            static_cast<double>(setup.ingest.points_appended);
  std::map<int, double> bar;
  for (const auto& [q, ratio] : w->PaperBar()) bar[q] = ratio;
  const double pool_lookups =
      static_cast<double>((file1.pool_hits - file0.pool_hits) +
                          (file1.pages_loaded - file0.pages_loaded));

  // Measured on every workload (zero where the layer does no work).
  std::vector<Metric> layer = {
      {"trace.overhead_frac", 1 - Ratio(t.qps, u.qps), "ratio"},
      {"sql.plan_us", plan_us, "us"},
      {"db.self_us", Percentile(db_self_us, 50), "us"},
      // From the untraced phase; printed here, without a bound (README.md).
      {"latency_p99_ms", MedianChunkP99(latency_ms, kChunk), "ms"},
      {"db.cache_hit_ratio",
       Ratio(static_cast<double>(t.cache_hits),
             static_cast<double>(t.validated)),
       "ratio"},
      {"db.cache_evictions", static_cast<double>(e.cache_evictions), "count"},
      {"storage.snapshot_tail_points",
       Ratio(static_cast<double>(t.probe_tail_points),
             static_cast<double>(t.probe_snapshots)),
       "points"},
      {"exec.tail_tuples_frac",
       Ratio(static_cast<double>(e.tail_tuples), tuples), "ratio"},
      {"exec.jobs_per_query",
       Ratio(static_cast<double>(e.jobs), static_cast<double>(e.queries)),
       "count"},
      {"exec.pages_pruned_frac",
       Ratio(static_cast<double>(e.pages_pruned),
             static_cast<double>(e.pages_total)),
       "ratio"},
      {"exec.blocks_pruned_per_page",
       Ratio(static_cast<double>(e.blocks_pruned),
             static_cast<double>(e.pages_total - e.pages_pruned)),
       "count"},
      {"exec.mispredictions_frac",
       Ratio(static_cast<double>(e.mispredictions),
             static_cast<double>(e.jobs)),
       "ratio"},
      {"exec.unpack_ns_per_tuple", per_tuple(Stage::kUnpack), "ns/tuple"},
      {"exec.delta_ns_per_tuple", per_tuple(Stage::kDelta), "ns/tuple"},
      {"exec.filter_ns_per_tuple", per_tuple(Stage::kFilter), "ns/tuple"},
      {"exec.aggregate_ns_per_tuple", per_tuple(Stage::kAggregate),
       "ns/tuple"},
      {"exec.merge_ns_per_tuple", per_tuple(Stage::kMerge), "ns/tuple"},
      {"exec.page_fetch_ns_per_tuple", per_tuple(Stage::kPageFetch),
       "ns/tuple"},
      {"exec.scan_ratio", Ratio(static_cast<double>(e.tuples_scanned), tuples),
       "ratio"},
      {"exec.bytes_loaded_per_tuple",
       Ratio(static_cast<double>(e.bytes_loaded), tuples), "B/tuple"},
      {"exec.stage_coverage",
       Ratio(static_cast<double>(stage_total),
             static_cast<double>(e.wall_nanos)),
       "ratio"},
      {"storage.append_us_p50", Percentile(writer_append_us, 50), "us"},
      {"storage.ingest_p99_us", ingest_p99_us, "us"},
      {"storage.seal_us_per_page",
       Ratio(static_cast<double>(ing.seal_nanos) / 1e3,
             static_cast<double>(ing.pages_sealed)),
       "us/page"},
      {"storage.wal_bytes_per_point",
       Ratio(static_cast<double>(ingest1.wal_bytes), wal_points), "B/point"},
      {"storage.tail_points_max",
       static_cast<double>(wl != nullptr ? wl->tail_points_max : 0), "points"},
      {"storage.compaction_out_in_ratio",
       Ratio(static_cast<double>(comp1.bytes_out - comp0.bytes_out),
             static_cast<double>(comp1.bytes_in - comp0.bytes_in)),
       "ratio"},
      {"storage.pages_reencoded",
       static_cast<double>(comp1.pages_reencoded - comp0.pages_reencoded),
       "count"},
      {"storage.installs_aborted",
       static_cast<double>(comp1.installs_aborted - comp0.installs_aborted),
       "count"},
      {"storage.pool_hit_ratio",
       Ratio(static_cast<double>(file1.pool_hits - file0.pool_hits),
             pool_lookups),
       "ratio"},
      {"storage.pages_loaded_per_query",
       Ratio(static_cast<double>(file1.pages_loaded - file0.pages_loaded),
             static_cast<double>(t.attempted)),
       "count"},
  };
  for (int q = 1; q <= 6; ++q) {
    layer.push_back({"baselines.etsqp_over_best_q" + std::to_string(q),
                     bar.count(q) ? bar[q] : 0, "ratio"});
  }

  // Times of layers some workloads bypass: printed where they apply, kept
  // out of the JSON so no time reads a constant zero.
  std::vector<Metric> where_applies;
  auto add_if = [&](bool applies, std::string name, double v,
                    const char* unit) {
    if (applies) where_applies.push_back({std::move(name), v, unit});
  };
  const std::vector<double> snapshot_us = SpanMicros(spans, "storage.snapshot");
  add_if(!snapshot_us.empty(), "storage.snapshot_us",
         Percentile(snapshot_us, 50), "us");
  const std::vector<double> build_us = SpanMicros(spans, "exec.build_pipeline");
  add_if(!build_us.empty(), "exec.build_pipeline_us", Percentile(build_us, 50),
         "us");
  const std::vector<double> hit_ms = LatenciesMs(t, /*hits_only=*/true);
  add_if(!hit_ms.empty(), "db.cache_hit_us", Percentile(hit_ms, 50) * 1e3,
         "us");
  add_if(e.admission_wait_nanos > 0, "db.admission_wait_us",
         Ratio(static_cast<double>(e.admission_wait_nanos) / 1e3,
               static_cast<double>(e.queries)),
         "us");
  add_if(e.index_probe_nanos > 0, "exec.index_probe_us",
         Ratio(static_cast<double>(e.index_probe_nanos) / 1e3,
               static_cast<double>(e.queries)),
         "us");
  add_if(e.pool_queries > 0, "exec.pool_steals_per_query",
         Ratio(static_cast<double>(e.pool_steals),
               static_cast<double>(e.pool_queries)),
         "count");
  add_if(e.pool_queries > 0, "exec.pool_park_us_per_query",
         Ratio(static_cast<double>(e.pool_park_nanos) / 1e3,
               static_cast<double>(e.pool_queries)),
         "us");
  add_if(comp1.runs > comp0.runs, "storage.compact_ms_per_pass",
         Ratio(static_cast<double>(comp1.nanos - comp0.nanos) / 1e6,
               static_cast<double>(comp1.runs - comp0.runs)),
         "ms");
  add_if(!during_compaction_ms.empty(), "db.latency_p99_during_compaction_ms",
         Percentile(during_compaction_ms, 99), "ms");
  if (!during_compaction_ms.empty()) {
    std::printf("info during_compaction_samples %zu\n",
                during_compaction_ms.size());
  }
  // Self time of every traced span name: where the run's time went.
  std::map<std::string, std::pair<double, uint64_t>> self_by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& [ms, count] = self_by_name[spans[i].name];
    ms += static_cast<double>(self[i]) / 1e6;
    ++count;
  }
  for (const auto& [name, v] : self_by_name) {
    std::printf("span %s self_ms %.3f count %" PRIu64 "\n", name.c_str(),
                v.first, v.second);
  }
  std::printf("info traced_qps %.6g untraced_qps %.6g spans %s\n", t.qps,
              u.qps, span_path.c_str());
  for (const Metric& m : layer) {
    std::printf("layer %s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const Metric& m : where_applies) {
    std::printf("layer %s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::fflush(stdout);
  PrintJson(correct, attempted, failed, layer);
  return 0;
}

}  // namespace
}  // namespace sqlbench

int main(int argc, char** argv) {
  sqlbench::Args args;
  if (!sqlbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sqlbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  return sqlbench::Run(args);
}
