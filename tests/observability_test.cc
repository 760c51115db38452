// ExecStats invariants and EXPLAIN / EXPLAIN ANALYZE golden-shape checks:
// the per-stage breakdown must be internally consistent (stage times bounded
// by wall time, scanned tuples bounded by page tuples), deterministic in its
// flat counters across thread counts, and absent entirely when collection is
// off.

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>

#include "db/database.h"
#include "exec/engine.h"
#include "exec/explain.h"
#include "exec/pipe_builder.h"
#include "sql/planner.h"
#include "storage/tsfile.h"

namespace etsqp::exec {
namespace {

struct Fixture {
  storage::SeriesStore store;
  std::vector<int64_t> times;
  std::vector<int64_t> values;
};

Fixture MakeFixture(size_t n, uint64_t seed, uint32_t page_size = 1000,
                    enc::ColumnEncoding venc = enc::ColumnEncoding::kTs2Diff) {
  std::mt19937_64 rng(seed);
  Fixture f;
  f.times.resize(n);
  f.values.resize(n);
  int64_t t = 0;
  int64_t v = 500;
  for (size_t i = 0; i < n; ++i) {
    t += 1 + static_cast<int64_t>(rng() % 5);
    v += static_cast<int64_t>(rng() % 101) - 50;
    f.times[i] = t;
    f.values[i] = v;
  }
  storage::SeriesStore::SeriesOptions opt;
  opt.page_size = page_size;
  opt.page.value_encoding = venc;
  EXPECT_TRUE(f.store.CreateSeries("ts", opt).ok());
  EXPECT_TRUE(
      f.store.AppendBatch("ts", f.times.data(), f.values.data(), n).ok());
  EXPECT_TRUE(f.store.Flush().ok());
  return f;
}

TEST(ExecStatsTest, StageBreakdownInvariants) {
  Fixture f = MakeFixture(20000, 11);
  Engine engine(PipelineOptions::Etsqp(1).WithStats(true));
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  plan.value_filter.active = true;
  plan.value_filter.lo = 300;
  plan.value_filter.hi = 900;
  Result<QueryResult> result = engine.Execute(plan, f.store);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExecStats& s = result.value().stats;

  EXPECT_LE(s.tuples_scanned, s.tuples_in_pages);
  EXPECT_GT(s.wall_nanos, 0u);
  EXPECT_EQ(s.threads, 1);
  EXPECT_FALSE(s.stages.empty());
  // With one worker no stage timers overlap, so their sum is bounded by the
  // whole-query wall clock.
  EXPECT_LE(s.stages.TotalNanos(), s.wall_nanos);
  // The filtered integer pipeline must attribute work to filter+aggregate.
  const metrics::StageStats& agg =
      s.stages.stages[static_cast<int>(metrics::Stage::kAggregate)];
  EXPECT_GT(agg.calls, 0u);
}

TEST(ExecStatsTest, FlatCountersIdenticalAcrossThreadCounts) {
  Fixture f = MakeFixture(30000, 13);
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kVariance);
  plan.time_filter.lo = f.times[f.times.size() / 4];

  Engine one(PipelineOptions::Etsqp(1).WithStats(true));
  Engine many(PipelineOptions::Etsqp(4).WithStats(true));
  Result<QueryResult> r1 = one.Execute(plan, f.store);
  Result<QueryResult> rn = many.Execute(plan, f.store);
  ASSERT_TRUE(r1.ok() && rn.ok());
  const ExecStats& a = r1.value().stats;
  const ExecStats& b = rn.value().stats;
  EXPECT_EQ(a.pages_total, b.pages_total);
  EXPECT_EQ(a.pages_pruned, b.pages_pruned);
  EXPECT_EQ(a.blocks_pruned, b.blocks_pruned);
  EXPECT_EQ(a.tuples_in_pages, b.tuples_in_pages);
  EXPECT_EQ(a.tuples_scanned, b.tuples_scanned);
  EXPECT_EQ(a.bytes_loaded, b.bytes_loaded);
  EXPECT_EQ(a.result_tuples, b.result_tuples);
  EXPECT_EQ(r1.value().columns[0][0], rn.value().columns[0][0]);
}

const metrics::StageStats& StageOf(const ExecStats& s, metrics::Stage st) {
  return s.stages.stages[static_cast<int>(st)];
}

// A float page decodes whole into raw arrays: one job at any thread count,
// its decode counted once as the unpack stage, no stage timer nested in
// another, and the same answer at 1 and 4 threads.
TEST(ExecStatsTest, FloatPageRunsWholeAndDecodesOnceAsUnpack) {
  storage::SeriesStore store;
  storage::SeriesStore::SeriesOptions opt;
  opt.page_size = 4096;
  opt.page.value_encoding = enc::ColumnEncoding::kGorillaValue;
  ASSERT_TRUE(store.CreateSeries("f", opt).ok());
  std::vector<int64_t> times(4096);
  std::vector<double> values(4096);
  for (size_t i = 0; i < times.size(); ++i) {
    times[i] = 10 * static_cast<int64_t>(i);
    values[i] = 0.5 * static_cast<double>(i % 97) - 3.0;
  }
  ASSERT_TRUE(
      store.AppendBatchF64("f", times.data(), values.data(), times.size())
          .ok());
  ASSERT_TRUE(store.Flush().ok());
  LogicalPlan plan = LogicalPlan::Aggregate("f", AggFunc::kAvg);
  plan.time_filter.lo = times[1000];

  Result<PipelineSpec> spec =
      BuildPipeline(plan, store, PipelineOptions::Etsqp(4));
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().jobs.size(), 1u);
  Engine one(PipelineOptions::Etsqp(1).WithStats(true));
  Engine four(PipelineOptions::Etsqp(4).WithStats(true));
  Result<QueryResult> r1 = one.Execute(plan, store);
  Result<QueryResult> r4 = four.Execute(plan, store);
  ASSERT_TRUE(r1.ok() && r4.ok());
  EXPECT_EQ(r4.value().columns, r1.value().columns);
  EXPECT_EQ(StageOf(r4.value().stats, metrics::Stage::kUnpack).tuples, 4096u);
  EXPECT_LE(r1.value().stats.stages.TotalNanos(), r1.value().stats.wall_nanos);
}

// A query whose only surviving page is tombstone-masked times that page's
// decode as unpack, outside every other stage.
TEST(ExecStatsTest, MaskedPageDecodeIsUnpack) {
  Fixture f = MakeFixture(1000, 19);
  ASSERT_TRUE(f.store.DeleteRange("ts", f.times[100], f.times[200]).ok());
  Engine engine(PipelineOptions::Etsqp(1).WithStats(true));
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  Result<QueryResult> result = engine.Execute(plan, f.store);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExecStats& s = result.value().stats;
  EXPECT_EQ(s.pages_total - s.pages_pruned, 1u);
  EXPECT_EQ(s.deleted_tuples_masked, 101u);
  EXPECT_GT(StageOf(s, metrics::Stage::kUnpack).tuples, 0u);
  EXPECT_LE(s.stages.TotalNanos(), s.wall_nanos);
}

TEST(ExecStatsTest, CollectionOffLeavesStagesEmpty) {
  Fixture f = MakeFixture(10000, 17);
  Engine engine(PipelineOptions::Etsqp(2));  // collect_stats defaults off
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kAvg);
  Result<QueryResult> result = engine.Execute(plan, f.store);
  ASSERT_TRUE(result.ok());
  const ExecStats& s = result.value().stats;
  EXPECT_TRUE(s.stages.empty());
  EXPECT_EQ(s.wall_nanos, 0u);
  EXPECT_EQ(s.threads, 0);
  // The flat counters stay available regardless.
  EXPECT_GT(s.tuples_in_pages, 0u);
}

TEST(ExecStatsTest, ToJsonShape) {
  Fixture f = MakeFixture(8000, 19);
  Engine engine(PipelineOptions::Etsqp(1).WithStats(true));
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  Result<QueryResult> result = engine.Execute(plan, f.store);
  ASSERT_TRUE(result.ok());
  std::string json = result.value().stats.ToJson();
  EXPECT_NE(json.find("\"tuples_in_pages\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_nanos\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  for (const char* stage :
       {"page_fetch", "unpack", "delta", "filter", "aggregate", "merge"}) {
    EXPECT_NE(json.find(std::string("\"") + stage + "\""), std::string::npos)
        << stage;
  }
  // Braces balance (cheap well-formedness check without a JSON parser).
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ExplainTest, PlanOnlyRendersWithoutExecuting) {
  Fixture f = MakeFixture(12000, 23);
  Engine engine(PipelineOptions::EtsqpPrune(2));
  Result<LogicalPlan> plan =
      sql::PlanQuery("EXPLAIN SELECT SUM(v) FROM ts WHERE v >= 500");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().explain, LogicalPlan::ExplainMode::kPlan);
  Result<QueryResult> result = engine.Execute(plan.value(), f.store);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryResult& qr = result.value();
  EXPECT_EQ(qr.num_rows(), 0u);  // nothing executed
  EXPECT_NE(qr.explain_text.find("Aggregate(SUM)"), std::string::npos)
      << qr.explain_text;
  EXPECT_NE(qr.explain_text.find("Pipe["), std::string::npos);
  EXPECT_NE(qr.explain_text.find("prune=on"), std::string::npos);
  EXPECT_NE(qr.explain_text.find("Scan ts"), std::string::npos);
  EXPECT_NE(qr.explain_text.find("value in [500,"), std::string::npos);
  // Plan-only output carries no measured profile.
  EXPECT_EQ(qr.explain_text.find("execution profile"), std::string::npos);
}

// A strict bound prints its SQL literal with an open bracket, so EXPLAIN on
// a float series shows the filter the query runs: 3.5 passes `f > 3`.
TEST(ExplainTest, StrictValueBoundsPrintTheirLiterals) {
  db::Database dbi;
  ASSERT_TRUE(dbi.CreateFloatTimeseries("f").ok());
  ASSERT_TRUE(dbi.CreateTimeseries("i").ok());
  const int64_t times[4] = {1, 2, 3, 4};
  const double fv[4] = {2.5, 3.0, 3.5, 4.0};
  const int64_t iv[4] = {2, 3, 4, 5};
  ASSERT_TRUE(dbi.InsertBatchF64("f", times, fv, 4).ok());
  ASSERT_TRUE(dbi.InsertBatch("i", times, iv, 4).ok());
  auto filter_line = [&](const std::string& sql) {
    Result<QueryResult> r = dbi.Query("EXPLAIN " + sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok()) return std::string();
    const std::string& text = r.value().explain_text;
    size_t at = text.find("filter:");
    EXPECT_NE(at, std::string::npos) << text;
    if (at == std::string::npos) return std::string();
    return text.substr(at, text.find('\n', at) - at);
  };
  EXPECT_EQ(filter_line("SELECT COUNT(f) FROM f WHERE f > 3"),
            "filter: value in (3, 9223372036854775807]");
  Result<QueryResult> count = dbi.Query("SELECT COUNT(f) FROM f WHERE f > 3");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().columns[0][0], 2.0);
  EXPECT_EQ(filter_line("SELECT COUNT(f) FROM f WHERE f < 3"),
            "filter: value in [-9223372036854775808, 3)");
  EXPECT_EQ(filter_line("SELECT COUNT(f) FROM f WHERE f >= 3 AND f <= 4"),
            "filter: value in [3, 4]");
  // Integer strict bounds print the equivalent open form.
  EXPECT_EQ(filter_line("SELECT COUNT(i) FROM i WHERE i > 3 AND i < 5"),
            "filter: value in (3, 5)");
  EXPECT_EQ(filter_line("SELECT COUNT(i) FROM i WHERE i >= 4"),
            "filter: value in [4, 9223372036854775807]");
}

TEST(ExplainTest, AnalyzeExecutesAndAnnotates) {
  Fixture f = MakeFixture(12000, 29);
  Engine engine(PipelineOptions::Etsqp(2));  // stats off; ANALYZE forces on
  Result<LogicalPlan> plan =
      sql::PlanQuery("EXPLAIN ANALYZE SELECT AVG(v) FROM ts");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().explain, LogicalPlan::ExplainMode::kAnalyze);
  Result<QueryResult> result = engine.Execute(plan.value(), f.store);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryResult& qr = result.value();
  ASSERT_EQ(qr.num_rows(), 1u);  // the query really ran
  EXPECT_NE(qr.explain_text.find("Aggregate(AVG)"), std::string::npos);
  EXPECT_NE(qr.explain_text.find("execution profile"), std::string::npos);
  EXPECT_NE(qr.explain_text.find("wall:"), std::string::npos);
  EXPECT_NE(qr.explain_text.find("aggregate"), std::string::npos);
  EXPECT_GT(qr.stats.wall_nanos, 0u);
  EXPECT_FALSE(qr.stats.stages.empty());
}

TEST(ExplainTest, UnifiedExecuteCoversFileBackedStores) {
  Fixture f = MakeFixture(25000, 31);
  std::string path = "/tmp/etsqp_observability_test.tsfile";
  ASSERT_TRUE(storage::WriteTsFile(f.store, path).ok());
  storage::FileBackedStore fbs;
  ASSERT_TRUE(fbs.Open(path).ok());

  Engine engine(PipelineOptions::EtsqpPrune(2).WithStats(true));
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  plan.time_filter.lo = f.times[f.times.size() / 2];

  Result<QueryResult> mem = engine.Execute(plan, f.store);
  Result<QueryResult> file = engine.Execute(plan, &fbs);
  ASSERT_TRUE(mem.ok() && file.ok());
  EXPECT_EQ(mem.value().columns[0][0], file.value().columns[0][0]);
  // The file path must attribute page I/O to the fetch stage.
  const metrics::StageStats& fetch =
      file.value().stats.stages.stages[static_cast<int>(
          metrics::Stage::kPageFetch)];
  EXPECT_GT(fetch.calls, 0u);
  EXPECT_GT(fetch.bytes, 0u);

  plan.explain = LogicalPlan::ExplainMode::kPlan;
  Result<QueryResult> explained = engine.Execute(plan, &fbs);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_NE(explained.value().explain_text.find("Scan ts"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ExplainTest, SqlFacadeRoundTrip) {
  db::Database dbi(db::Database::Options{db::Database::Mode::kSimd, 2});
  ASSERT_TRUE(dbi.CreateTimeseries("s").ok());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(dbi.Insert("s", 1000 + i, i % 77).ok());
  }
  ASSERT_TRUE(dbi.Flush().ok());

  auto result = dbi.Query("EXPLAIN ANALYZE SELECT MAX(v) FROM s");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result.value().explain_text.find("Aggregate(MAX)"),
            std::string::npos);
  EXPECT_NE(result.value().explain_text.find("execution profile"),
            std::string::npos);

  dbi.SetCollectStats(true);
  auto profiled = dbi.Query("SELECT MIN(v) FROM s");
  ASSERT_TRUE(profiled.ok());
  EXPECT_TRUE(profiled.value().explain_text.empty());
  EXPECT_FALSE(profiled.value().stats.stages.empty());
  EXPECT_NE(RenderStats(profiled.value().stats).find("tuples:"),
            std::string::npos);
}

}  // namespace
}  // namespace etsqp::exec
