// Edge cases of the execution pipeline: overflow surfacing, empty inputs
// and ranges, non-default time encodings on the position-lookup path, and a
// property sweep asserting that every (strategy, prune, fusion) combination
// agrees with a scalar reference on random filters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <string>

#include "db/database.h"
#include "exec/engine.h"
#include "exec/pipeline.h"
#include "storage/series_store.h"

namespace etsqp::exec {
namespace {

struct Fx {
  storage::SeriesStore store;
  std::vector<int64_t> times;
  std::vector<int64_t> values;
};

Fx Make(size_t n, uint64_t seed,
        enc::ColumnEncoding venc = enc::ColumnEncoding::kTs2Diff,
        enc::ColumnEncoding tenc = enc::ColumnEncoding::kTs2Diff,
        uint32_t page_size = 900) {
  std::mt19937_64 rng(seed);
  Fx f;
  f.times.resize(n);
  f.values.resize(n);
  int64_t t = 0, v = 0;
  for (size_t i = 0; i < n; ++i) {
    t += 1 + static_cast<int64_t>(rng() % 9);
    v += static_cast<int64_t>(rng() % 41) - 20;
    f.times[i] = t;
    f.values[i] = v;
  }
  storage::SeriesStore::SeriesOptions opt;
  opt.page_size = page_size;
  opt.page.value_encoding = venc;
  opt.page.time_encoding = tenc;
  EXPECT_TRUE(f.store.CreateSeries("s", opt).ok());
  EXPECT_TRUE(
      f.store.AppendBatch("s", f.times.data(), f.values.data(), n).ok());
  EXPECT_TRUE(f.store.Flush().ok());
  return f;
}

TEST(PipelineEdgeTest, SumOverflowSurfacesAsStatus) {
  storage::SeriesStore store;
  storage::SeriesStore::SeriesOptions opt;
  ASSERT_TRUE(store.CreateSeries("big", opt).ok());
  std::vector<int64_t> t, v;
  for (int64_t i = 0; i < 64; ++i) {
    t.push_back(i + 1);
    v.push_back(INT64_MAX / 4 + i);
  }
  ASSERT_TRUE(store.AppendBatch("big", t.data(), v.data(), t.size()).ok());
  ASSERT_TRUE(store.Flush().ok());
  for (const PipelineOptions& o :
       {PipelineOptions::Etsqp(1), PipelineOptions::Serial(), PipelineOptions::Sboost(1)}) {
    Engine engine(o);
    LogicalPlan plan = LogicalPlan::Aggregate("big", AggFunc::kSum);
    auto result = engine.Execute(plan, store);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kOverflow)
        << DecodeStrategyName(o.strategy);
    // AVG of the same data is representable and must still work.
    LogicalPlan avg = LogicalPlan::Aggregate("big", AggFunc::kAvg);
    auto r2 = engine.Execute(avg, store);
    // AVG goes through the same 128-bit sums: it succeeds.
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    EXPECT_NEAR(r2.value().columns[0][0],
                static_cast<double>(INT64_MAX) / 4 + 31.5,
                static_cast<double>(INT64_MAX) * 1e-9);
  }
}

TEST(PipelineEdgeTest, ProjectionOverflowSurfacesAsStatus) {
  // Values near the int64 edges: every operator overflows on some pair, and
  // the engine must say so instead of wrapping.
  storage::SeriesStore store;
  ASSERT_TRUE(store.CreateSeries("a", {}).ok());
  ASSERT_TRUE(store.CreateSeries("b", {}).ok());
  std::vector<int64_t> t, a, b;
  for (int64_t i = 0; i < 64; ++i) {
    t.push_back(i + 1);
    a.push_back(INT64_MAX - 100 + i);
    b.push_back(INT64_MIN + 100 - i);
  }
  ASSERT_TRUE(store.AppendBatch("a", t.data(), a.data(), t.size()).ok());
  ASSERT_TRUE(store.AppendBatch("b", t.data(), b.data(), t.size()).ok());
  ASSERT_TRUE(store.Flush().ok());
  struct Case {
    const char* left;
    const char* right;
    char op;
  };
  for (const Case& c : {Case{"a", "a", '+'}, Case{"a", "b", '-'},
                        Case{"b", "a", '-'}, Case{"a", "b", '*'}}) {
    for (const PipelineOptions& o :
         {PipelineOptions::Etsqp(1), PipelineOptions::Serial(),
          PipelineOptions::Etsqp(3)}) {
      LogicalPlan plan;
      plan.kind = LogicalPlan::Kind::kProjectBinary;
      plan.series = c.left;
      plan.series_right = c.right;
      plan.binary_op = c.op;
      auto result = Engine(o).Execute(plan, store);
      ASSERT_FALSE(result.ok()) << c.left << c.op << c.right;
      EXPECT_EQ(result.status().code(), StatusCode::kOverflow)
          << c.left << c.op << c.right;
    }
  }
  // a + b stays in range: every row is exact.
  LogicalPlan sum;
  sum.kind = LogicalPlan::Kind::kProjectBinary;
  sum.series = "a";
  sum.series_right = "b";
  auto result = Engine(PipelineOptions::Etsqp(1)).Execute(sum, store);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().num_rows(), 64u);
  EXPECT_EQ(result.value().columns[1][0], -1.0);
}

TEST(PipelineEdgeTest, AggAccumFinalizeBranches) {
  AggAccum empty;
  double out;
  EXPECT_TRUE(empty.Finalize(AggFunc::kSum, &out).ok());
  EXPECT_EQ(out, 0.0);
  EXPECT_TRUE(empty.Finalize(AggFunc::kCount, &out).ok());
  EXPECT_EQ(out, 0.0);
  EXPECT_FALSE(empty.Finalize(AggFunc::kAvg, &out).ok());
  EXPECT_FALSE(empty.Finalize(AggFunc::kMin, &out).ok());
  EXPECT_FALSE(empty.Finalize(AggFunc::kMax, &out).ok());
  EXPECT_FALSE(empty.Finalize(AggFunc::kVariance, &out).ok());

  AggAccum acc;
  acc.AddValue(3, true);
  acc.AddValue(5, true);
  ASSERT_TRUE(acc.Finalize(AggFunc::kVariance, &out).ok());
  EXPECT_DOUBLE_EQ(out, 1.0);  // values 3,5: mean 4, var 1
  ASSERT_TRUE(acc.Finalize(AggFunc::kMin, &out).ok());
  EXPECT_EQ(out, 3.0);

  AggAccum overflow;
  overflow.sum = static_cast<__int128>(INT64_MAX) + 1;
  overflow.count = 1;
  EXPECT_EQ(overflow.Finalize(AggFunc::kSum, &out).code(),
            StatusCode::kOverflow);
}

TEST(PipelineEdgeTest, EmptyValueRangeYieldsEmptyAggregates) {
  Fx f = Make(3000, 3);
  Engine engine(PipelineOptions::EtsqpPrune(1));
  LogicalPlan plan = LogicalPlan::Aggregate("s", AggFunc::kAvg);
  plan.value_filter.active = true;
  plan.value_filter.lo = 100;
  plan.value_filter.hi = 50;  // empty range
  auto result = engine.Execute(plan, f.store);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 0u);  // AVG of empty set: no row
}

TEST(PipelineEdgeTest, WindowPastDataYieldsNoRows) {
  Fx f = Make(1000, 5);
  Engine engine(PipelineOptions::Etsqp(1));
  LogicalPlan plan = LogicalPlan::Aggregate("s", AggFunc::kSum);
  plan.window.active = true;
  plan.window.t_min = f.times.back() + 1000;
  plan.window.delta_t = 100;
  auto result = engine.Execute(plan, f.store);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 0u);
}

TEST(PipelineEdgeTest, GorillaTimeColumnPositionsWork) {
  // Non-TS2DIFF time encoding exercises the generic (decode + search)
  // position path of SlicePositions.
  Fx f = Make(5000, 7, enc::ColumnEncoding::kTs2Diff,
              enc::ColumnEncoding::kGorilla);
  Engine engine(PipelineOptions::Etsqp(1));
  LogicalPlan plan = LogicalPlan::Aggregate("s", AggFunc::kSum);
  plan.time_filter = TimeRange{f.times[1000], f.times[4000]};
  auto result = engine.Execute(plan, f.store);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  __int128 expected = 0;
  for (size_t i = 1000; i <= 4000; ++i) expected += f.values[i];
  EXPECT_EQ(result.value().columns[0][0],
            static_cast<double>(static_cast<int64_t>(expected)));
}

TEST(PipelineEdgeTest, DeltaRleWindowedFusion) {
  Fx f = Make(9000, 11, enc::ColumnEncoding::kDeltaRle);
  Engine fused(PipelineOptions::Etsqp(1));
  Engine serial(PipelineOptions::Serial());
  LogicalPlan plan = LogicalPlan::Aggregate("s", AggFunc::kSum);
  plan.window.active = true;
  plan.window.t_min = 0;
  plan.window.delta_t = 3000;
  auto a = fused.Execute(plan, f.store);
  auto b = serial.Execute(plan, f.store);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().num_rows(), b.value().num_rows());
  for (size_t r = 0; r < a.value().num_rows(); ++r) {
    EXPECT_EQ(a.value().columns[1][r], b.value().columns[1][r]) << r;
  }
}

TEST(PipelineEdgeTest, WindowedMinMaxCountMatchReference) {
  Fx f = Make(8000, 17);
  Engine engine(PipelineOptions::Etsqp(2));
  for (AggFunc func : {AggFunc::kMin, AggFunc::kMax, AggFunc::kCount,
                       AggFunc::kVariance}) {
    LogicalPlan plan = LogicalPlan::Aggregate("s", func);
    plan.window.active = true;
    plan.window.t_min = 0;
    plan.window.delta_t = 2500;
    auto result = engine.Execute(plan, f.store);
    ASSERT_TRUE(result.ok()) << AggFuncName(func);
    const QueryResult& qr = result.value();
    ASSERT_GT(qr.num_rows(), 2u);
    for (size_t r = 0; r < qr.num_rows(); ++r) {
      int64_t ws = static_cast<int64_t>(qr.columns[0][r]);
      int64_t we = ws + 2500;
      double sum = 0, sq = 0, mn = 1e18, mx = -1e18, cnt = 0;
      for (size_t i = 0; i < f.times.size(); ++i) {
        if (f.times[i] < ws || f.times[i] >= we) continue;
        double v = static_cast<double>(f.values[i]);
        sum += v;
        sq += v * v;
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        cnt += 1;
      }
      double expected = func == AggFunc::kMin   ? mn
                        : func == AggFunc::kMax ? mx
                        : func == AggFunc::kCount
                            ? cnt
                            : sq / cnt - (sum / cnt) * (sum / cnt);
      EXPECT_NEAR(qr.columns[1][r], expected, 1e-6)
          << AggFuncName(func) << " window " << ws;
    }
  }
}

// Windowed aggregates honour the whole WHERE clause — the time upper bound
// and the value filter, not only the window origin — on sealed pages and on
// the unsealed tail, for integer and float series, so the answer never
// depends on page boundaries or on whether header pruning ran.
TEST(WindowFilterRegressionTest, WindowedAggregatesHonourWhereClause) {
  db::Database db(db::Database::Options{db::Database::Mode::kSimd,
                                        /*threads=*/1, /*shards=*/1,
                                        /*cache_budget_bytes=*/0});
  ASSERT_TRUE(db.CreateTimeseries("s", 100).ok());
  ASSERT_TRUE(
      db.CreateFloatTimeseries("f", enc::ColumnEncoding::kGorillaValue, 100)
          .ok());
  for (int64_t i = 0; i < 1050; ++i) {  // 10 sealed pages + a 50-point tail
    ASSERT_TRUE(db.Insert("s", i, i).ok());
    ASSERT_TRUE(db.InsertF64("f", i, static_cast<double>(i)).ok());
  }
  struct Case {
    const char* sql;
    double want;
  };
  const Case cases[] = {
      {"SELECT SUM(%s) FROM %s WHERE time < 150 SW(0, 10000)", 11175},
      {"SELECT COUNT(%s) FROM %s WHERE %s > 500 SW(0, 10000)", 549},
      {"SELECT COUNT(%s) FROM %s WHERE time < 1020 SW(0, 10000)", 1020},
  };
  for (const char* series : {"s", "f"}) {
    for (const Case& c : cases) {
      char sql[128];
      std::snprintf(sql, sizeof(sql), c.sql, series, series, series);
      Result<QueryResult> r = db.Query(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      ASSERT_EQ(r.value().columns.size(), 2u) << sql;
      ASSERT_EQ(r.value().columns[1].size(), 1u) << sql;
      EXPECT_EQ(r.value().columns[1][0], c.want) << sql;
    }
  }
}

TEST(WindowFilterRegressionTest, WindowIndexPastInt64) {
  // SW(-5e18, dT) over times just above +5e18: with dT = 1 the window index
  // (t - t_min) / dT is about 1e19, past int64. Windows are keyed by their
  // start, so every point still lands in its own window: on sealed pages
  // with constant and irregular intervals and on the tail, int and float,
  // scalar and SIMD, one thread and sliced pages.
  constexpr int64_t kOrigin = -5000000000000000000;
  std::vector<int64_t> times;
  int64_t t = 5000000000000000000;
  for (int64_t i = 0; i < 1050; ++i) {
    t += (i / 300) % 2 == 0 ? 7 : 1 + i % 5;
    times.push_back(t);
  }
  for (db::Database::Mode mode :
       {db::Database::Mode::kScalar, db::Database::Mode::kSimd}) {
    for (int threads : {1, 4}) {
      db::Database db(db::Database::Options{mode, threads, /*shards=*/1,
                                            /*cache_budget_bytes=*/0});
      ASSERT_TRUE(db.CreateTimeseries("s", 100).ok());
      ASSERT_TRUE(
          db.CreateFloatTimeseries("f", enc::ColumnEncoding::kGorillaValue, 100)
              .ok());
      for (size_t i = 0; i < times.size(); ++i) {
        ASSERT_TRUE(db.Insert("s", times[i], static_cast<int64_t>(i)).ok());
        ASSERT_TRUE(db.InsertF64("f", times[i], static_cast<double>(i)).ok());
      }
      for (int64_t dt : {int64_t{1}, int64_t{1000}}) {
        // The expected windows: start -> sum of the values in it.
        std::map<int64_t, double> want;
        for (size_t i = 0; i < times.size(); ++i) {
          const __int128 rel = static_cast<__int128>(times[i]) - kOrigin;
          want[static_cast<int64_t>(kOrigin + rel / dt * dt)] +=
              static_cast<double>(i);
        }
        for (const char* series : {"s", "f"}) {
          char sql[128];
          std::snprintf(sql, sizeof(sql), "SELECT SUM(%s) FROM %s SW(%lld, %lld)",
                        series, series, static_cast<long long>(kOrigin),
                        static_cast<long long>(dt));
          SCOPED_TRACE(std::string(sql) + " threads " + std::to_string(threads));
          Result<QueryResult> r = db.Query(sql);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          ASSERT_EQ(r.value().columns.size(), 2u);
          ASSERT_EQ(r.value().columns[0].size(), want.size());
          size_t row = 0;
          for (const auto& [start, sum] : want) {
            EXPECT_EQ(r.value().columns[0][row], static_cast<double>(start));
            EXPECT_EQ(r.value().columns[1][row], sum);
            ++row;
          }
        }
      }
    }
  }
}

TEST(PipelineEdgeTest, SlicePartitionsSumToWhole) {
  // Any block-aligned partition of a page must aggregate to the same total
  // (the invariant page slicing relies on, Section III-C).
  Fx f = Make(8192, 19, enc::ColumnEncoding::kTs2Diff,
              enc::ColumnEncoding::kTs2Diff, 8192);
  auto series = f.store.GetSeries("s");
  ASSERT_TRUE(series.ok());
  const storage::Page& page = *series.value()->pages[0];
  PipelineOptions opt = PipelineOptions::Etsqp(1);
  AggAccum whole;
  QueryStats st;
  ASSERT_TRUE(AggregateSlice(page, 0, page.header.count, TimeRange{},
                             ValueRange{}, AggFunc::kSum, opt, &whole, &st)
                  .ok());
  std::mt19937_64 rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    // Random block-aligned cut points.
    std::vector<size_t> cuts{0, page.header.count};
    for (int c = 0; c < 3; ++c) {
      cuts.push_back((rng() % 8) * 1024);
    }
    std::sort(cuts.begin(), cuts.end());
    AggAccum parts;
    for (size_t i = 1; i < cuts.size(); ++i) {
      if (cuts[i] == cuts[i - 1]) continue;
      AggAccum part;
      ASSERT_TRUE(AggregateSlice(page, cuts[i - 1], cuts[i], TimeRange{},
                                 ValueRange{}, AggFunc::kSum, opt, &part, &st)
                      .ok());
      parts.Merge(part);
    }
    EXPECT_TRUE(parts.sum == whole.sum) << trial;
    EXPECT_EQ(parts.count, whole.count) << trial;
  }
}

/// Sweeps the caller's knobs: strategy x prune x collect_stats (threads
/// fixed at 2). Stats collection times every stage and scores every kernel
/// decision; the answer must not depend on it.
class StrategySweepTest
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(StrategySweepTest, RandomFiltersMatchReference) {
  auto [strat, prune, stats] = GetParam();
  Fx f = Make(20000, 13);
  PipelineOptions o;
  o.strategy = static_cast<DecodeStrategy>(strat);
  o.prune = prune;
  o.collect_stats = stats;
  o.threads = 2;
  Engine engine(o);
  std::mt19937_64 rng(100 + strat * 7 + prune * 3 + stats);
  int64_t tmax = f.times.back();
  for (int trial = 0; trial < 8; ++trial) {
    LogicalPlan plan = LogicalPlan::Aggregate("s", AggFunc::kSum);
    if (trial % 2 == 0) {
      plan.time_filter.lo = static_cast<int64_t>(rng() % tmax);
      plan.time_filter.hi =
          plan.time_filter.lo + static_cast<int64_t>(rng() % tmax);
    }
    if (trial % 3 == 0) {
      plan.value_filter.active = true;
      plan.value_filter.lo = -200 + static_cast<int64_t>(rng() % 200);
      plan.value_filter.hi =
          plan.value_filter.lo + static_cast<int64_t>(rng() % 400);
    }
    __int128 expected = 0;
    for (size_t i = 0; i < f.times.size(); ++i) {
      if (!plan.time_filter.Contains(f.times[i])) continue;
      if (!plan.value_filter.Contains(f.values[i])) continue;
      expected += f.values[i];
    }
    auto result = engine.Execute(plan, f.store);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().columns[0][0],
              static_cast<double>(static_cast<int64_t>(expected)))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StrategySweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2),  // etsqp, serial, sboost
                       ::testing::Bool(), ::testing::Bool()));

}  // namespace
}  // namespace etsqp::exec
