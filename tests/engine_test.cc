#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "exec/engine.h"
#include "exec/pipe_builder.h"
#include "exec/pipeline.h"
#include "sql/planner.h"
#include <cstdio>
#include "storage/tsfile.h"
#include "storage/series_store.h"
#include "workload/generators.h"

namespace etsqp::exec {
namespace {

/// Ground-truth data kept alongside the store for reference evaluation.
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

double ReferenceAgg(const Fixture& f, AggFunc func, const TimeRange& tr,
                    const ValueRange& vr) {
  __int128 sum = 0, sq = 0;
  uint64_t count = 0;
  int64_t mn = INT64_MAX, mx = INT64_MIN;
  for (size_t i = 0; i < f.times.size(); ++i) {
    if (!tr.Contains(f.times[i])) continue;
    if (!vr.Contains(f.values[i])) continue;
    sum += f.values[i];
    sq += static_cast<__int128>(f.values[i]) * f.values[i];
    ++count;
    mn = std::min(mn, f.values[i]);
    mx = std::max(mx, f.values[i]);
  }
  switch (func) {
    case AggFunc::kSum:
      return static_cast<double>(static_cast<int64_t>(sum));
    case AggFunc::kCount:
      return static_cast<double>(count);
    case AggFunc::kAvg:
      return static_cast<double>(sum) / static_cast<double>(count);
    case AggFunc::kMin:
      return static_cast<double>(mn);
    case AggFunc::kMax:
      return static_cast<double>(mx);
    case AggFunc::kVariance: {
      double mean = static_cast<double>(sum) / static_cast<double>(count);
      return static_cast<double>(sq) / static_cast<double>(count) -
             mean * mean;
    }
  }
  return 0;
}

struct EngineCase {
  const char* name;
  PipelineOptions options;
};

// gtest's default printer dumps the raw bytes of the struct, including the
// `name` pointer, so the discovered CTest names would change from run to run.
void PrintTo(const EngineCase& c, std::ostream* os) { *os << c.name; }

class EngineMatrixTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineMatrixTest, WholeRangeAggregates) {
  Fixture f = MakeFixture(12000, 71);
  Engine engine(GetParam().options);
  for (AggFunc func : {AggFunc::kSum, AggFunc::kAvg, AggFunc::kCount,
                       AggFunc::kMin, AggFunc::kMax, AggFunc::kVariance}) {
    LogicalPlan plan = LogicalPlan::Aggregate("ts", func);
    Result<QueryResult> result = engine.Execute(plan, f.store);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().num_rows(), 1u) << AggFuncName(func);
    double expected = ReferenceAgg(f, func, TimeRange{}, ValueRange{});
    EXPECT_NEAR(result.value().columns[0][0], expected,
                std::abs(expected) * 1e-9 + 1e-6)
        << AggFuncName(func);
  }
}

TEST_P(EngineMatrixTest, TimeFilteredAggregates) {
  Fixture f = MakeFixture(12000, 73);
  Engine engine(GetParam().options);
  std::mt19937_64 rng(73);
  int64_t tmax = f.times.back();
  for (int trial = 0; trial < 10; ++trial) {
    TimeRange tr;
    tr.lo = static_cast<int64_t>(rng() % tmax);
    tr.hi = tr.lo + static_cast<int64_t>(rng() % tmax / 2);
    LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
    plan.time_filter = tr;
    Result<QueryResult> result = engine.Execute(plan, f.store);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    double expected = ReferenceAgg(f, AggFunc::kSum, tr, ValueRange{});
    ASSERT_EQ(result.value().num_rows(), 1u);
    EXPECT_EQ(result.value().columns[0][0], expected)
        << "[" << tr.lo << "," << tr.hi << "]";
  }
}

TEST_P(EngineMatrixTest, ValueFilteredAggregates) {
  Fixture f = MakeFixture(12000, 79);
  Engine engine(GetParam().options);
  ValueRange vr;
  vr.active = true;
  vr.lo = 400;
  vr.hi = 700;
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  plan.value_filter = vr;
  Result<QueryResult> result = engine.Execute(plan, f.store);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().columns[0][0],
            ReferenceAgg(f, AggFunc::kSum, TimeRange{}, vr));
}

TEST_P(EngineMatrixTest, SlidingWindowSums) {
  Fixture f = MakeFixture(12000, 83);
  Engine engine(GetParam().options);
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  plan.window.active = true;
  plan.window.t_min = 100;
  plan.window.delta_t = 1000;
  Result<QueryResult> result = engine.Execute(plan, f.store);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryResult& qr = result.value();
  ASSERT_GT(qr.num_rows(), 3u);
  for (size_t row = 0; row < qr.num_rows(); ++row) {
    int64_t ws = static_cast<int64_t>(qr.columns[0][row]);
    TimeRange tr{ws, ws + 999};
    double expected = ReferenceAgg(f, AggFunc::kSum, tr, ValueRange{});
    EXPECT_EQ(qr.columns[1][row], expected) << "window " << ws;
  }
  // Windows must tile the filtered domain: total of window sums == total sum
  // of tuples at t >= t_min.
  double total = 0;
  for (double v : qr.columns[1]) total += v;
  EXPECT_EQ(total,
            ReferenceAgg(f, AggFunc::kSum, TimeRange{100, INT64_MAX},
                         ValueRange{}));
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineMatrixTest,
    ::testing::Values(EngineCase{"etsqp", PipelineOptions::Etsqp(1)},
                      EngineCase{"etsqp4", PipelineOptions::Etsqp(4)},
                      EngineCase{"etsqp_prune", PipelineOptions::EtsqpPrune(1)},
                      EngineCase{"etsqp_prune4", PipelineOptions::EtsqpPrune(4)},
                      EngineCase{"serial", PipelineOptions::Serial()},
                      EngineCase{"sboost", PipelineOptions::Sboost(2)}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return info.param.name;
    });

TEST(EngineTest, DeltaRleValueEncodingAgrees) {
  Fixture a = MakeFixture(8000, 89, 1000, enc::ColumnEncoding::kTs2Diff);
  Fixture b = MakeFixture(8000, 89, 1000, enc::ColumnEncoding::kDeltaRle);
  Engine engine(PipelineOptions::Etsqp(1));
  for (AggFunc func : {AggFunc::kSum, AggFunc::kAvg, AggFunc::kVariance}) {
    LogicalPlan plan = LogicalPlan::Aggregate("ts", func);
    auto ra = engine.Execute(plan, a.store);
    auto rb = engine.Execute(plan, b.store);
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_NEAR(ra.value().columns[0][0], rb.value().columns[0][0], 1e-6);
  }
}

TEST(EngineTest, FastLanesStoreAgrees) {
  Fixture ref = MakeFixture(9000, 97);
  // Same data, FLMM1024 encoding + FastLanes strategy.
  storage::SeriesStore fl_store;
  storage::SeriesStore::SeriesOptions opt;
  opt.page_size = 3000;
  opt.page.time_encoding = enc::ColumnEncoding::kFastLanes;
  opt.page.value_encoding = enc::ColumnEncoding::kFastLanes;
  ASSERT_TRUE(fl_store.CreateSeries("ts", opt).ok());
  ASSERT_TRUE(fl_store
                  .AppendBatch("ts", ref.times.data(), ref.values.data(),
                               ref.times.size())
                  .ok());
  ASSERT_TRUE(fl_store.Flush().ok());

  Engine etsqp(PipelineOptions::Etsqp(1));
  Engine fastlanes(PipelineOptions::FastLanes(1));
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  plan.time_filter = TimeRange{1000, 20000};
  auto ra = etsqp.Execute(plan, ref.store);
  auto rb = fastlanes.Execute(plan, fl_store);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(ra.value().columns[0][0], rb.value().columns[0][0]);
  // FastLanes pays more I/O for the same tuples (lower compression ratio).
  EXPECT_GT(rb.value().stats.bytes_loaded, ra.value().stats.bytes_loaded);
}

TEST(EngineTest, PruningReducesWorkNotResults) {
  Fixture f = MakeFixture(50000, 101, 2000);
  Engine plain(PipelineOptions::Etsqp(1));
  Engine pruned(PipelineOptions::EtsqpPrune(1));
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  int64_t tmax = f.times.back();
  plan.time_filter = TimeRange{tmax / 2, tmax / 2 + tmax / 20};
  auto ra = plain.Execute(plan, f.store);
  auto rb = pruned.Execute(plan, f.store);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra.value().columns[0][0], rb.value().columns[0][0]);
  EXPECT_GE(rb.value().stats.pages_pruned, ra.value().stats.pages_pruned);
  EXPECT_LE(rb.value().stats.tuples_scanned, ra.value().stats.tuples_scanned);
}

TEST(EngineTest, SelectReturnsFilteredTuples) {
  Fixture f = MakeFixture(5000, 103);
  Engine engine(PipelineOptions::Etsqp(2));
  LogicalPlan plan;
  plan.kind = LogicalPlan::Kind::kSelect;
  plan.series = "ts";
  plan.time_filter = TimeRange{100, 5000};
  plan.value_filter = ValueRange{true, 450, 600};
  Result<QueryResult> result = engine.Execute(plan, f.store);
  ASSERT_TRUE(result.ok());
  const QueryResult& qr = result.value();
  size_t expected = 0;
  for (size_t i = 0; i < f.times.size(); ++i) {
    if (plan.time_filter.Contains(f.times[i]) &&
        plan.value_filter.Contains(f.values[i])) {
      ASSERT_LT(expected, qr.num_rows());
      EXPECT_EQ(qr.columns[0][expected], static_cast<double>(f.times[i]));
      EXPECT_EQ(qr.columns[1][expected], static_cast<double>(f.values[i]));
      ++expected;
    }
  }
  EXPECT_EQ(qr.num_rows(), expected);
}

TEST(EngineTest, UnionMergesByTime) {
  Fixture a = MakeFixture(2000, 107);
  // Second series with distinct (offset) timestamps in the same store.
  std::vector<int64_t> times2(1500), values2(1500);
  std::mt19937_64 rng(109);
  int64_t t = 1;  // interleaves with series a
  for (size_t i = 0; i < times2.size(); ++i) {
    t += 1 + static_cast<int64_t>(rng() % 7);
    times2[i] = t;
    values2[i] = static_cast<int64_t>(i);
  }
  storage::SeriesStore::SeriesOptions opt;
  ASSERT_TRUE(a.store.CreateSeries("ts2", opt).ok());
  ASSERT_TRUE(a.store
                  .AppendBatch("ts2", times2.data(), values2.data(),
                               times2.size())
                  .ok());
  ASSERT_TRUE(a.store.Flush("ts2").ok());

  Engine engine(PipelineOptions::Etsqp(2));
  LogicalPlan plan;
  plan.kind = LogicalPlan::Kind::kUnion;
  plan.series = "ts";
  plan.series_right = "ts2";
  Result<QueryResult> result = engine.Execute(plan, a.store);
  ASSERT_TRUE(result.ok());
  const QueryResult& qr = result.value();
  EXPECT_EQ(qr.num_rows(), a.times.size() + times2.size());
  for (size_t i = 1; i < qr.num_rows(); ++i) {
    EXPECT_LE(qr.columns[0][i - 1], qr.columns[0][i]) << i;
  }
}

TEST(EngineTest, JoinFindsEqualTimestamps) {
  // Two series sharing every third timestamp.
  storage::SeriesStore store;
  std::vector<int64_t> t1, v1, t2, v2;
  for (int64_t i = 0; i < 3000; ++i) {
    t1.push_back(i * 2);      // evens
    v1.push_back(i);
    t2.push_back(i * 3);      // multiples of 3
    v2.push_back(i * 10);
  }
  ASSERT_TRUE(store.CreateSeries("a", {}).ok());
  ASSERT_TRUE(store.CreateSeries("b", {}).ok());
  ASSERT_TRUE(store.AppendBatch("a", t1.data(), v1.data(), t1.size()).ok());
  ASSERT_TRUE(store.AppendBatch("b", t2.data(), v2.data(), t2.size()).ok());
  ASSERT_TRUE(store.Flush().ok());

  Engine engine(PipelineOptions::Etsqp(2));
  LogicalPlan plan;
  plan.kind = LogicalPlan::Kind::kJoin;
  plan.series = "a";
  plan.series_right = "b";
  Result<QueryResult> result = engine.Execute(plan, store);
  ASSERT_TRUE(result.ok());
  const QueryResult& qr = result.value();
  // Shared timestamps: multiples of 6 below min(last a, last b).
  int64_t limit = std::min(t1.back(), t2.back());
  size_t expected = static_cast<size_t>(limit / 6) + 1;
  EXPECT_EQ(qr.num_rows(), expected);
  for (size_t i = 0; i < qr.num_rows(); ++i) {
    int64_t t = static_cast<int64_t>(qr.columns[0][i]);
    EXPECT_EQ(t % 6, 0);
    EXPECT_EQ(qr.columns[1][i], static_cast<double>(t / 2));   // v1 = t/2
    EXPECT_EQ(qr.columns[2][i], static_cast<double>(t / 3 * 10));
  }
}

TEST(EngineTest, InterColumnFilterOnJoin) {
  storage::SeriesStore store;
  std::vector<int64_t> t, v1, v2;
  std::mt19937_64 rng(401);
  for (int64_t i = 1; i <= 6000; ++i) {
    t.push_back(i);
    v1.push_back(static_cast<int64_t>(rng() % 100));
    v2.push_back(static_cast<int64_t>(rng() % 100));
  }
  ASSERT_TRUE(store.CreateSeries("a", {}).ok());
  ASSERT_TRUE(store.CreateSeries("b", {}).ok());
  ASSERT_TRUE(store.AppendBatch("a", t.data(), v1.data(), t.size()).ok());
  ASSERT_TRUE(store.AppendBatch("b", t.data(), v2.data(), t.size()).ok());
  ASSERT_TRUE(store.Flush().ok());

  Engine engine(PipelineOptions::Etsqp(2));
  LogicalPlan plan;
  plan.kind = LogicalPlan::Kind::kJoin;
  plan.series = "a";
  plan.series_right = "b";
  plan.inter_column_op = '>';
  auto result = engine.Execute(plan, store);
  ASSERT_TRUE(result.ok());
  size_t expected = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    if (v1[i] > v2[i]) ++expected;
  }
  EXPECT_EQ(result.value().num_rows(), expected);
  for (size_t r = 0; r < result.value().num_rows(); ++r) {
    EXPECT_GT(result.value().columns[1][r], result.value().columns[2][r]);
  }
}

TEST(EngineTest, ProjectBinaryAddsAlignedValues) {
  storage::SeriesStore store;
  std::vector<int64_t> t, v1, v2;
  for (int64_t i = 0; i < 5000; ++i) {
    t.push_back(i + 1);
    v1.push_back(i);
    v2.push_back(2 * i);
  }
  ASSERT_TRUE(store.CreateSeries("a", {}).ok());
  ASSERT_TRUE(store.CreateSeries("b", {}).ok());
  ASSERT_TRUE(store.AppendBatch("a", t.data(), v1.data(), t.size()).ok());
  ASSERT_TRUE(store.AppendBatch("b", t.data(), v2.data(), t.size()).ok());
  ASSERT_TRUE(store.Flush().ok());

  Engine engine(PipelineOptions::Etsqp(2));
  LogicalPlan plan;
  plan.kind = LogicalPlan::Kind::kProjectBinary;
  plan.series = "a";
  plan.series_right = "b";
  plan.binary_op = '+';
  Result<QueryResult> result = engine.Execute(plan, store);
  ASSERT_TRUE(result.ok());
  const QueryResult& qr = result.value();
  ASSERT_EQ(qr.num_rows(), t.size());
  for (size_t i = 0; i < qr.num_rows(); ++i) {
    EXPECT_EQ(qr.columns[1][i], static_cast<double>(3 * (qr.columns[0][i] - 1)));
  }
}

// Through the SQL planner: the inter-column predicate follows the
// projection's operands, whatever order FROM names the tables in. Series
// a = {10, 20, 30, 40} and b = {15, 15, 35, 35} at t = 1..4, in the tail
// and sealed.
TEST(EngineTest, InterColumnPredicateFollowsProjectionOperands) {
  using Columns = std::vector<std::vector<double>>;
  const std::pair<const char*, Columns> cases[] = {
      {"SELECT b.v - a.v FROM a, b WHERE a.v < b.v", {{1, 3}, {5, 5}}},
      {"SELECT b.v + a.v FROM a, b WHERE a.v > b.v", {{2, 4}, {35, 75}}},
      {"SELECT a.v - b.v FROM a, b WHERE b.v > a.v", {{1, 3}, {-5, -5}}},
  };
  for (bool sealed : {false, true}) {
    storage::SeriesStore store;
    const int64_t t[] = {1, 2, 3, 4};
    const int64_t va[] = {10, 20, 30, 40};
    const int64_t vb[] = {15, 15, 35, 35};
    ASSERT_TRUE(store.CreateSeries("a", {}).ok());
    ASSERT_TRUE(store.CreateSeries("b", {}).ok());
    ASSERT_TRUE(store.AppendBatch("a", t, va, 4).ok());
    ASSERT_TRUE(store.AppendBatch("b", t, vb, 4).ok());
    if (sealed) {
      ASSERT_TRUE(store.Flush().ok());
    }
    for (const auto& [sql, want] : cases) {
      auto plan = sql::PlanQuery(sql);
      ASSERT_TRUE(plan.ok()) << sql;
      for (const PipelineOptions& opt :
           {PipelineOptions::Etsqp(), PipelineOptions::Serial()}) {
        auto r = Engine(opt).Execute(plan.value(), store);
        ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
        EXPECT_EQ(r.value().columns, want) << sql << (sealed ? " sealed" : "");
      }
    }
  }
}

double ReferenceCorr(const std::vector<int64_t>& a,
                     const std::vector<int64_t>& b) {
  double n = static_cast<double>(a.size());
  double sa = 0, sb = 0, sa2 = 0, sb2 = 0, sab = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    sa += a[i];
    sb += b[i];
    sa2 += static_cast<double>(a[i]) * a[i];
    sb2 += static_cast<double>(b[i]) * b[i];
    sab += static_cast<double>(a[i]) * b[i];
  }
  double cov = sab / n - (sa / n) * (sb / n);
  double va = sa2 / n - (sa / n) * (sa / n);
  double vb = sb2 / n - (sb / n) * (sb / n);
  return cov / (std::sqrt(va) * std::sqrt(vb));
}

struct CorrFixture {
  storage::SeriesStore store;
  std::vector<int64_t> va, vb;
};

CorrFixture MakeCorrFixture(enc::ColumnEncoding venc) {
  CorrFixture f;
  std::mt19937_64 rng(211);
  size_t n = 20000;
  std::vector<int64_t> t(n);
  f.va.resize(n);
  f.vb.resize(n);
  int64_t a = 100;
  for (size_t i = 0; i < n; ++i) {
    t[i] = 1000 + static_cast<int64_t>(i) * 10;
    // Correlated pair: b tracks a with noise.
    if (i % 16 == 0) a += static_cast<int64_t>(rng() % 21) - 10;
    f.va[i] = a;
    f.vb[i] = 2 * a + static_cast<int64_t>(rng() % 9) - 4;
  }
  storage::SeriesStore::SeriesOptions opt;
  opt.page_size = 3000;
  opt.page.value_encoding = venc;
  EXPECT_TRUE(f.store.CreateSeries("a", opt).ok());
  EXPECT_TRUE(f.store.CreateSeries("b", opt).ok());
  EXPECT_TRUE(f.store.AppendBatch("a", t.data(), f.va.data(), n).ok());
  EXPECT_TRUE(f.store.AppendBatch("b", t.data(), f.vb.data(), n).ok());
  EXPECT_TRUE(f.store.Flush().ok());
  return f;
}

TEST(EngineTest, CorrelateFusedMatchesReference) {
  CorrFixture f = MakeCorrFixture(enc::ColumnEncoding::kDeltaRle);
  Engine engine(PipelineOptions::Etsqp(2));
  LogicalPlan plan;
  plan.kind = LogicalPlan::Kind::kCorrelate;
  plan.series = "a";
  plan.series_right = "b";
  auto result = engine.Execute(plan, f.store);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryResult& qr = result.value();
  ASSERT_EQ(qr.num_rows(), 1u);
  EXPECT_NEAR(qr.columns[0][0], ReferenceCorr(f.va, f.vb), 1e-9);
  EXPECT_EQ(qr.columns[2][0], 20000.0);
  EXPECT_GT(qr.columns[0][0], 0.99);  // strongly correlated by construction
  // Fused path decodes nothing: tuples_scanned stays zero.
  EXPECT_EQ(qr.stats.tuples_scanned, 0u);
}

TEST(EngineTest, CorrelateGeneralPathMatchesFused) {
  CorrFixture fused = MakeCorrFixture(enc::ColumnEncoding::kDeltaRle);
  CorrFixture plain = MakeCorrFixture(enc::ColumnEncoding::kTs2Diff);
  LogicalPlan plan;
  plan.kind = LogicalPlan::Kind::kCorrelate;
  plan.series = "a";
  plan.series_right = "b";
  Engine engine(PipelineOptions::Etsqp(1));
  auto ra = engine.Execute(plan, fused.store);
  auto rb = engine.Execute(plan, plain.store);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_NEAR(ra.value().columns[0][0], rb.value().columns[0][0], 1e-9);
  EXPECT_NEAR(ra.value().columns[1][0], rb.value().columns[1][0], 1e-6);
  // TS2DIFF pages take the general path (decoding happened).
  EXPECT_GT(rb.value().stats.tuples_scanned, 0u);
}

TEST(EngineTest, CorrelateAntiCorrelated) {
  storage::SeriesStore store;
  std::vector<int64_t> t, a, b;
  for (int64_t i = 0; i < 5000; ++i) {
    t.push_back(i + 1);
    a.push_back(i % 500);
    b.push_back(-(i % 500));
  }
  ASSERT_TRUE(store.CreateSeries("a", {}).ok());
  ASSERT_TRUE(store.CreateSeries("b", {}).ok());
  ASSERT_TRUE(store.AppendBatch("a", t.data(), a.data(), t.size()).ok());
  ASSERT_TRUE(store.AppendBatch("b", t.data(), b.data(), t.size()).ok());
  ASSERT_TRUE(store.Flush().ok());
  LogicalPlan plan;
  plan.kind = LogicalPlan::Kind::kCorrelate;
  plan.series = "a";
  plan.series_right = "b";
  Engine engine(PipelineOptions::Etsqp(1));
  auto result = engine.Execute(plan, store);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().columns[0][0], -1.0, 1e-9);
}

TEST(EngineTest, MissingSeriesReported) {
  storage::SeriesStore store;
  Engine engine(PipelineOptions::Etsqp(1));
  LogicalPlan plan = LogicalPlan::Aggregate("ghost", AggFunc::kSum);
  Result<QueryResult> result = engine.Execute(plan, store);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, EmptyTimeRangeYieldsZeroCount) {
  Fixture f = MakeFixture(1000, 113);
  Engine engine(PipelineOptions::EtsqpPrune(1));
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kCount);
  plan.time_filter = TimeRange{f.times.back() + 100, f.times.back() + 200};
  Result<QueryResult> result = engine.Execute(plan, f.store);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().columns[0][0], 0.0);
}

TEST(EngineTest, FileBackedAggregationMatchesInMemory) {
  Fixture f = MakeFixture(30000, 139, 1500);
  std::string path = ::testing::TempDir() + "/etsqp_engine_file.tsfile";
  ASSERT_TRUE(storage::WriteTsFile(f.store, path).ok());
  storage::FileBackedStore fbs;
  storage::FileBackedStore::Options fopt;
  fopt.memory_budget_bytes = 1 << 16;  // force gradual loading + eviction
  ASSERT_TRUE(fbs.Open(path, fopt).ok());

  Engine engine(PipelineOptions::EtsqpPrune(2));
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  plan.time_filter = TimeRange{f.times[2000], f.times[20000]};
  auto mem = engine.Execute(plan, f.store);
  auto file = engine.Execute(plan, &fbs);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(mem.value().columns[0][0], file.value().columns[0][0]);
  // Pruned pages were never fetched from the file.
  EXPECT_LT(fbs.stats().pages_loaded, 20u);
  EXPECT_GT(file.value().stats.pages_pruned, 0u);

  // Windowed query on the file-backed path.
  LogicalPlan wplan = LogicalPlan::Aggregate("ts", AggFunc::kAvg);
  wplan.window.active = true;
  wplan.window.t_min = f.times[0];
  wplan.window.delta_t = (f.times.back() - f.times[0]) / 7 + 1;
  auto wmem = engine.Execute(wplan, f.store);
  auto wfile = engine.Execute(wplan, &fbs);
  ASSERT_TRUE(wmem.ok() && wfile.ok());
  ASSERT_EQ(wmem.value().num_rows(), wfile.value().num_rows());
  for (size_t r = 0; r < wmem.value().num_rows(); ++r) {
    EXPECT_EQ(wmem.value().columns[1][r], wfile.value().columns[1][r]);
  }
  std::remove(path.c_str());
}

TEST(PipeBuilderTest, SlicesOnlyWhenCoresExceedPages) {
  Fixture f = MakeFixture(40960, 127, 8192);  // 5 pages of 8 blocks each
  PipelineOptions few = PipelineOptions::Etsqp(4);
  PipelineOptions many = PipelineOptions::Etsqp(16);
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  auto spec_few = BuildPipeline(plan, f.store, few);
  auto spec_many = BuildPipeline(plan, f.store, many);
  ASSERT_TRUE(spec_few.ok() && spec_many.ok());
  EXPECT_EQ(spec_few.value().jobs.size(), 5u);  // pages >= cores: one job per page
  EXPECT_GT(spec_many.value().jobs.size(), 5u);  // cores > pages: block slices
  // Slicing must not change results.
  Engine engine_few(few);
  Engine engine_many(many);
  auto ra = engine_few.Execute(plan, f.store);
  auto rb = engine_many.Execute(plan, f.store);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra.value().columns[0][0], rb.value().columns[0][0]);
}

TEST(PipeBuilderTest, PrunesPagesByHeaderStats) {
  Fixture f = MakeFixture(20000, 131, 1000);
  PipelineOptions opt = PipelineOptions::EtsqpPrune(1);
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  plan.time_filter = TimeRange{f.times[500], f.times[1500]};
  auto spec = BuildPipeline(plan, f.store, opt);
  ASSERT_TRUE(spec.ok());
  EXPECT_GT(spec.value().plan_stats.pages_pruned, 10u);
  EXPECT_LT(spec.value().jobs.size(), 5u);
}

}  // namespace
}  // namespace etsqp::exec
