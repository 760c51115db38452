#include <gtest/gtest.h>

#include <numeric>

#include "runner.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace sqlbench {
namespace {

TEST(PercentileTest, NearestRankWithExactSampleCounts) {
  EXPECT_EQ(PercentileRank(1000, 99), 990u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);  // the smallest run with a p99
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 99), 1u);
  EXPECT_EQ(PercentileRank(10, 50), 5u);
  EXPECT_EQ(PercentileRank(1, 99), 1u);
  EXPECT_EQ(PercentileRank(0, 50), 0u);

  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(Percentile(v, 99), 990.0);
  EXPECT_EQ(Percentile(v, 50), 500.0);
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Percentile({}, 99), 0.0);

  // Three full chunks of 1000 (p99s 990, 1990, 2990) and a dropped tail.
  std::vector<double> w(3500);
  std::iota(w.begin(), w.end(), 1.0);
  EXPECT_EQ(MedianChunkP99(w, 1000), 1990.0);
  EXPECT_EQ(MedianChunkP99(std::vector<double>(999, 1.0), 1000), 0.0);
}

TEST(RatesTest, GeneratedQueriesCountAtTheirCellsMedianLatency) {
  auto rec = [](const char* kind, bool hit, uint64_t us, uint64_t tuples) {
    return QueryRecord{kind, -1, 0, us * 1000, tuples, 0, true, hit};
  };
  // "a" misses take 1, 1 and 100 ms (median 1); "a" hits 0.1 ms; one "b"
  // miss 2 ms. Time: 3 × 1 + 2 × 0.1 + 2 = 5.2 ms for 6 queries.
  std::vector<QueryRecord> q = {
      rec("a", false, 1000, 10),  rec("a", false, 100000, 10),
      rec("a", false, 1000, 10),  rec("a", true, 100, 10),
      rec("a", true, 100, 10),    rec("b", false, 2000, 40)};
  q.push_back(rec("b", false, 50, 0));
  q.back().validated = false;  // not counted
  double qps = 0, tps = 0;
  ClosedLoopRates(q, 2, &qps, &tps);
  EXPECT_DOUBLE_EQ(qps, 2 * 6 / 5.2e-3);
  EXPECT_DOUBLE_EQ(tps, 2 * 90 / 5.2e-3);
}

TEST(TraceTest, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer t(true);
  const int64_t root = t.Record("root", 0, 100);
  t.Record("a", 10, 40, root);
  t.Record("b", 30, 50, root);   // overlaps a: 10..50 is covered once
  t.Record("c", 90, 120, root);  // clipped to the parent's end
  t.Record("other", 0, 1000);
  const std::vector<uint64_t> self = SelfNanos(t.spans());
  EXPECT_EQ(self[0], 100u - 40u - 10u);
  EXPECT_EQ(self[1], 30u);
  EXPECT_EQ(self[4], 1000u);

  Tracer off(false);
  EXPECT_EQ(off.Record("x", 0, 1), -1);
  EXPECT_TRUE(off.spans().empty());
}

/// One series of 1,000 points; every query asks for its SUM and is told
/// to expect `expected_sum`.
class OneSeries : public Workload {
 public:
  explicit OneSeries(double expected_sum)
      : db_(etsqp::db::Database::Options{}), expected_sum_(expected_sum) {}

  etsqp::Status Setup(Tracer*, SetupLog*) override {
    ETSQP_RETURN_IF_ERROR(db_.CreateTimeseries("s"));
    std::vector<int64_t> t(1000), v(1000);
    std::iota(t.begin(), t.end(), 0);
    std::iota(v.begin(), v.end(), 0);  // SUM = 499500
    ETSQP_RETURN_IF_ERROR(db_.InsertBatch("s", t.data(), v.data(), 1000));
    return db_.Flush();
  }
  etsqp::db::Database& db() override { return db_; }
  int clients() const override { return 1; }
  int engine_threads() const override { return 1; }
  QueryCase Next(int, std::mt19937_64*) override {
    auto want = std::make_shared<Expected>();
    want->columns = {{expected_sum_}};
    return StaticCase("sum", "SELECT SUM(v) FROM s", std::move(want));
  }
  double BytesPerPoint() override { return 1; }
  uint64_t HashData() const override { return 0; }

 private:
  etsqp::db::Database db_;
  double expected_sum_;
};

TEST(OracleTest, InjectedWrongAnswerCountsAsFailure) {
  OneSeries wrong(499501);
  ASSERT_TRUE(wrong.Setup(nullptr, nullptr).ok());
  Tracer off(false);
  PhaseResult r = RunClients(&wrong, 0.05, 1, &off, 0);
  ASSERT_GT(r.attempted, 0u);
  EXPECT_EQ(r.mismatches, r.attempted);
  EXPECT_EQ(r.validated, 0u);
  EXPECT_EQ(r.tuples, 0u);  // a wrong answer adds no throughput
  EXPECT_NE(r.first_failure.find("expected 499501"), std::string::npos);

  OneSeries right(499500);
  ASSERT_TRUE(right.Setup(nullptr, nullptr).ok());
  r = RunClients(&right, 0.05, 1, &off, 0);
  ASSERT_GT(r.attempted, 0u);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_EQ(r.validated, r.attempted);
  EXPECT_EQ(r.tuples, 1000 * r.validated);
}

TEST(OracleTest, UnionTiesMayComeInEitherOrder) {
  etsqp::exec::QueryResult got;
  got.columns = {{1, 1, 2}, {20, 10, 30}};
  Expected want;
  want.columns = {{1, 1, 2}, {10, 20, 30}};
  std::string why;
  EXPECT_FALSE(Matches(got, want, &why));
  want.ties_unordered = true;
  EXPECT_TRUE(Matches(got, want, &why));
  got.columns[1][2] = 31;
  EXPECT_FALSE(Matches(got, want, &why));
}

TEST(InputsTest, OneSeedReproducesByteIdenticalInputs) {
  const std::string dir = ::testing::TempDir();
  for (const char* name :
       {"scan_agg", "merge_join", "cold_scan", "iot_serving"}) {
    SCOPED_TRACE(name);
    auto hash = [&](uint64_t seed) {
      auto w = MakeWorkload(name, seed, 1, dir, 0.005);
      Tracer off(false);
      SetupLog log;
      EXPECT_TRUE(w->Setup(&off, &log).ok());
      return InputHash(w.get());
    };
    const uint64_t first = hash(7);
    EXPECT_EQ(hash(7), first);
    EXPECT_NE(hash(8), first);
  }
}

}  // namespace
}  // namespace sqlbench
