/// Regression suite for the two-operand merge/join plans (binary
/// expressions, CORR and UNION). The engine-level tests pin the *scalar*
/// merge semantics the two-way SIMD kernels are differential-tested
/// against: duplicate timestamps across operands, one-empty-operand plans,
/// and matching timestamps that straddle the sealed-page/tail boundary of
/// one input.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "common/cpu.h"
#include "exec/engine.h"
#include "exec/pipeline.h"
#include "storage/series_store.h"

namespace etsqp::exec {
namespace {

struct Stream {
  std::vector<int64_t> times;
  std::vector<int64_t> values;
};

/// Appends `s` to `name`; seals everything up to `sealed_prefix` points and
/// leaves the remainder in the queryable unsealed tail.
void LoadSeries(storage::SeriesStore* store, const std::string& name,
                const Stream& s, size_t sealed_prefix) {
  storage::SeriesStore::SeriesOptions opt;
  opt.page_size = 256;
  ASSERT_TRUE(store->CreateSeries(name, opt).ok());
  if (sealed_prefix > 0) {
    ASSERT_TRUE(
        store->AppendBatch(name, s.times.data(), s.values.data(), sealed_prefix)
            .ok());
    ASSERT_TRUE(store->Flush(name).ok());
  }
  if (sealed_prefix < s.times.size()) {
    ASSERT_TRUE(store->AppendBatch(name, s.times.data() + sealed_prefix,
                                   s.values.data() + sealed_prefix,
                                   s.times.size() - sealed_prefix)
                    .ok());
  }
}

/// Reference union: all tuples of both inputs by time, ties left-first.
Stream ReferenceUnion(const Stream& l, const Stream& r) {
  Stream out;
  size_t i = 0, j = 0;
  while (i < l.times.size() || j < r.times.size()) {
    bool left = j >= r.times.size() ||
                (i < l.times.size() && l.times[i] <= r.times[j]);
    if (left) {
      out.times.push_back(l.times[i]);
      out.values.push_back(l.values[i]);
      ++i;
    } else {
      out.times.push_back(r.times[j]);
      out.values.push_back(r.values[j]);
      ++j;
    }
  }
  return out;
}

/// Reference join: k-th equal timestamp pairs (pairwise across duplicates).
void ReferenceJoin(const Stream& l, const Stream& r,
                   std::vector<int64_t>* t, std::vector<int64_t>* a,
                   std::vector<int64_t>* b) {
  size_t i = 0, j = 0;
  while (i < l.times.size() && j < r.times.size()) {
    if (l.times[i] < r.times[j]) {
      ++i;
    } else if (l.times[i] > r.times[j]) {
      ++j;
    } else {
      t->push_back(l.times[i]);
      a->push_back(l.values[i]);
      b->push_back(r.values[j]);
      ++i;
      ++j;
    }
  }
}

Result<QueryResult> RunBinary(storage::SeriesStore& store,
                              LogicalPlan::Kind kind, char binary_op = 0,
                              int threads = 2) {
  Engine engine(PipelineOptions::Etsqp(threads));
  LogicalPlan plan;
  plan.kind = kind;
  plan.series = "l";
  plan.series_right = "r";
  plan.binary_op = binary_op;
  return engine.Execute(plan, store);
}

void ExpectUnionMatches(const QueryResult& qr, const Stream& l,
                        const Stream& r) {
  Stream want = ReferenceUnion(l, r);
  ASSERT_EQ(qr.num_rows(), want.times.size());
  for (size_t i = 0; i < want.times.size(); ++i) {
    EXPECT_EQ(qr.columns[0][i], static_cast<double>(want.times[i])) << i;
    EXPECT_EQ(qr.columns[1][i], static_cast<double>(want.values[i])) << i;
  }
}

void ExpectJoinMatches(const QueryResult& qr, const Stream& l,
                       const Stream& r) {
  std::vector<int64_t> t, a, b;
  ReferenceJoin(l, r, &t, &a, &b);
  ASSERT_EQ(qr.num_rows(), t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(qr.columns[0][i], static_cast<double>(t[i])) << i;
    EXPECT_EQ(qr.columns[1][i], static_cast<double>(a[i])) << i;
    EXPECT_EQ(qr.columns[2][i], static_cast<double>(b[i])) << i;
  }
}

Stream MakeStream(std::mt19937_64* rng, size_t n, int64_t t0, int max_gap) {
  Stream s;
  int64_t t = t0;
  for (size_t i = 0; i < n; ++i) {
    t += 1 + static_cast<int64_t>((*rng)() % max_gap);
    s.times.push_back(t);
    s.values.push_back(static_cast<int64_t>((*rng)() % 1000));
  }
  return s;
}

TEST(NwayJoinRegressionTest, JoinDuplicateTimestampsAcrossOperands) {
  // Every left timestamp also appears on the right; interleaved extras on
  // both sides force the merge to resynchronize repeatedly.
  storage::SeriesStore store;
  Stream l, r;
  for (int64_t i = 1; i <= 4000; ++i) {
    if (i % 2 == 0 || i % 3 == 0) {
      l.times.push_back(i);
      l.values.push_back(i * 7);
    }
    if (i % 2 == 0 || i % 5 == 0) {
      r.times.push_back(i);
      r.values.push_back(i * 11);
    }
  }
  LoadSeries(&store, "l", l, l.times.size());
  LoadSeries(&store, "r", r, r.times.size());
  Result<QueryResult> qr = RunBinary(store, LogicalPlan::Kind::kJoin);
  ASSERT_TRUE(qr.ok()) << qr.status().ToString();
  ExpectJoinMatches(qr.value(), l, r);
}

TEST(NwayJoinRegressionTest, UnionDuplicateTimestampsEmitBothTuples) {
  storage::SeriesStore store;
  Stream l, r;
  for (int64_t i = 1; i <= 1000; ++i) {
    l.times.push_back(i * 2);  // evens
    l.values.push_back(1);
    r.times.push_back(i);  // everything: every even time duplicates
    r.values.push_back(2);
  }
  LoadSeries(&store, "l", l, l.times.size());
  LoadSeries(&store, "r", r, r.times.size());
  Result<QueryResult> qr = RunBinary(store, LogicalPlan::Kind::kUnion);
  ASSERT_TRUE(qr.ok()) << qr.status().ToString();
  ExpectUnionMatches(qr.value(), l, r);
}

TEST(NwayJoinRegressionTest, OneEmptyOperand) {
  storage::SeriesStore store;
  std::mt19937_64 rng(31);
  Stream l = MakeStream(&rng, 600, 0, 4);
  Stream r;  // created but never appended to
  LoadSeries(&store, "l", l, 300);
  ASSERT_TRUE(store.CreateSeries("r", {}).ok());

  Result<QueryResult> join = RunBinary(store, LogicalPlan::Kind::kJoin);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join.value().num_rows(), 0u);

  Result<QueryResult> uni = RunBinary(store, LogicalPlan::Kind::kUnion);
  ASSERT_TRUE(uni.ok()) << uni.status().ToString();
  ExpectUnionMatches(uni.value(), l, r);

  Result<QueryResult> proj =
      RunBinary(store, LogicalPlan::Kind::kProjectBinary, '+');
  ASSERT_TRUE(proj.ok()) << proj.status().ToString();
  EXPECT_EQ(proj.value().num_rows(), 0u);
}

TEST(NwayJoinRegressionTest, EmptyLeftOperand) {
  storage::SeriesStore store;
  std::mt19937_64 rng(37);
  Stream l;
  Stream r = MakeStream(&rng, 500, 10, 3);
  ASSERT_TRUE(store.CreateSeries("l", {}).ok());
  LoadSeries(&store, "r", r, 250);

  Result<QueryResult> uni = RunBinary(store, LogicalPlan::Kind::kUnion);
  ASSERT_TRUE(uni.ok()) << uni.status().ToString();
  ExpectUnionMatches(uni.value(), l, r);

  Result<QueryResult> join = RunBinary(store, LogicalPlan::Kind::kJoin);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join.value().num_rows(), 0u);
}

TEST(NwayJoinRegressionTest, TailVsSealedBoundaryStraddlesMatch) {
  // Left holds the shared timestamps in sealed pages; on the right the
  // same timestamps sit at the sealed/tail boundary — the first matching
  // time is the last sealed right tuple, the second is the first tail
  // tuple. The merge must treat the concatenated right input as one
  // ordered stream.
  storage::SeriesStore store;
  Stream l, r;
  for (int64_t i = 1; i <= 1200; ++i) {
    l.times.push_back(i);
    l.values.push_back(i);
  }
  for (int64_t i = 2; i <= 1200; i += 2) {
    r.times.push_back(i);
    r.values.push_back(-i);
  }
  LoadSeries(&store, "l", l, l.times.size());
  // Seal right up to (and including) time 600; times 602.. stay tail.
  LoadSeries(&store, "r", r, 300);

  Result<QueryResult> join = RunBinary(store, LogicalPlan::Kind::kJoin);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ExpectJoinMatches(join.value(), l, r);

  Result<QueryResult> uni = RunBinary(store, LogicalPlan::Kind::kUnion);
  ASSERT_TRUE(uni.ok()) << uni.status().ToString();
  ExpectUnionMatches(uni.value(), l, r);

  Result<QueryResult> proj =
      RunBinary(store, LogicalPlan::Kind::kProjectBinary, '-');
  ASSERT_TRUE(proj.ok()) << proj.status().ToString();
  const QueryResult& p = proj.value();
  std::vector<int64_t> t, a, b;
  ReferenceJoin(l, r, &t, &a, &b);
  ASSERT_EQ(p.num_rows(), t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(p.columns[1][i], static_cast<double>(a[i] - b[i])) << i;
  }
}

TEST(NwayJoinRegressionTest, BothTailsOnly) {
  // Neither side has sealed pages: pure tail-vs-tail merge.
  storage::SeriesStore store;
  std::mt19937_64 rng(41);
  Stream l = MakeStream(&rng, 700, 0, 2);
  Stream r = MakeStream(&rng, 650, 1, 2);
  LoadSeries(&store, "l", l, 0);
  LoadSeries(&store, "r", r, 0);

  Result<QueryResult> join = RunBinary(store, LogicalPlan::Kind::kJoin);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ExpectJoinMatches(join.value(), l, r);

  Result<QueryResult> uni = RunBinary(store, LogicalPlan::Kind::kUnion);
  ASSERT_TRUE(uni.ok()) << uni.status().ToString();
  ExpectUnionMatches(uni.value(), l, r);
}

TEST(NwayJoinRegressionTest, ScalarAndSimdMergePathsAgree) {
  // The differential contract the SIMD kernels are tested against: with
  // SIMD force-disabled the engine must produce byte-identical results.
  storage::SeriesStore store;
  std::mt19937_64 rng(47);
  Stream l = MakeStream(&rng, 5000, 0, 3);
  Stream r = MakeStream(&rng, 4000, 5, 4);
  LoadSeries(&store, "l", l, 4000);
  LoadSeries(&store, "r", r, 2000);

  for (LogicalPlan::Kind kind :
       {LogicalPlan::Kind::kJoin, LogicalPlan::Kind::kUnion,
        LogicalPlan::Kind::kProjectBinary}) {
    char op = kind == LogicalPlan::Kind::kProjectBinary ? '+' : 0;
    Result<QueryResult> simd = RunBinary(store, kind, op);
    SetSimdDisabledForTesting(true);
    Result<QueryResult> scalar = RunBinary(store, kind, op);
    SetSimdDisabledForTesting(false);
    ASSERT_TRUE(simd.ok()) << simd.status().ToString();
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    ASSERT_EQ(simd.value().num_rows(), scalar.value().num_rows());
    for (size_t c = 0; c < simd.value().columns.size(); ++c) {
      for (size_t i = 0; i < simd.value().columns[c].size(); ++i) {
        ASSERT_EQ(simd.value().columns[c][i], scalar.value().columns[c][i])
            << "kind=" << static_cast<int>(kind) << " col=" << c << " i=" << i;
      }
    }
  }
}

TEST(NwayJoinRegressionTest, CorrelateGeneralPathWithPartialOverlap) {
  // Correlate's general path shares the intersection drain; overlap is
  // partial and straddles the right input's tail.
  storage::SeriesStore store;
  Stream l, r;
  for (int64_t i = 1; i <= 3000; ++i) {
    l.times.push_back(i);
    l.values.push_back(i % 97);
    if (i % 3 == 0) {
      r.times.push_back(i);
      r.values.push_back((i % 97) * 2 + 1);
    }
  }
  LoadSeries(&store, "l", l, l.times.size());
  LoadSeries(&store, "r", r, 600);

  Engine engine(PipelineOptions::Etsqp(2));
  LogicalPlan plan;
  plan.kind = LogicalPlan::Kind::kCorrelate;
  plan.series = "l";
  plan.series_right = "r";
  Result<QueryResult> qr = engine.Execute(plan, store);
  ASSERT_TRUE(qr.ok()) << qr.status().ToString();
  ASSERT_EQ(qr.value().num_rows(), 1u);
  // n = matched pairs; corr of (x, 2x+1) over the overlap is 1.
  EXPECT_EQ(qr.value().columns[2][0], static_cast<double>(r.times.size()));
  EXPECT_NEAR(qr.value().columns[0][0], 1.0, 1e-9);
}

}  // namespace
}  // namespace etsqp::exec
