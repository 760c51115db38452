// Pruning correctness: the OrderedValueKey domain (negative doubles,
// negative zero, NaN), float value filters against hand-computed answers,
// and the differential harness — randomized workloads (mixed codecs, OOO
// buffers, tombstones, TTL, tail data, NaN floats, windowed plans,
// file-backed reads) whose query results must equal a scalar oracle over
// the raw inserted points, across decode strategies. The staleness races
// live in ingest_test.cc / compaction_test.cc next to the subsystems they
// race.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "db/database.h"
#include "exec/engine.h"
#include "exec/pipe_builder.h"
#include "exec/pipeline.h"
#include "storage/buffer_manager.h"
#include "storage/series_store.h"
#include "storage/tsfile.h"
#include "scalar_oracle.h"

namespace etsqp {
namespace {

using exec::AggFunc;
using exec::Engine;
using exec::LogicalPlan;
using exec::PipelineOptions;
using exec::QueryResult;
using oracle::SameColumns;
using oracle::SeriesOracle;
using storage::OrderedValueKey;
using storage::SeriesSnapshot;
using storage::SeriesStore;

// ------------------------------------------------- key domain

TEST(OrderedValueKeyTest, PreservesOrdering) {
  const double values[] = {-std::numeric_limits<double>::infinity(),
                           -1e300,
                           -3.5,
                           -1.0,
                           -1e-300,
                           0.0,
                           1e-300,
                           0.25,
                           1.0,
                           7.5,
                           1e300,
                           std::numeric_limits<double>::infinity()};
  for (size_t i = 1; i < sizeof(values) / sizeof(values[0]); ++i) {
    EXPECT_LT(OrderedValueKey(values[i - 1]), OrderedValueKey(values[i]))
        << values[i - 1] << " vs " << values[i];
  }
}

TEST(OrderedValueKeyTest, NegativeZeroEqualsPositiveZero) {
  EXPECT_EQ(OrderedValueKey(-0.0), OrderedValueKey(0.0));
}

// ------------------------------------------------- float value filters

/// COUNT and SUM of `series` under `where`, through the SQL front end.
void ExpectCountSum(const db::Database& db, const std::string& series,
                    const std::string& where, double count, double sum,
                    const std::string& label) {
  const std::string from = "(" + series + ") FROM " + series + " WHERE ";
  Result<QueryResult> c = db.Query("SELECT COUNT" + from + where + ";");
  Result<QueryResult> s = db.Query("SELECT SUM" + from + where + ";");
  ASSERT_TRUE(c.ok()) << label << " " << where << ": "
                      << c.status().ToString();
  ASSERT_TRUE(s.ok()) << label << " " << where << ": "
                      << s.status().ToString();
  EXPECT_EQ(c.value().columns[0][0], count) << label << " COUNT " << where;
  EXPECT_EQ(s.value().columns[0][0], sum) << label << " SUM " << where;
}

// A strict comparison on a float series compares against its literal: the
// integer folding `v > 3` -> `v >= 4` would drop 3.5. Answers are computed
// by hand over {2.5, 3.0, 3.5, 4.0}, held in the tail, in a sealed page
// and in a file-backed store, with the result cache on so filters that
// fold alike on integers (`v > 3`, `v >= 4`) must not share an entry.
TEST(FloatValueFilterTest, StrictBoundsKeepFractionalValues) {
  struct Case {
    const char* where;
    double count;
    double sum;
  };
  const Case cases[] = {
      {"f > 3", 2, 7.5},          {"f >= 4", 1, 4.0},
      {"f < 3", 1, 2.5},          {"f >= 3", 3, 10.5},
      {"f <= 3", 2, 5.5},         {"f = 3", 1, 3.0},
      {"f > 2 AND f < 4", 3, 9.0}, {"f > 3 AND f < 4", 1, 3.5},
      {"f > 2 AND f >= 3", 3, 10.5}, {"f > 3 AND f >= 1", 2, 7.5},
      {"f < 4 AND f <= 3", 2, 5.5},  {"f <= 5 AND f < 3", 1, 2.5},
  };
  const int64_t times[] = {10, 20, 30, 40};
  const double values[] = {2.5, 3.0, 3.5, 4.0};
  const std::string path =
      ::testing::TempDir() + "/float_value_filter.tsfile";
  for (db::Database::Mode mode :
       {db::Database::Mode::kSimd, db::Database::Mode::kScalar}) {
    for (int where = 0; where < 3; ++where) {  // tail, sealed, file
      db::Database db(db::Database::Options{mode, /*threads=*/1,
                                            /*shards=*/1,
                                            /*cache_budget_bytes=*/1 << 20});
      ASSERT_TRUE(db.CreateFloatTimeseries(
                        "f", enc::ColumnEncoding::kGorillaValue,
                        /*page_size=*/where == 0 ? 64 : 4)
                      .ok());
      ASSERT_TRUE(db.InsertBatchF64("f", times, values, 4).ok());
      const char* label = where == 0 ? "tail" : where == 1 ? "sealed" : "file";
      if (where == 2) {
        ASSERT_TRUE(db.Save(path).ok());
        ASSERT_TRUE(db.OpenFile(path, 4096).ok());
      }
      for (const Case& c : cases) {
        ExpectCountSum(db, "f", c.where, c.count, c.sum, label);
      }
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- float regressions

TEST(PruningIndexTest, NanPageIsNeverValuePruned) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 8;
  opt.page.value_encoding = enc::ColumnEncoding::kGorillaValue;
  ASSERT_TRUE(store.CreateSeries("f", opt).ok());
  // One full page whose max lands on NaN mid-stream: finite bounds over the
  // rest would value-prune it, silently dropping the NaN tuples that pass
  // every filter compare downstream.
  std::vector<int64_t> times = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<double> values = {1.0,
                                2.0,
                                std::numeric_limits<double>::quiet_NaN(),
                                1.5,
                                2.5,
                                1.0,
                                2.0,
                                1.5};
  ASSERT_TRUE(
      store.AppendBatchF64("f", times.data(), values.data(), 8).ok());
  ASSERT_TRUE(store.Flush().ok());

  auto snap = store.GetSnapshot("f");
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap.value().pages.size(), 1u);
  // The header's bounds must be poisoned, not computed over the rest.
  double hmax;
  std::memcpy(&hmax, &snap.value().pages[0]->header.max_value, 8);
  EXPECT_TRUE(std::isnan(hmax));

  // COUNT with a value filter far above the finite values: the engine's
  // float drains skip a tuple via (v < lo || v > hi), so a NaN passes every
  // value filter (both compares are false) and must be counted — which
  // requires the page header not to prune. Finite
  // bounds over the non-NaN rest would have value-pruned the page and
  // silently returned 0.
  LogicalPlan plan = LogicalPlan::Aggregate("f", AggFunc::kCount);
  plan.value_filter.active = true;
  plan.value_filter.lo = 100;
  plan.value_filter.hi = 200;
  Engine engine(PipelineOptions::EtsqpPrune(1));
  auto result = engine.Execute(plan, store);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.pages_pruned, 0u);
  EXPECT_EQ(result.value().columns[0][0], 1.0);
}

TEST(PruningIndexTest, NegativeFloatBoundsPruneCorrectly) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 4;
  opt.page.value_encoding = enc::ColumnEncoding::kGorillaValue;
  ASSERT_TRUE(store.CreateSeries("f", opt).ok());
  // Page 0: all negative; page 1: spans zero (max is -0.0 in page 0's
  // successor boundary case exercised below); page 2: all positive.
  std::vector<int64_t> times = {0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23};
  std::vector<double> values = {-8.0, -6.5, -7.0, -5.0, -1.0, -0.0, 0.5, 1.0,
                                4.0,  5.5,  6.0,  7.25};
  ASSERT_TRUE(
      store.AppendBatchF64("f", times.data(), values.data(), 12).ok());
  ASSERT_TRUE(store.Flush().ok());

  // Filter [0, 10]: page 1's max boundary is -0.0 on the lo edge for the
  // -0.0 tuple and 1.0 above it — the page must survive (bit-pattern
  // compares would prune it: -0.0 and negative doubles order backwards as
  // raw int64). Expected matches: -0.0, 0.5, 1.0 and all of page 2.
  LogicalPlan plan = LogicalPlan::Aggregate("f", AggFunc::kCount);
  plan.value_filter.active = true;
  plan.value_filter.lo = 0;
  plan.value_filter.hi = 10;
  Engine engine(PipelineOptions::EtsqpPrune(1));
  auto result = engine.Execute(plan, store);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().columns[0][0], 7.0);
  // Page 0 (all negative) is the only prunable one.
  EXPECT_EQ(result.value().stats.pages_pruned, 1u);
}

// ------------------------------------------------- differential fuzz

/// One randomized round: build a series with random codec / page size /
/// tail / OOO buffer / tombstones / TTL (and NaNs when float), mirror every
/// accepted write into the scalar oracle, and run one random query —
/// aggregate (any of the six, VAR included), select or windowed, with time
/// bounds and value filters (strict or inclusive bounds on float series).
/// The engine's answer must equal the oracle's. Some rounds (integer and
/// float) also
/// write the clean store as a TsFile (as Database::Save does) and run the
/// same plan through a FileBackedStore (as Database::OpenFile serves it):
/// the same page walk over lazily loaded snapshots, whose buffer pool must
/// never fetch a pruned page.
void RunFuzzRound(uint64_t round) {
  std::mt19937_64 rng(round * 2654435761u + 17);
  const bool file_round = round % 8 == 5;  // clean by design
  const bool is_float = round % 4 == 3 || (file_round && round % 16 == 13);

  SeriesStore::SeriesOptions opt;
  const uint32_t page_sizes[] = {16, 32, 64, 128};
  opt.page_size = page_sizes[rng() % 4];
  if (is_float) {
    const enc::ColumnEncoding fencs[] = {enc::ColumnEncoding::kGorillaValue,
                                         enc::ColumnEncoding::kChimpValue,
                                         enc::ColumnEncoding::kElfValue};
    opt.page.value_encoding = fencs[rng() % 3];
  } else {
    const enc::ColumnEncoding iencs[] = {
        enc::ColumnEncoding::kTs2Diff,    enc::ColumnEncoding::kDeltaRle,
        enc::ColumnEncoding::kRlbe,       enc::ColumnEncoding::kSprintz,
        enc::ColumnEncoding::kFastLanes,  enc::ColumnEncoding::kStreamVByte};
    opt.page.value_encoding = iencs[rng() % 6];
  }
  opt.allow_out_of_order = !file_round && rng() % 5 == 0;

  SeriesStore store;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  SeriesOracle truth(is_float);

  const size_t n = 40 + rng() % 200;
  std::vector<int64_t> times(n);
  std::vector<int64_t> ivalues(n);
  std::vector<double> fvalues(n);
  int64_t t = static_cast<int64_t>(rng() % 50);
  int64_t v = static_cast<int64_t>(rng() % 200) - 100;
  for (size_t i = 0; i < n; ++i) {
    t += 1 + static_cast<int64_t>(rng() % 4);
    v += static_cast<int64_t>(rng() % 21) - 10;
    times[i] = t;
    ivalues[i] = v;
    fvalues[i] = (rng() % 40 == 0)
                     ? std::numeric_limits<double>::quiet_NaN()
                     : static_cast<double>(v) + 0.25 * (rng() % 4);
  }
  if (is_float) {
    ASSERT_TRUE(
        store.AppendBatchF64("s", times.data(), fvalues.data(), n).ok());
    for (size_t i = 0; i < n; ++i) truth.AppendF64(times[i], fvalues[i]);
  } else {
    ASSERT_TRUE(
        store.AppendBatch("s", times.data(), ivalues.data(), n).ok());
    for (size_t i = 0; i < n; ++i) truth.Append(times[i], ivalues[i]);
  }
  if (file_round || rng() % 2 == 0) {  // else keep a live tail
    ASSERT_TRUE(store.Flush().ok());
  }

  if (opt.allow_out_of_order && !is_float) {
    // A late batch: the OOO prefix lands in the overlap buffer, invisible
    // to queries until compaction.
    int64_t late[] = {times[0] + 1, times[n - 1] + 1};
    int64_t lval[] = {9999, -9999};
    ASSERT_TRUE(store.AppendBatch("s", late, lval, 2).ok());
    truth.Append(late[0], lval[0]);
    truth.Append(late[1], lval[1]);
  }
  if (!file_round && rng() % 4 == 0) {
    int64_t d0 = times[rng() % n];
    ASSERT_TRUE(store.DeleteRange("s", d0, d0 + 40).ok());
    truth.DeleteRange(d0, d0 + 40);
  }
  if (!file_round && rng() % 10 == 0) {
    const int64_t ttl = (times[n - 1] - times[0]) / 2;
    ASSERT_TRUE(store.SetTtl("s", ttl).ok());
    truth.SetTtl(ttl);
  }

  // Random query shape.
  const AggFunc funcs[] = {AggFunc::kSum, AggFunc::kCount, AggFunc::kMin,
                           AggFunc::kMax, AggFunc::kAvg, AggFunc::kVariance};
  LogicalPlan plan = LogicalPlan::Aggregate("s", funcs[rng() % 6]);
  const int shape = static_cast<int>(rng() % 3);
  if (!is_float && shape == 0) {
    plan.kind = LogicalPlan::Kind::kSelect;
  } else if (shape == 1) {
    plan.window.active = true;
    plan.window.t_min = times[rng() % n] - static_cast<int64_t>(rng() % 30);
    plan.window.delta_t = 1 + static_cast<int64_t>(rng() % 60);
  }
  switch (rng() % 6) {
    case 0:  // no time filter
      break;
    case 1:  // touches the newest appended point exactly
      plan.time_filter.lo = times[n - 1];
      plan.time_filter.hi = times[n - 1] + static_cast<int64_t>(rng() % 10);
      break;
    case 2:  // touches the oldest appended point exactly
      plan.time_filter.hi = times[0];
      plan.time_filter.lo = times[0] - static_cast<int64_t>(rng() % 10);
      break;
    default:
      plan.time_filter.lo = times[rng() % n] - static_cast<int64_t>(rng() % 20);
      plan.time_filter.hi =
          plan.time_filter.lo + static_cast<int64_t>(rng() % (4 * n));
      break;
  }
  if (rng() % 5 != 0) {
    plan.value_filter.active = true;
    plan.value_filter.lo = v - static_cast<int64_t>(rng() % 150);
    plan.value_filter.hi =
        plan.value_filter.lo + static_cast<int64_t>(rng() % 120);
    if (is_float) {
      plan.value_filter.lo_strict = rng() % 2 == 0;
      plan.value_filter.hi_strict = rng() % 2 == 0;
    }
  }

  // Rotate the decode datapath: Schedule()'s per-class choice, the pinned
  // SBoost SIMD strategy, and the pinned serial scalar pipelines; every
  // fifth round slices pages across three workers.
  PipelineOptions base;
  switch (round % 3) {
    case 0:
      base = PipelineOptions::EtsqpPrune(1);
      break;
    case 1:
      base = PipelineOptions::Sboost(1).WithPrune(true);
      break;
    default:
      base = PipelineOptions::Serial().WithPrune(true);
      break;
  }
  if (round % 5 == 4) base.WithThreads(3);

  // (a) The page walk over the store's snapshot.
  auto snap = store.GetSnapshot("s");
  ASSERT_TRUE(snap.ok());
  std::vector<SeriesSnapshot> inputs{snap.value()};
  auto spec = BuildPipeline(plan, inputs, base);
  ASSERT_TRUE(spec.ok());

  // (b) The engine's answer equals the oracle's.
  const std::vector<std::vector<double>> want = truth.Answer(plan);
  Engine engine(base);
  auto result = engine.Execute(plan, store);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string why;
  EXPECT_TRUE(SameColumns(result.value().columns, want, is_float, &why))
      << "round " << round << ": " << why;

  // (c) The same store saved and queried through a FileBackedStore.
  if (file_round) {
    const std::string path =
        ::testing::TempDir() + "/pruning_fuzz_" + std::to_string(round) +
        ".tsfile";
    ASSERT_TRUE(storage::WriteTsFile(store, path).ok());
    storage::FileBackedStore file;
    ASSERT_TRUE(file.Open(path).ok());
    auto from_file = engine.Execute(plan, &file);
    ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
    EXPECT_TRUE(
        SameColumns(from_file.value().columns, want, is_float, &why))
        << "round " << round << " (file): " << why;
    const exec::ExecStats& fstats = from_file.value().stats;
    EXPECT_EQ(fstats.pages_pruned, spec.value().plan_stats.pages_pruned)
        << "round " << round << " (file)";
    EXPECT_LE(file.stats().pages_loaded,
              fstats.pages_total - fstats.pages_pruned)
        << "round " << round << " (file): a pruned page was fetched";
    std::remove(path.c_str());
  }
}

TEST(PruningDifferentialTest, FuzzAgainstOracle1100Rounds) {
  for (uint64_t round = 0; round < 1100; ++round) {
    RunFuzzRound(round);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "first failing round: " << round;
    }
  }
}

TEST(PruningDifferentialTest, ScalarFallbackWhenSimdDisabled) {
  SetSimdDisabledForTesting(true);
  for (uint64_t round = 0; round < 32; ++round) {
    RunFuzzRound(round);
  }
  SetSimdDisabledForTesting(false);
}

// A dead input is ruled out by its page headers alone: every page pruned,
// no job scheduled, and the empty-match answer.
TEST(PruneStatsTest, SeriesPruneCountersReported) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 16;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  std::vector<int64_t> times(64), values(64);
  for (int64_t i = 0; i < 64; ++i) {
    times[i] = i;
    values[i] = i;
  }
  ASSERT_TRUE(store.AppendBatch("s", times.data(), values.data(), 64).ok());
  ASSERT_TRUE(store.Flush().ok());

  LogicalPlan plan = LogicalPlan::Aggregate("s", AggFunc::kSum);
  plan.time_filter.lo = 100000;  // misses the whole series
  plan.time_filter.hi = 200000;
  const PipelineOptions options = PipelineOptions::Etsqp(1).WithStats(true);
  auto spec = exec::BuildPipeline(plan, store, options);
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec.value().jobs.empty());

  Engine engine(options);
  auto result = engine.Execute(plan, store);
  ASSERT_TRUE(result.ok());
  const exec::ExecStats& stats = result.value().stats;
  EXPECT_EQ(stats.pages_pruned, 4u);
  EXPECT_EQ(stats.pages_total, 4u);
  EXPECT_EQ(stats.tuples_in_pages, 64u);
  EXPECT_EQ(stats.tuples_scanned, 0u);
  // Aggregates always emit one row; the empty-match sum is 0.
  ASSERT_EQ(result.value().columns[0].size(), 1u);
  EXPECT_EQ(result.value().columns[0][0], 0.0);
  // The JSON export carries the page counters.
  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"pages_pruned\": 4"), std::string::npos) << json;
}

}  // namespace
}  // namespace etsqp
