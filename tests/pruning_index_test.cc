// Pruning correctness: SIMD kernel variants against a scalar reference,
// the OrderedValueKey domain (negative doubles, negative zero, NaN), the
// series envelopes, and the differential harness — randomized workloads
// (mixed codecs, OOO buffers, tombstones, TTL, tail data, NaN floats,
// windowed plans, file-backed reads) whose query results must equal a
// scalar oracle over the raw inserted points, across decode strategies.
// The staleness races live in ingest_test.cc / compaction_test.cc next to
// the subsystems they race.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/cpu.h"
#include "db/database.h"
#include "exec/engine.h"
#include "exec/pipe_builder.h"
#include "exec/pipeline.h"
#include "simd/prune_simd.h"
#include "simd/transposed_unpack_avx512.h"
#include "storage/buffer_manager.h"
#include "storage/pruning_index.h"
#include "storage/series_store.h"
#include "storage/tsfile.h"
#include "scalar_oracle.h"

namespace etsqp {
namespace {

using exec::AggFunc;
using exec::Engine;
using exec::LogicalPlan;
using exec::PipelineOptions;
using exec::PipelineSpec;
using exec::QueryResult;
using exec::TimeRange;
using exec::ValueRange;
using oracle::SameColumns;
using oracle::SeriesOracle;
using storage::OrderedValueKey;
using storage::PruneProbe;
using storage::PruneProbeStats;
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

// ------------------------------------------------- kernel differential

bool RefSurvives(int64_t tmin, int64_t tmax, int64_t vmin, int64_t vmax,
                 int64_t t_lo, int64_t t_hi, bool value_active, int64_t v_lo,
                 int64_t v_hi) {
  return tmin <= t_hi && tmax >= t_lo &&
         (!value_active || (vmin <= v_hi && vmax >= v_lo));
}

TEST(PruneSimdTest, KernelVariantsMatchScalarReference) {
  std::mt19937_64 rng(2024);
  auto rand_i64 = [&rng](int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(rng() % static_cast<uint64_t>(
                                               hi - lo + 1));
  };
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = trial < 8 ? static_cast<size_t>(trial)  // 0..7 edges
                               : 1 + rng() % 300;
    std::vector<int64_t> tmin(n), tmax(n), vmin(n), vmax(n);
    for (size_t i = 0; i < n; ++i) {
      tmin[i] = rand_i64(-1000, 1000);
      tmax[i] = tmin[i] + rand_i64(0, 200);
      vmin[i] = rand_i64(-500, 500);
      vmax[i] = vmin[i] + rand_i64(0, 100);
    }
    const int64_t t_lo = rand_i64(-1200, 1200);
    const int64_t t_hi = t_lo + rand_i64(0, 400);
    const bool value_active = trial % 2 == 0;
    const int64_t v_lo = rand_i64(-600, 600);
    const int64_t v_hi = v_lo + rand_i64(0, 150);

    const size_t words = (n + 63) / 64;
    std::vector<uint64_t> ref_mask(words == 0 ? 1 : words, ~uint64_t{0});
    size_t ref_count = 0;
    for (size_t w = 0; w < words; ++w) ref_mask[w] = 0;
    for (size_t i = 0; i < n; ++i) {
      if (RefSurvives(tmin[i], tmax[i], vmin[i], vmax[i], t_lo, t_hi,
                      value_active, v_lo, v_hi)) {
        ref_mask[i >> 6] |= uint64_t{1} << (i & 63);
        ++ref_count;
      }
    }

    std::vector<simd::PruneIsa> isas = {simd::PruneIsa::kScalar};
    if (UseAvx2()) isas.push_back(simd::PruneIsa::kAvx2);
    if (UseAvx2() && simd::Avx512Available()) {
      isas.push_back(simd::PruneIsa::kAvx512);
    }
    for (simd::PruneIsa isa : isas) {
      std::vector<uint64_t> mask(words == 0 ? 1 : words, ~uint64_t{0});
      size_t count =
          simd::PruneScan(tmin.data(), tmax.data(), vmin.data(), vmax.data(),
                          n, t_lo, t_hi, value_active, v_lo, v_hi,
                          mask.data(), isa);
      EXPECT_EQ(count, ref_count)
          << "isa=" << static_cast<int>(isa) << " n=" << n;
      for (size_t w = 0; w < words; ++w) {
        EXPECT_EQ(mask[w], ref_mask[w])
            << "isa=" << static_cast<int>(isa) << " n=" << n << " word=" << w;
      }
    }
  }
}

// ------------------------------------------------- envelope

TEST(PruningIndexTest, SnapshotEnvelopeCoversPages) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 64;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  std::vector<int64_t> times(500), values(500);
  for (int64_t i = 0; i < 500; ++i) {
    times[i] = i * 10;
    values[i] = (i * 13) % 251 - 125;
  }
  ASSERT_TRUE(store.AppendBatch("s", times.data(), values.data(), 300).ok());
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_TRUE(
      store.AppendBatch("s", times.data() + 300, values.data() + 300, 200)
          .ok());  // some of it stays in the tail

  auto snap = store.GetSnapshot("s");
  ASSERT_TRUE(snap.ok());
  const SeriesSnapshot& s = snap.value();
  ASSERT_TRUE(s.envelope.has_value());
  // The envelope covers every page header and the tail.
  for (const auto& page : s.pages) {
    const storage::PageHeader& h = page->header;
    EXPECT_LE(s.envelope->time_min, h.min_time);
    EXPECT_GE(s.envelope->time_max, h.max_time);
    EXPECT_LE(s.envelope->value_min_key, h.min_value);
    EXPECT_GE(s.envelope->value_max_key, h.max_value);
  }
  ASSERT_TRUE(s.has_tail());
  EXPECT_GE(s.envelope->time_max, s.tail_max_time());
  EXPECT_EQ(s.envelope->value_min_key,
            *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(s.envelope->value_max_key,
            *std::max_element(values.begin(), values.end()));

  // A hand-built snapshot carries no envelope and is never envelope-pruned.
  SeriesSnapshot bare = s;
  bare.envelope.reset();
  LogicalPlan plan = LogicalPlan::Aggregate("s", AggFunc::kSum);
  plan.time_filter.lo = 100000;
  std::vector<SeriesSnapshot> inputs{bare};
  auto spec = exec::BuildPipeline(plan, inputs, PipelineOptions::Etsqp(1));
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().plan_stats.series_pruned, 0u);
  EXPECT_EQ(spec.value().plan_stats.pages_pruned, s.pages.size());
}

// ------------------------------------------------- fleet probe

TEST(PruningIndexTest, CountMatchingSeriesNeverUndercounts) {
  SeriesStore store;
  const int kSeries = 200;
  for (int k = 0; k < kSeries; ++k) {
    std::string name = "s" + std::to_string(k);
    SeriesStore::SeriesOptions opt;
    opt.page_size = 32;
    ASSERT_TRUE(store.CreateSeries(name, opt).ok());
    std::vector<int64_t> times(64), values(64);
    for (int64_t i = 0; i < 64; ++i) {
      times[i] = k * 1000 + i;  // staggered, mostly disjoint time ranges
      values[i] = k * 10 + (i % 7);
    }
    ASSERT_TRUE(
        store.AppendBatch(name, times.data(), values.data(), 64).ok());
  }
  ASSERT_TRUE(store.Flush().ok());

  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    PruneProbe probe;
    probe.t_lo = static_cast<int64_t>(rng() % (kSeries * 1000));
    probe.t_hi = probe.t_lo + static_cast<int64_t>(rng() % 5000);
    probe.value_active = trial % 2 == 0;
    probe.v_lo = static_cast<int64_t>(rng() % (kSeries * 10));
    probe.v_hi = probe.v_lo + static_cast<int64_t>(rng() % 100);

    std::vector<std::string> matched;
    PruneProbeStats stats = store.CountMatchingSeries(probe, &matched);
    EXPECT_EQ(stats.series_total, static_cast<uint64_t>(kSeries));
    EXPECT_EQ(stats.series_matched, matched.size());

    // Linear ground truth from the snapshots: a series linearly matches if
    // any page header (or tail point range) passes the same window.
    for (int k = 0; k < kSeries; ++k) {
      std::string name = "s" + std::to_string(k);
      auto snap = store.GetSnapshot(name);
      ASSERT_TRUE(snap.ok());
      bool linear = false;
      for (const auto& page : snap.value().pages) {
        const storage::PageHeader& h = page->header;
        if (h.min_time <= probe.t_hi && h.max_time >= probe.t_lo &&
            (!probe.value_active ||
             (h.min_value <= probe.v_hi && h.max_value >= probe.v_lo))) {
          linear = true;
          break;
        }
      }
      if (linear) {
        EXPECT_NE(std::find(matched.begin(), matched.end(), name),
                  matched.end())
            << "false prune of " << name << " trial " << trial;
      }
    }
  }
}

TEST(PruningIndexTest, DatabaseCountMatchingSeriesSumsShards) {
  db::Database db(db::Database::Options{db::Database::Mode::kSimd,
                                        /*threads=*/1, /*shards=*/4,
                                        /*cache_budget_bytes=*/0});
  for (int k = 0; k < 40; ++k) {
    std::string name = "fleet" + std::to_string(k);
    ASSERT_TRUE(db.CreateTimeseries(name, 128).ok());
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(db.Insert(name, k * 100 + i, k).ok());
    }
  }
  PruneProbe probe;
  probe.t_lo = 0;
  probe.t_hi = 999;  // series 0..9 (time ranges [k*100, k*100+9])
  std::vector<std::string> matched;
  PruneProbeStats stats = db.CountMatchingSeries(probe, &matched);
  EXPECT_EQ(stats.series_total, 40u);
  EXPECT_EQ(stats.series_matched, 10u);
  EXPECT_EQ(matched.size(), 10u);

  probe.value_active = true;
  probe.v_lo = 35;
  probe.v_hi = 100;  // values are the series index k
  probe.t_lo = std::numeric_limits<int64_t>::min();
  probe.t_hi = std::numeric_limits<int64_t>::max();
  stats = db.CountMatchingSeries(probe);
  EXPECT_EQ(stats.series_matched, 5u);  // k = 35..39
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
  // requires neither the envelope nor the page header to prune. Finite
  // bounds over the non-NaN rest would have value-pruned the page and
  // silently returned 0.
  LogicalPlan plan = LogicalPlan::Aggregate("f", AggFunc::kCount);
  plan.value_filter.active = true;
  plan.value_filter.lo = 100;
  plan.value_filter.hi = 200;
  Engine engine(PipelineOptions::EtsqpPrune(1));
  auto result = engine.Execute(plan, store);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.series_pruned, 0u);
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

/// The job set a pipeline schedules, normalized for comparison.
std::vector<std::tuple<int, size_t, size_t, size_t, bool, bool>> JobSet(
    const PipelineSpec& spec) {
  std::vector<std::tuple<int, size_t, size_t, size_t, bool, bool>> out;
  out.reserve(spec.jobs.size());
  for (const auto& j : spec.jobs) {
    out.emplace_back(j.input, j.page_index, j.begin, j.end, j.tail, j.masked);
  }
  return out;
}

/// One randomized round: build a series with random codec / page size /
/// tail / OOO buffer / tombstones / TTL (and NaNs when float), mirror every
/// accepted write into the scalar oracle, and run one random query —
/// aggregate (any of the six, VAR included), select or windowed, with time
/// bounds and value filters. The
/// engine's answer must equal the oracle's. The series envelope must never
/// prune a live input, and whenever it keeps the input the job set must
/// equal the envelope-less walk's. Some rounds (integer and float) also
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
    // A late batch: the OOO prefix lands in the overlap buffer (invisible
    // to queries, but it still widens the envelope — conservatively).
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

  // (a) The envelope never prunes a live input, and when it keeps the
  // input the shared page walk schedules exactly the envelope-less jobs.
  auto snap = store.GetSnapshot("s");
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(snap.value().envelope.has_value());
  std::vector<SeriesSnapshot> inputs{snap.value()};
  std::vector<SeriesSnapshot> bare{snap.value()};
  bare[0].envelope.reset();
  auto spec = BuildPipeline(plan, inputs, base);
  auto spec_bare = BuildPipeline(plan, bare, base);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(spec_bare.ok());
  EXPECT_EQ(spec_bare.value().plan_stats.series_pruned, 0u);
  if (spec.value().plan_stats.series_pruned > 0) {
    EXPECT_EQ(truth.Matching(plan), 0u)
        << "round " << round << ": envelope pruned a live input";
    EXPECT_TRUE(spec.value().jobs.empty()) << "round " << round;
  } else {
    EXPECT_EQ(JobSet(spec.value()), JobSet(spec_bare.value()))
        << "round " << round << " job sets diverge";
    EXPECT_EQ(spec.value().plan_stats.pages_pruned,
              spec_bare.value().plan_stats.pages_pruned)
        << "round " << round;
  }

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
    EXPECT_EQ(fstats.pages_pruned, spec_bare.value().plan_stats.pages_pruned)
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
  EXPECT_EQ(simd::BestPruneIsa(), simd::PruneIsa::kScalar);
  for (uint64_t round = 0; round < 32; ++round) {
    RunFuzzRound(round);
  }
  SetSimdDisabledForTesting(false);
}

// Index counters flow into ExecStats and the rendered profile.
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
  Engine engine(PipelineOptions::Etsqp(1).WithStats(true));
  auto result = engine.Execute(plan, store);
  ASSERT_TRUE(result.ok());
  const exec::ExecStats& stats = result.value().stats;
  EXPECT_EQ(stats.series_pruned, 1u);
  EXPECT_EQ(stats.pages_pruned, 4u);
  EXPECT_EQ(stats.pages_total, 4u);
  EXPECT_EQ(stats.tuples_in_pages, 64u);
  // Aggregates always emit one row; the empty-match sum is 0.
  ASSERT_EQ(result.value().columns[0].size(), 1u);
  EXPECT_EQ(result.value().columns[0][0], 0.0);
  // JSON export carries the counters.
  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"series_pruned\": 1"), std::string::npos);
  // And the profile's index line.
  exec::LogicalPlan analyze = plan;
  analyze.explain = LogicalPlan::ExplainMode::kAnalyze;
  auto explained = engine.Execute(analyze, store);
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained.value().explain_text.find("series_pruned=1"),
            std::string::npos)
      << explained.value().explain_text;
}

}  // namespace
}  // namespace etsqp
