// Binary plans against the scalar oracle: randomized pairs of integer
// series — different page sizes and codecs per input, disjoint, partly
// overlapping and identical time ranges, unsealed tails on either side,
// tombstone-masked pages, time and value filters — queried with
// projection, natural join, UNION and CORR on one and three engine
// threads, under kEtsqp's per-class kernel choice and pinned to the serial
// pipelines, in memory and through a FileBackedStore. Every answer must equal
// oracle::BinaryAnswer over the raw inserted points.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "exec/engine.h"
#include "exec/pipeline.h"
#include "page_encodings.h"
#include "scalar_oracle.h"
#include "storage/buffer_manager.h"
#include "storage/series_store.h"
#include "storage/tsfile.h"

namespace etsqp {
namespace {

using exec::Engine;
using exec::LogicalPlan;
using exec::PipelineOptions;
using oracle::SeriesOracle;
using storage::SeriesStore;

/// The points of one input and the store layout they are written with.
struct DrawnSeries {
  std::vector<int64_t> times;
  std::vector<int64_t> values;
  SeriesStore::SeriesOptions options;
  bool flush = true;
};

std::vector<int64_t> DrawTimes(std::mt19937_64* rng, int64_t start, size_t n) {
  std::vector<int64_t> times(n);
  int64_t t = start;
  for (size_t i = 0; i < n; ++i) {
    t += 1 + static_cast<int64_t>((*rng)() % 3);
    times[i] = t;
  }
  return times;
}

std::vector<int64_t> DrawValues(std::mt19937_64* rng, size_t n) {
  std::vector<int64_t> values(n);
  int64_t v = static_cast<int64_t>((*rng)() % 200) - 100;
  for (size_t i = 0; i < n; ++i) {
    v += static_cast<int64_t>((*rng)() % 21) - 10;
    values[i] = v;
  }
  return values;
}

SeriesStore::SeriesOptions DrawLayout(std::mt19937_64* rng) {
  const uint32_t page_sizes[] = {16, 32, 48, 64, 128, 4096};
  // Every integer encoding of the page set.
  const std::vector<enc::ColumnEncoding> codecs =
      PageEncodings(/*time_column=*/true);
  SeriesStore::SeriesOptions opt;
  opt.page_size = page_sizes[(*rng)() % 6];
  opt.page.value_encoding = codecs[(*rng)() % codecs.size()];
  return opt;
}

void Load(SeriesStore* store, const std::string& name, const DrawnSeries& s,
          SeriesOracle* truth) {
  ASSERT_TRUE(store->CreateSeries(name, s.options).ok());
  ASSERT_TRUE(store
                  ->AppendBatch(name, s.times.data(), s.values.data(),
                                s.times.size())
                  .ok());
  for (size_t i = 0; i < s.times.size(); ++i) {
    truth->Append(s.times[i], s.values[i]);
  }
  if (s.flush) {
    ASSERT_TRUE(store->Flush(name).ok());
  }
}

/// Runs `plan` under `base` on `store` and expects the oracle's answer
/// over `tl` and `tr`; a file round also writes the store to a TsFile
/// (named from `file_prefix` and the round) and queries it through a
/// FileBackedStore. `stats` receives the in-memory run's counters.
void ExpectOracleAnswer(const LogicalPlan& plan, const SeriesStore& store,
                        const SeriesOracle& tl, const SeriesOracle& tr,
                        const PipelineOptions& base,
                        const std::string& file_prefix, uint64_t round,
                        bool file_round, exec::ExecStats* stats) {
  bool overflow = false;
  const std::vector<std::vector<double>> want =
      oracle::BinaryAnswer(plan, tl, tr, &overflow);
  ASSERT_FALSE(overflow) << "round " << round << ": values are drawn small";
  const bool approx = plan.kind == LogicalPlan::Kind::kCorrelate;
  Engine engine(base);
  auto got = engine.Execute(plan, store);
  ASSERT_TRUE(got.ok()) << "round " << round << ": " << got.status().ToString();
  std::string why;
  EXPECT_TRUE(oracle::SameColumns(got.value().columns, want, approx, &why))
      << "round " << round << ": " << why;
  *stats = got.value().stats;

  if (file_round) {
    const std::string path = ::testing::TempDir() + "/" + file_prefix +
                             std::to_string(round) + ".tsfile";
    ASSERT_TRUE(storage::WriteTsFile(store, path).ok());
    storage::FileBackedStore file;
    ASSERT_TRUE(file.Open(path).ok());
    auto from_file = engine.Execute(plan, &file);
    ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
    EXPECT_TRUE(
        oracle::SameColumns(from_file.value().columns, want, approx, &why))
        << "round " << round << " (file): " << why;
    std::remove(path.c_str());
  }
}

/// One randomized round; every eighth goes through a FileBackedStore too.
void RunMergeRound(uint64_t round) {
  std::mt19937_64 rng(round * 0x9E3779B97F4A7C15ull + 23);
  const bool file_round = round % 8 == 7;

  DrawnSeries l, r;
  l.options = DrawLayout(&rng);
  r.options = DrawLayout(&rng);
  l.times = DrawTimes(&rng, static_cast<int64_t>(rng() % 50), 20 + rng() % 250);
  const size_t nl = l.times.size();
  switch (rng() % 3) {
    case 0: {  // disjoint: the right input entirely after (or before) the left
      const size_t nr = 20 + rng() % 250;
      r.times = DrawTimes(
          &rng, l.times.back() + 1 + static_cast<int64_t>(rng() % 20), nr);
      if (rng() % 2 == 0) std::swap(l.times, r.times);
      break;
    }
    case 1:  // partly overlapping, with timestamps in common
      r.times = DrawTimes(
          &rng, l.times[rng() % nl] - static_cast<int64_t>(rng() % 10),
          20 + rng() % 250);
      break;
    default:  // identical timestamps; half the time a fusable CORR layout
      r.times = l.times;
      if (rng() % 2 == 0) {
        r.options.page_size = l.options.page_size;
        l.options.page.value_encoding = enc::ColumnEncoding::kDeltaRle;
        r.options.page.value_encoding = enc::ColumnEncoding::kDeltaRle;
      }
      break;
  }
  l.values = DrawValues(&rng, l.times.size());
  r.values = DrawValues(&rng, r.times.size());
  if (rng() % 4 == 0) {
    // Some equal values, so '=' keeps pairs.
    for (size_t i = 0; i < std::min(l.values.size(), r.values.size()); i += 3) {
      r.values[i] = l.values[i];
    }
  }
  l.flush = file_round || rng() % 2 == 0;  // else keep a live tail
  r.flush = file_round || rng() % 2 == 0;

  SeriesStore store;
  SeriesOracle tl(false), tr(false);
  Load(&store, "l", l, &tl);
  Load(&store, "r", r, &tr);
  if (!file_round) {
    for (int side = 0; side < 2; ++side) {
      if (rng() % 4 != 0) continue;
      const DrawnSeries& s = side == 0 ? l : r;
      const int64_t d0 = s.times[rng() % s.times.size()];
      const int64_t d1 = d0 + static_cast<int64_t>(rng() % 40);
      ASSERT_TRUE(store.DeleteRange(side == 0 ? "l" : "r", d0, d1).ok());
      (side == 0 ? tl : tr).DeleteRange(d0, d1);
    }
  }

  LogicalPlan plan;
  plan.series = "l";
  plan.series_right = "r";
  const LogicalPlan::Kind kinds[] = {
      LogicalPlan::Kind::kProjectBinary, LogicalPlan::Kind::kJoin,
      LogicalPlan::Kind::kUnion, LogicalPlan::Kind::kCorrelate};
  plan.kind = kinds[rng() % 4];
  plan.binary_op = "+-*"[rng() % 3];
  if (plan.kind == LogicalPlan::Kind::kProjectBinary ||
      plan.kind == LogicalPlan::Kind::kJoin) {
    const char ops[] = {0, '<', '>', '='};
    plan.inter_column_op = ops[rng() % 4];
  }
  const std::vector<int64_t>& anchor = rng() % 2 == 0 ? l.times : r.times;
  switch (rng() % 4) {
    case 0:
    case 1:  // no time filter
      break;
    case 2:  // from an inserted point onwards
      plan.time_filter.lo = anchor[rng() % anchor.size()];
      break;
    default:
      plan.time_filter.lo =
          anchor[rng() % anchor.size()] - static_cast<int64_t>(rng() % 20);
      plan.time_filter.hi =
          plan.time_filter.lo + static_cast<int64_t>(rng() % 400);
      break;
  }
  if (rng() % 3 == 0) {
    plan.value_filter.active = true;
    plan.value_filter.lo = static_cast<int64_t>(rng() % 200) - 150;
    plan.value_filter.hi =
        plan.value_filter.lo + static_cast<int64_t>(rng() % 150);
  }

  // kEtsqp's per-class kernels versus the pinned serial scalar pipelines,
  // on one and three engine threads.
  PipelineOptions base = round % 2 == 0 ? PipelineOptions::Etsqp(1)
                                        : PipelineOptions::Serial();
  base.WithThreads((round / 2) % 2 == 0 ? 1 : 3).WithPrune(rng() % 2 == 0);

  exec::ExecStats stats;
  ExpectOracleAnswer(plan, store, tl, tr, base, "merge_node_", round,
                     file_round, &stats);
}

TEST(MergeNodeOracleTest, BinaryPlansMatchScalarOracle) {
  for (uint64_t round = 0; round < 1200; ++round) {
    RunMergeRound(round);
    if (::testing::Test::HasFailure()) break;
  }
}

/// One randomized round on one clock: the right input is drawn on the
/// left's exact times, at the left's page size in three rounds of four (so
/// its sealed page pairs share a clock) and at another page size otherwise
/// (every pair falls back to the merge kernels). Tails, a tombstone on one
/// side, filters, every plan kind (CORR and projection with an
/// inter-column predicate too), kEtsqp, kSboost and kSerial, one and three
/// threads; every eighth round goes through a FileBackedStore too. Adds
/// the round's shared pairs to `*shared`.
void RunSharedClockRound(uint64_t round, uint64_t* shared) {
  std::mt19937_64 rng(round * 0xD1B54A32D192ED03ull + 5);
  const bool file_round = round % 8 == 7;

  DrawnSeries l, r;
  l.options = DrawLayout(&rng);
  r.options = DrawLayout(&rng);
  r.options.page_size = rng() % 4 != 0 ? l.options.page_size
                                       : l.options.page_size + 16;
  l.times = DrawTimes(&rng, static_cast<int64_t>(rng() % 50), 20 + rng() % 400);
  r.times = l.times;
  l.values = DrawValues(&rng, l.times.size());
  r.values = DrawValues(&rng, r.times.size());
  if (rng() % 4 == 0) {
    for (size_t i = 0; i < r.values.size(); i += 3) r.values[i] = l.values[i];
  }
  l.flush = file_round || rng() % 4 != 0;  // else keep a live tail
  r.flush = file_round || rng() % 4 != 0;

  SeriesStore store;
  SeriesOracle tl(false), tr(false);
  Load(&store, "l", l, &tl);
  Load(&store, "r", r, &tr);
  if (!file_round && rng() % 4 == 0) {
    const int side = static_cast<int>(rng() % 2);
    const int64_t d0 = l.times[rng() % l.times.size()];
    const int64_t d1 = d0 + static_cast<int64_t>(rng() % 40);
    ASSERT_TRUE(store.DeleteRange(side == 0 ? "l" : "r", d0, d1).ok());
    (side == 0 ? tl : tr).DeleteRange(d0, d1);
  }

  LogicalPlan plan;
  plan.series = "l";
  plan.series_right = "r";
  const LogicalPlan::Kind kinds[] = {
      LogicalPlan::Kind::kProjectBinary, LogicalPlan::Kind::kJoin,
      LogicalPlan::Kind::kUnion, LogicalPlan::Kind::kCorrelate};
  plan.kind = kinds[rng() % 4];
  plan.binary_op = "+-*"[rng() % 3];
  if (plan.kind != LogicalPlan::Kind::kUnion) {
    const char ops[] = {0, '<', '>', '='};
    plan.inter_column_op = ops[rng() % 4];
  }
  switch (rng() % 3) {
    case 0:  // no time filter
      break;
    case 1:  // from an inserted point onwards
      plan.time_filter.lo = l.times[rng() % l.times.size()];
      break;
    default:
      plan.time_filter.lo = l.times[rng() % l.times.size()] -
                            static_cast<int64_t>(rng() % 20);
      plan.time_filter.hi =
          plan.time_filter.lo + static_cast<int64_t>(rng() % 400);
      break;
  }
  if (rng() % 3 == 0) {
    plan.value_filter.active = true;
    plan.value_filter.lo = static_cast<int64_t>(rng() % 200) - 150;
    plan.value_filter.hi =
        plan.value_filter.lo + static_cast<int64_t>(rng() % 150);
  }

  const PipelineOptions strategies[] = {PipelineOptions::Etsqp(),
                                        PipelineOptions::Sboost(),
                                        PipelineOptions::Serial()};
  PipelineOptions base = strategies[round % 3];
  base.WithThreads((round / 3) % 2 == 0 ? 1 : 3).WithPrune(rng() % 2 == 0);

  exec::ExecStats stats;
  ExpectOracleAnswer(plan, store, tl, tr, base, "merge_node_shared_", round,
                     file_round, &stats);
  if (base.strategy == exec::DecodeStrategy::kSerial) {
    EXPECT_EQ(stats.merge_pairs_shared, 0u) << "round " << round;
  }
  *shared += stats.merge_pairs_shared;
}

TEST(MergeNodeOracleTest, SharedClockPairsMatchScalarOracle) {
  uint64_t shared = 0;
  for (uint64_t round = 0; round < 900; ++round) {
    RunSharedClockRound(round, &shared);
    if (::testing::Test::HasFailure()) break;
  }
  // The rounds must reach the shared-clock path, not only the fallback.
  EXPECT_GT(shared, 500u);
}

// --- Header shortcuts (Figure 9): pages the other input cannot match are
// never decoded, and identical CORR page pairs aggregate in closed form.

/// Two series of `n` points at a 10-tick step, `pages` points per page,
/// with Delta-RLE values; `b` starts at `b_offset` ticks after `a`.
struct PairFixture {
  SeriesStore store;
  SeriesOracle ta{false}, tb{false};
  std::vector<int64_t> tb_times;
};

void MakePair(PairFixture* f, size_t n, uint32_t page_size, int64_t b_offset) {
  SeriesStore::SeriesOptions opt;
  opt.page_size = page_size;
  opt.page.value_encoding = enc::ColumnEncoding::kDeltaRle;
  std::vector<int64_t> t(n), va(n), vb(n);
  std::mt19937_64 rng(7);
  int64_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    t[i] = 1000 + static_cast<int64_t>(i) * 10;
    if (i % 8 == 0) v += static_cast<int64_t>(rng() % 21) - 10;
    va[i] = v;
    vb[i] = 3 * v + static_cast<int64_t>(rng() % 5);
  }
  f->tb_times = t;
  for (int64_t& x : f->tb_times) x += b_offset;
  ASSERT_TRUE(f->store.CreateSeries("a", opt).ok());
  ASSERT_TRUE(f->store.CreateSeries("b", opt).ok());
  ASSERT_TRUE(f->store.AppendBatch("a", t.data(), va.data(), n).ok());
  ASSERT_TRUE(
      f->store.AppendBatch("b", f->tb_times.data(), vb.data(), n).ok());
  ASSERT_TRUE(f->store.Flush().ok());
  for (size_t i = 0; i < n; ++i) {
    f->ta.Append(t[i], va[i]);
    f->tb.Append(f->tb_times[i], vb[i]);
  }
}

LogicalPlan PairPlan(LogicalPlan::Kind kind, std::string left = "a",
                     std::string right = "b") {
  LogicalPlan plan;
  plan.kind = kind;
  plan.series = std::move(left);
  plan.series_right = std::move(right);
  return plan;
}

TEST(MergeNodeTest, DisjointJoinDecodesNothing) {
  PairFixture f;
  MakePair(&f, 5000, 500, 1000000);  // b starts long after a ends
  for (int threads : {1, 3}) {
    for (LogicalPlan::Kind kind :
         {LogicalPlan::Kind::kJoin, LogicalPlan::Kind::kProjectBinary,
          LogicalPlan::Kind::kCorrelate}) {
      auto r = Engine(PipelineOptions::Etsqp(threads))
                   .Execute(PairPlan(kind), f.store);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value().num_rows(), 0u);
      EXPECT_EQ(r.value().stats.tuples_scanned, 0u);
      EXPECT_EQ(r.value().stats.merge_pages_skipped, 20u);
    }
  }
  // UNION needs every tuple; the disjoint pages concatenate.
  auto u = Engine(PipelineOptions::Etsqp(1))
               .Execute(PairPlan(LogicalPlan::Kind::kUnion), f.store);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.value().num_rows(), 10000u);
  EXPECT_EQ(u.value().stats.merge_pages_skipped, 0u);
}

TEST(MergeNodeTest, CorrFusesEveryIdenticalPagePair) {
  // Page 3 of b (points 1500..1999) carries one shifted timestamp, so only
  // that pair decodes; the other nine fuse. Steps cycle through 8..12 and
  // the shift keeps them there, so the two encoded time columns of that
  // pair differ in content, not in length.
  PairFixture f;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 500;
  opt.page.value_encoding = enc::ColumnEncoding::kDeltaRle;
  const size_t n = 5000;
  std::vector<int64_t> t(n), tb(n), va(n), vb(n);
  int64_t time = 1000;
  for (size_t i = 0; i < n; ++i) {
    time += 8 + static_cast<int64_t>(i % 5);
    t[i] = tb[i] = time;
    va[i] = static_cast<int64_t>(i % 97);
    vb[i] = static_cast<int64_t>((i * 7) % 31);
  }
  tb[1700] += 1;
  ASSERT_TRUE(f.store.CreateSeries("a", opt).ok());
  ASSERT_TRUE(f.store.CreateSeries("b", opt).ok());
  ASSERT_TRUE(f.store.AppendBatch("a", t.data(), va.data(), n).ok());
  ASSERT_TRUE(f.store.AppendBatch("b", tb.data(), vb.data(), n).ok());
  ASSERT_TRUE(f.store.Flush().ok());
  for (size_t i = 0; i < n; ++i) {
    f.ta.Append(t[i], va[i]);
    f.tb.Append(tb[i], vb[i]);
  }
  const LogicalPlan plan = PairPlan(LogicalPlan::Kind::kCorrelate);
  bool overflow = false;
  const auto want = oracle::BinaryAnswer(plan, f.ta, f.tb, &overflow);
  ASSERT_EQ(want[2][0], static_cast<double>(n - 1));
  for (int threads : {1, 3}) {
    auto r = Engine(PipelineOptions::Etsqp(threads)).Execute(plan, f.store);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::string why;
    EXPECT_TRUE(oracle::SameColumns(r.value().columns, want, true, &why))
        << why;
    EXPECT_EQ(r.value().stats.merge_pairs_fused, 9u);
    // The differing pair decodes both columns of both pages.
    EXPECT_EQ(r.value().stats.tuples_scanned, 2u * (500 + 500));
  }
  // The serial baseline never fuses.
  auto serial = Engine(PipelineOptions::Serial()).Execute(plan, f.store);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial.value().stats.merge_pairs_fused, 0u);
  EXPECT_EQ(serial.value().stats.tuples_scanned, 4u * n);
}

TEST(MergeNodeTest, FileBackedCorrFuses) {
  PairFixture f;
  MakePair(&f, 4000, 1000, 0);
  const std::string path = ::testing::TempDir() + "/merge_node_corr.tsfile";
  ASSERT_TRUE(storage::WriteTsFile(f.store, path).ok());
  storage::FileBackedStore file;
  ASSERT_TRUE(file.Open(path).ok());
  const LogicalPlan plan = PairPlan(LogicalPlan::Kind::kCorrelate);
  auto r = Engine(PipelineOptions::Etsqp(1)).Execute(plan, &file);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool overflow = false;
  std::string why;
  EXPECT_TRUE(oracle::SameColumns(
      r.value().columns, oracle::BinaryAnswer(plan, f.ta, f.tb, &overflow),
      true, &why))
      << why;
  EXPECT_EQ(r.value().stats.merge_pairs_fused, 4u);
  EXPECT_EQ(r.value().stats.tuples_scanned, 0u);
  std::remove(path.c_str());
}

TEST(MergeNodeTest, ExplainAnalyzeShowsShortcuts) {
  PairFixture f;
  MakePair(&f, 2000, 500, 1000000);
  LogicalPlan plan = PairPlan(LogicalPlan::Kind::kJoin);
  plan.explain = LogicalPlan::ExplainMode::kAnalyze;
  auto r = Engine(PipelineOptions::Etsqp(1)).Execute(plan, f.store);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().explain_text.find("merge: pages_skipped=8 pairs_fused=0"),
            std::string::npos)
      << r.value().explain_text;
}


// --- Shared clocks: a page pair on one clock decodes its time column once
// and writes its rows without the merge kernels.

/// Series a = {10, 20, 30, 40} and b = {15, 15, 35, 35} at t = 1..4, the
/// hand-computed fixture. `sealed` flushes both into one page each, a
/// shared-clock pair; otherwise both stay in the unsealed tail.
void MakeSmallPair(SeriesStore* store, bool sealed,
                   enc::ColumnEncoding venc = enc::ColumnEncoding::kTs2Diff) {
  SeriesStore::SeriesOptions opt;
  opt.page.value_encoding = venc;
  const int64_t t[] = {1, 2, 3, 4};
  const int64_t va[] = {10, 20, 30, 40};
  const int64_t vb[] = {15, 15, 35, 35};
  ASSERT_TRUE(store->CreateSeries("a", opt).ok());
  ASSERT_TRUE(store->CreateSeries("b", opt).ok());
  ASSERT_TRUE(store->AppendBatch("a", t, va, 4).ok());
  ASSERT_TRUE(store->AppendBatch("b", t, vb, 4).ok());
  if (sealed) {
    ASSERT_TRUE(store->Flush().ok());
  }
}

TEST(MergeNodeTest, CorrAppliesInterColumnPredicate) {
  // a < b keeps t = 1 (10, 15) and t = 3 (30, 35): n = 2, means 20 and 25,
  // cov = (150 + 1050) / 2 - 20 * 25 = 100, both variances 100, corr = 1.
  LogicalPlan plan = PairPlan(LogicalPlan::Kind::kCorrelate);
  plan.inter_column_op = '<';
  for (bool sealed : {true, false}) {
    SeriesStore store;
    MakeSmallPair(&store, sealed, enc::ColumnEncoding::kDeltaRle);
    for (const PipelineOptions& opt :
         {PipelineOptions::Etsqp(), PipelineOptions::Serial()}) {
      auto r = Engine(opt).Execute(plan, store);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r.value().columns.size(), 3u);
      ASSERT_EQ(r.value().num_rows(), 1u);
      EXPECT_NEAR(r.value().columns[0][0], 1.0, 1e-12);
      EXPECT_DOUBLE_EQ(r.value().columns[1][0], 100.0);
      EXPECT_DOUBLE_EQ(r.value().columns[2][0], 2.0);
      // The Delta-RLE closed form sums every pair, so it stands down.
      EXPECT_EQ(r.value().stats.merge_pairs_fused, 0u);
    }
  }
  // Without the predicate the sealed pair fuses, over all four pairs.
  SeriesStore store;
  MakeSmallPair(&store, true, enc::ColumnEncoding::kDeltaRle);
  auto all = Engine(PipelineOptions::Etsqp())
                 .Execute(PairPlan(LogicalPlan::Kind::kCorrelate), store);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().stats.merge_pairs_fused, 1u);
  EXPECT_DOUBLE_EQ(all.value().columns[2][0], 4.0);
}

TEST(MergeNodeTest, SharedClockUnionIsLeftFirst) {
  const std::vector<std::vector<double>> want = {
      {1, 1, 2, 2, 3, 3, 4, 4}, {10, 15, 20, 15, 30, 35, 40, 35}};
  for (bool sealed : {true, false}) {
    SeriesStore store;
    MakeSmallPair(&store, sealed);
    for (const PipelineOptions& opt :
         {PipelineOptions::Etsqp(), PipelineOptions::Sboost(),
          PipelineOptions::Serial()}) {
      auto r =
          Engine(opt).Execute(PairPlan(LogicalPlan::Kind::kUnion), store);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value().columns, want);
      const bool shared =
          sealed && opt.strategy != exec::DecodeStrategy::kSerial;
      EXPECT_EQ(r.value().stats.merge_pairs_shared, shared ? 1u : 0u);
    }
  }
  // The value filter applies to each side's tuple on its own.
  SeriesStore store;
  MakeSmallPair(&store, true);
  LogicalPlan plan = PairPlan(LogicalPlan::Kind::kUnion);
  plan.value_filter.active = true;
  plan.value_filter.lo = 15;
  plan.value_filter.hi = 30;
  auto r = Engine(PipelineOptions::Etsqp()).Execute(plan, store);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().columns,
            (std::vector<std::vector<double>>{{1, 2, 2, 3}, {15, 20, 15, 30}}));
  EXPECT_EQ(r.value().stats.merge_pairs_shared, 1u);
}

TEST(MergeNodeTest, SharedClockProjectionOverflowsAtTheInt64Edge) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  SeriesStore store;
  const int64_t t[] = {1, 2};
  const int64_t va[] = {kMax, 5};
  const int64_t vb[] = {1, 1};
  ASSERT_TRUE(store.CreateSeries("a", {}).ok());
  ASSERT_TRUE(store.CreateSeries("b", {}).ok());
  ASSERT_TRUE(store.AppendBatch("a", t, va, 2).ok());
  ASSERT_TRUE(store.AppendBatch("b", t, vb, 2).ok());
  ASSERT_TRUE(store.Flush().ok());
  const Engine engine(PipelineOptions::Etsqp());
  LogicalPlan plan = PairPlan(LogicalPlan::Kind::kProjectBinary);
  plan.binary_op = '+';
  auto sum = engine.Execute(plan, store);
  ASSERT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kOverflow);
  // kMax - 1 fits; so does kMax + 1 once the value filter drops it.
  plan.binary_op = '-';
  auto diff = engine.Execute(plan, store);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_EQ(diff.value().columns[1],
            (std::vector<double>{static_cast<double>(kMax - 1), 4}));
  EXPECT_EQ(diff.value().stats.merge_pairs_shared, 1u);
  plan.binary_op = '+';
  plan.value_filter.active = true;
  plan.value_filter.hi = 100;
  auto kept = engine.Execute(plan, store);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(kept.value().columns,
            (std::vector<std::vector<double>>{{2}, {6}}));
  // So does a pair the inter-column predicate drops.
  plan.value_filter = {};
  plan.inter_column_op = '<';
  auto dropped = engine.Execute(plan, store);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(dropped.value().num_rows(), 0u);
}

TEST(MergeNodeTest, SharedClockSkipsTheMergeKernels) {
  // Ten page pairs on one clock; b's point 1700 is shifted by one tick, so
  // page pair 3 (points 1500..1999) differs inside and falls back to the
  // merge kernels. Steps cycle through 8..12 and the shift keeps them
  // there, so the two encoded time columns differ in content, not length.
  PairFixture f;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 500;
  const size_t n = 5000;
  std::vector<int64_t> t(n), tb(n), va(n), vb(n);
  int64_t time = 1000;
  for (size_t i = 0; i < n; ++i) {
    time += 8 + static_cast<int64_t>(i % 5);
    t[i] = tb[i] = time;
    va[i] = static_cast<int64_t>(i % 97);
    vb[i] = static_cast<int64_t>((i * 7) % 31);
  }
  tb[1700] += 1;
  ASSERT_TRUE(f.store.CreateSeries("a", opt).ok());
  ASSERT_TRUE(f.store.CreateSeries("b", opt).ok());
  ASSERT_TRUE(f.store.AppendBatch("a", t.data(), va.data(), n).ok());
  ASSERT_TRUE(f.store.AppendBatch("b", tb.data(), vb.data(), n).ok());
  ASSERT_TRUE(f.store.Flush().ok());
  for (size_t i = 0; i < n; ++i) {
    f.ta.Append(t[i], va[i]);
    f.tb.Append(tb[i], vb[i]);
  }
  for (LogicalPlan::Kind kind :
       {LogicalPlan::Kind::kJoin, LogicalPlan::Kind::kProjectBinary,
        LogicalPlan::Kind::kUnion, LogicalPlan::Kind::kCorrelate}) {
    const LogicalPlan plan = PairPlan(kind);
    bool overflow = false;
    const auto want = oracle::BinaryAnswer(plan, f.ta, f.tb, &overflow);
    for (int threads : {1, 3}) {
      auto r = Engine(PipelineOptions::Etsqp(threads)).Execute(plan, f.store);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      std::string why;
      EXPECT_TRUE(oracle::SameColumns(
          r.value().columns, want, kind == LogicalPlan::Kind::kCorrelate,
          &why))
          << why;
      EXPECT_EQ(r.value().stats.merge_pairs_shared, 9u);
      EXPECT_EQ(r.value().stats.merge_pairs_fused, 0u);
      // Shared pairs decode three columns, the differing pair four.
      EXPECT_EQ(r.value().stats.tuples_scanned, 3u * 4500 + 4u * 500);
    }
  }
  // The serial reference decodes every column and shares nothing.
  const LogicalPlan join = PairPlan(LogicalPlan::Kind::kJoin);
  auto serial = Engine(PipelineOptions::Serial()).Execute(join, f.store);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial.value().stats.merge_pairs_shared, 0u);
  EXPECT_EQ(serial.value().stats.tuples_scanned, 4u * n);
  // The counter reaches the stats JSON and the EXPLAIN ANALYZE merge line.
  auto traced = Engine(PipelineOptions::Etsqp().WithStats(true))
                    .Execute(join, f.store);
  ASSERT_TRUE(traced.ok());
  EXPECT_NE(traced.value().stats.ToJson().find("\"merge_pairs_shared\": 9"),
            std::string::npos);
  LogicalPlan analyzed = join;
  analyzed.explain = LogicalPlan::ExplainMode::kAnalyze;
  auto text = Engine(PipelineOptions::Etsqp()).Execute(analyzed, f.store);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text.value().explain_text.find(
                "merge: pages_skipped=0 pairs_fused=0 pairs_shared=9"),
            std::string::npos)
      << text.value().explain_text;
}

}  // namespace
}  // namespace etsqp
