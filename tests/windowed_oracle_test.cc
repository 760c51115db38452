// Sliding-window aggregates against the scalar oracle. Pages of 2048-4096
// points hold several TS2DIFF time blocks, some with a constant interval
// (width-0 residuals, positioned by Proposition 4 arithmetic) and some
// irregular (decoded once), so the window cuts, the fused readers' forward
// cursors and the flat window runs all meet block and page boundaries.
// Every round answers random windowed plans — all six aggregates, with and
// without a value filter, windows smaller than, equal to and larger than a
// block or a page, misaligned and far origins, time filters that cut
// mid-window, int64 edges of times, values and window indexes — on all four
// decode strategies at 1 and 4 threads (sliced pages), over sealed, tail
// and tombstone-masked data.
// The fused readers' cursors are also checked on their own against a
// scalar sum.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/cpu.h"
#include "encoding/delta_rle.h"
#include "encoding/ts2diff.h"
#include "exec/engine.h"
#include "exec/fusion.h"
#include "storage/series_store.h"
#include "parsed_bytes.h"
#include "scalar_oracle.h"

namespace etsqp {
namespace {

using exec::AggFunc;
using exec::Engine;
using exec::LogicalPlan;
using exec::PipelineOptions;
using oracle::SameColumns;
using oracle::SeriesOracle;

constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();

int64_t Clamp64(__int128 v) {
  return static_cast<int64_t>(
      std::clamp<__int128>(v, kI64Min, kI64Max));
}

/// `n` ascending timestamps from `t0` in segments that alternate a
/// constant interval (long enough to fill whole TS2DIFF blocks, which then
/// pack at width 0) and irregular steps of 1..100.
std::vector<int64_t> MixedTimes(std::mt19937_64& rng, size_t n, int64_t t0) {
  std::vector<int64_t> times(n);
  int64_t t = t0;
  bool regular = rng() % 2 == 0;
  for (size_t i = 0; i < n;) {
    const size_t len = 200 + rng() % 2800;
    const int64_t d = 1 + static_cast<int64_t>(rng() % 50);
    for (size_t j = 0; j < len && i < n; ++j, ++i) {
      t += regular ? d : 1 + static_cast<int64_t>(rng() % 100);
      times[i] = t;
    }
    regular = !regular;
  }
  return times;
}

/// Strategies every round runs: Schedule()'s per-class choice with and
/// without pruning (Proposition 4 cuts only under pruning), and the pinned
/// SBoost, FastLanes and Serial baselines; threads 4 slices pages.
std::vector<PipelineOptions> AllStrategies() {
  return {PipelineOptions::EtsqpPrune(1), PipelineOptions::EtsqpPrune(4),
          PipelineOptions::Etsqp(1),      PipelineOptions::Sboost(4),
          PipelineOptions::FastLanes(1).WithPrune(true),
          PipelineOptions::FastLanes(4), PipelineOptions::Serial().WithPrune(true)};
}

/// One randomized round: a series of 1-4 pages plus maybe a tail and a
/// tombstone, mirrored into the oracle, then eight windowed plans on every
/// strategy.
void RunWindowRound(uint64_t round) {
  std::mt19937_64 rng(round * 0x9E3779B97F4A7C15ull + 7);
  const bool is_float = round % 10 == 9;
  const bool edge_times = round % 7 == 3;
  const bool edge_values = !is_float && round % 5 == 2;

  storage::SeriesStore::SeriesOptions opt;
  const uint32_t page_sizes[] = {2048, 3072, 4096};
  opt.page_size = page_sizes[rng() % 3];
  const uint32_t block_sizes[] = {1024, 1024, 256, 4096};
  opt.page.block_size = block_sizes[rng() % 4];
  if (is_float) {
    opt.page.value_encoding = enc::ColumnEncoding::kGorillaValue;
  } else {
    const enc::ColumnEncoding iencs[] = {
        enc::ColumnEncoding::kTs2Diff,   enc::ColumnEncoding::kTs2Diff,
        enc::ColumnEncoding::kTs2Diff,   enc::ColumnEncoding::kDeltaRle,
        enc::ColumnEncoding::kDeltaRle,  enc::ColumnEncoding::kRlbe,
        enc::ColumnEncoding::kSprintz,   enc::ColumnEncoding::kFastLanes,
        enc::ColumnEncoding::kStreamVByte};
    opt.page.value_encoding = iencs[rng() % 9];
  }
  switch (rng() % 8) {
    case 0:
      opt.page.time_encoding = enc::ColumnEncoding::kFastLanes;
      break;
    case 1:
      opt.page.time_encoding = enc::ColumnEncoding::kDeltaRle;
      break;
    default:
      break;  // TS2DIFF
  }

  storage::SeriesStore store;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  SeriesOracle truth(is_float);

  const size_t n = opt.page_size * (1 + rng() % 3) + rng() % opt.page_size;
  const int64_t t0 = edge_times
                         ? kI64Max - 100 * static_cast<int64_t>(n) - 1000
                         : static_cast<int64_t>(rng() % 100000) - 50000;
  const std::vector<int64_t> times = MixedTimes(rng, n, t0);
  std::vector<int64_t> ivalues(n);
  std::vector<double> fvalues(n);
  const int64_t spread = 10 * static_cast<int64_t>(n) + 100;
  int64_t v = !edge_values    ? static_cast<int64_t>(rng() % 2000) - 1000
              : rng() % 2 == 0 ? kI64Max - spread
                               : kI64Min + spread;
  const bool wide = !edge_values && rng() % 6 == 0;  // residuals past 31 bits
  int64_t step = 0;
  for (size_t i = 0; i < n; ++i) {
    if (rng() % 3 != 0) step = static_cast<int64_t>(rng() % 21) - 10;
    v += wide && rng() % 64 == 0
             ? static_cast<int64_t>(rng() % (1ull << 41)) - (1ll << 40)
             : step;
    ivalues[i] = v;
    fvalues[i] = static_cast<double>(v) + 0.25 * static_cast<double>(rng() % 4);
  }
  if (is_float) {
    ASSERT_TRUE(
        store.AppendBatchF64("s", times.data(), fvalues.data(), n).ok());
    for (size_t i = 0; i < n; ++i) truth.AppendF64(times[i], fvalues[i]);
  } else {
    ASSERT_TRUE(store.AppendBatch("s", times.data(), ivalues.data(), n).ok());
    for (size_t i = 0; i < n; ++i) truth.Append(times[i], ivalues[i]);
  }
  if (rng() % 2 == 0) {  // else keep a tail
    ASSERT_TRUE(store.Flush().ok());
  }
  if (rng() % 3 == 0) {
    // A tombstone inside the data: the pages it touches drain masked.
    const size_t at = rng() % n;
    const int64_t d0 = times[at];
    const int64_t d1 = times[std::min(n - 1, at + rng() % 600)];
    ASSERT_TRUE(store.DeleteRange("s", d0, d1).ok());
    truth.DeleteRange(d0, d1);
  }

  const int64_t span = times[n - 1] - times[0];
  const int64_t avg = span / static_cast<int64_t>(n) + 1;
  const AggFunc funcs[] = {AggFunc::kSum, AggFunc::kCount, AggFunc::kMin,
                           AggFunc::kMax, AggFunc::kAvg, AggFunc::kVariance};
  for (int q = 0; q < 8; ++q) {
    // VAR squares the values: at the int64 edges neither side's 128-bit
    // sum of squares holds them.
    LogicalPlan plan =
        LogicalPlan::Aggregate("s", funcs[rng() % (edge_values ? 5 : 6)]);
    plan.window.active = true;
    switch (rng() % 6) {
      case 0:  // a few points
        plan.window.delta_t = 1 + static_cast<int64_t>(rng() % (8 * avg));
        break;
      case 1:  // smaller than a block
        plan.window.delta_t = avg * (200 + static_cast<int64_t>(rng() % 600));
        break;
      case 2:  // about a block
        plan.window.delta_t =
            avg * opt.page.block_size + static_cast<int64_t>(rng() % 64) - 32;
        break;
      case 3:  // a page or two
        plan.window.delta_t =
            avg * opt.page_size * (1 + static_cast<int64_t>(rng() % 2));
        break;
      case 4:  // the whole series in one or two windows
        plan.window.delta_t = span + 1 + static_cast<int64_t>(rng() % 1000);
        break;
      default:  // the next window starts past the int64 edge
        plan.window.delta_t = kI64Max / 2 + static_cast<int64_t>(rng() % 1000);
        break;
    }
    plan.window.delta_t = std::max<int64_t>(1, plan.window.delta_t);
    const int64_t at = times[rng() % n];
    switch (rng() % 5) {
      case 0:  // misaligned, before the data
        plan.window.t_min = times[0] - static_cast<int64_t>(rng() % 1000);
        break;
      case 4:  // far below the data: the window index can exceed int64
        plan.window.t_min = kI64Min + static_cast<int64_t>(rng() % 1000);
        break;
      case 1:
        plan.window.t_min = times[0];
        break;
      case 2:  // inside the data: earlier points drop out
        plan.window.t_min = at;
        break;
      default:
        plan.window.t_min = at - static_cast<int64_t>(rng() % 5000);
        break;
    }
    switch (rng() % 5) {
      case 0:
        break;
      case 1:  // cuts windows in the middle
        plan.time_filter.lo = at;
        plan.time_filter.hi =
            Clamp64(static_cast<__int128>(at) + rng() % (span / 2 + 1));
        break;
      case 2:
        plan.time_filter.hi = at;
        break;
      case 3:
        plan.time_filter.lo = at - static_cast<int64_t>(rng() % 100);
        break;
      default:  // one point
        plan.time_filter.lo = plan.time_filter.hi = at;
        break;
    }
    if (rng() % 2 == 0) {
      const int64_t mid = ivalues[rng() % n];
      plan.value_filter.active = true;
      plan.value_filter.lo =
          Clamp64(static_cast<__int128>(mid) - static_cast<int64_t>(rng() % 200));
      plan.value_filter.hi = Clamp64(static_cast<__int128>(plan.value_filter.lo) +
                                     static_cast<int64_t>(rng() % 300));
    }

    const std::vector<std::vector<double>> want = truth.Answer(plan);
    const bool overflow = !is_float && plan.func == AggFunc::kSum &&
                          truth.SumOutOfRange(plan);
    for (const PipelineOptions& base : AllStrategies()) {
      SCOPED_TRACE("round " + std::to_string(round) + " query " +
                   std::to_string(q) + " strategy " +
                   exec::DecodeStrategyName(base.strategy) + " threads " +
                   std::to_string(base.threads) +
                   (base.prune ? " prune" : ""));
      Engine engine(base);
      auto got = engine.Execute(plan, store);
      if (overflow) {
        EXPECT_EQ(got.status().code(), StatusCode::kOverflow);
        continue;
      }
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      std::string why;
      EXPECT_TRUE(SameColumns(got.value().columns, want, is_float, &why))
          << why;
    }
  }
}

TEST(WindowedAggregateOracleTest, FuzzAgainstOracle240Rounds) {
  for (uint64_t round = 0; round < 240; ++round) {
    RunWindowRound(round);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "first failing round: " << round;
    }
  }
}

TEST(WindowedAggregateOracleTest, ScalarFallbackWhenSimdDisabled) {
  SetSimdDisabledForTesting(true);
  for (uint64_t round = 0; round < 24; ++round) {
    RunWindowRound(round);
    if (HasFatalFailure() || HasNonfatalFailure()) break;
  }
  SetSimdDisabledForTesting(false);
}

// ------------------------------------------------ fused reader cursors

/// The ranges a cursor must survive: ascending contiguous windows that end
/// inside and exactly at block boundaries, a repeat, a backward jump, a
/// gap, empty ranges, a run to the end, and single points asked twice (a
/// repeat that starts exactly where the cursor rests).
std::vector<std::pair<size_t, size_t>> CursorRanges(std::mt19937_64& rng,
                                                    size_t n, size_t block) {
  std::vector<std::pair<size_t, size_t>> ranges;
  size_t pos = 0;
  while (pos < n) {
    size_t len = 1 + rng() % (2 * block);
    if (rng() % 4 == 0) len = block - pos % block;  // to a block boundary
    const size_t end = std::min(n, pos + len);
    ranges.emplace_back(pos, end);
    if (rng() % 8 == 0) ranges.emplace_back(pos, end);  // repeated
    if (rng() % 8 == 0) ranges.emplace_back(end, end);  // empty
    pos = end;
  }
  ranges.emplace_back(n / 3, n / 2);          // backward
  ranges.emplace_back(n / 2 + 17, n / 2 + 900);  // gap
  ranges.emplace_back(n / 2 + 900, n);        // resume to the end
  ranges.emplace_back(0, n);
  for (size_t a = 0; a < 200; ++a) {  // single points, each asked twice
    ranges.emplace_back(a, a + 1);
    ranges.emplace_back(a, a + 1);
  }
  return ranges;
}

/// Random walk whose blocks alternate constant steps (width-0 residuals)
/// and noisy ones.
std::vector<int64_t> WalkValues(std::mt19937_64& rng, size_t n, int64_t v,
                                size_t block) {
  std::vector<int64_t> values(n);
  for (size_t i = 0; i < n; ++i) {
    const bool flat = (i / block) % 3 == 1;
    v += flat ? 3 : static_cast<int64_t>(rng() % 41) - 20;
    values[i] = v;
  }
  return values;
}

TEST(WindowedAggregateOracleTest, Ts2DiffReaderCursorMatchesScalarSum) {
  std::mt19937_64 rng(71);
  constexpr size_t kBlock = 128;
  const std::vector<int64_t> values = WalkValues(rng, 3000, -4000, kBlock);
  ParsedBytes col = ParseBytes(
      enc::Ts2DiffEncoder(kBlock).Encode(values.data(), values.size()));
  ASSERT_TRUE(col.status.ok());
  exec::Ts2DiffFusedReader reader(col.col.As<enc::Ts2DiffColumn>());
  for (const auto& [a, b] : CursorRanges(rng, values.size(), kBlock)) {
    int64_t want = 0;
    for (size_t i = a; i < b; ++i) want += values[i];
    int64_t got = -1;
    ASSERT_TRUE(reader.SumRange(a, b, &got).ok()) << a << ":" << b;
    EXPECT_EQ(got, want) << a << ":" << b;
  }
}

TEST(WindowedAggregateOracleTest, Ts2DiffReaderCursorSurvivesOverflow) {
  // Values near INT64_MAX / 3: a range of 4+ overflows. The failed range
  // leaves no stale cursor behind: the next ranges are exact.
  std::vector<int64_t> values(300);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = kI64Max / 3 + static_cast<int64_t>(i % 7);
  }
  ParsedBytes col = ParseBytes(
      enc::Ts2DiffEncoder(64).Encode(values.data(), values.size()));
  ASSERT_TRUE(col.status.ok());
  exec::Ts2DiffFusedReader reader(col.col.As<enc::Ts2DiffColumn>());
  int64_t out = 0;
  ASSERT_TRUE(reader.SumRange(0, 1, &out).ok());
  EXPECT_EQ(out, values[0]);
  EXPECT_EQ(reader.SumRange(1, 200, &out).code(),
            StatusCode::kOverflow);
  for (size_t a : {1ul, 63ul, 64ul, 65ul, 200ul}) {
    ASSERT_TRUE(reader.SumRange(a, a + 2, &out).ok()) << a;
    EXPECT_EQ(out, values[a] + values[a + 1]) << a;
  }
}

TEST(WindowedAggregateOracleTest, DeltaRleReaderCursorMatchesScalarSums) {
  std::mt19937_64 rng(73);
  constexpr size_t kRuns = 200;
  std::vector<int64_t> values(5000);
  int64_t v = 900, d = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (rng() % 5 == 0) d = static_cast<int64_t>(rng() % 9) - 4;
    v += d;
    values[i] = v;
  }
  ParsedBytes col =
      ParseBytes(enc::DeltaRleEncoder().Encode(values.data(), values.size()));
  ASSERT_TRUE(col.status.ok());
  Result<exec::DeltaRleFusedReader> reader =
      exec::DeltaRleFusedReader::Open(col.col.As<enc::DeltaRleColumn>());
  ASSERT_TRUE(reader.ok());
  for (const auto& [a, b] : CursorRanges(rng, values.size(), kRuns)) {
    __int128 sum = 0, sq = 0;
    for (size_t i = a; i < b; ++i) {
      sum += values[i];
      sq += static_cast<__int128>(values[i]) * values[i];
    }
    exec::DeltaRleAggregates agg;
    ASSERT_TRUE(reader.value().Aggregate(a, b, true, &agg).ok());
    EXPECT_EQ(agg.sum, static_cast<int64_t>(sum)) << a << ":" << b;
    EXPECT_TRUE(agg.sum_sq == sq) << a << ":" << b;
    EXPECT_EQ(agg.count, b - a) << a << ":" << b;
  }
  // An overflowing range reports kOverflow and the cursor stays usable.
  std::vector<int64_t> big(100, kI64Max / 2);
  for (size_t i = 1; i < big.size(); ++i) big[i] = big[i - 1] + 1;
  ParsedBytes bcol =
      ParseBytes(enc::DeltaRleEncoder().Encode(big.data(), big.size()));
  ASSERT_TRUE(bcol.status.ok());
  Result<exec::DeltaRleFusedReader> breader =
      exec::DeltaRleFusedReader::Open(bcol.col.As<enc::DeltaRleColumn>());
  ASSERT_TRUE(breader.ok());
  exec::DeltaRleAggregates agg;
  EXPECT_EQ(breader.value().Aggregate(10, 90, false, &agg).code(),
            StatusCode::kOverflow);
  ASSERT_TRUE(breader.value().Aggregate(90, 91, false, &agg).ok());
  EXPECT_EQ(agg.sum, big[90]);
  ASSERT_TRUE(breader.value().Aggregate(5, 6, false, &agg).ok());
  EXPECT_EQ(agg.sum, big[5]);
}

}  // namespace
}  // namespace etsqp
