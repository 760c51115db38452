#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/aligned_buffer.h"
#include "common/cpu.h"

#include "encoding/delta_rle.h"
#include "encoding/fastlanes.h"
#include "encoding/rlbe.h"
#include "encoding/ts2diff.h"
#include "exec/column_decoder.h"
#include "exec/cost_model.h"
#include "exec/fusion.h"
#include "exec/pipeline.h"
#include "exec/pipeline_job.h"
#include "exec/pruning.h"
#include "exec/scheduler.h"
#include "parsed_bytes.h"
#include "storage/page_builder.h"

namespace etsqp::exec {
namespace {

std::vector<int64_t> RandomWalk(size_t n, uint64_t seed, int64_t start,
                                int64_t step_range) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> v(n);
  int64_t x = start;
  for (auto& y : v) {
    x += static_cast<int64_t>(rng() % (2 * step_range + 1)) - step_range;
    y = x;
  }
  return v;
}

std::vector<int64_t> RunnyWalk(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> v;
  v.reserve(n);
  int64_t x = 0;
  while (v.size() < n) {
    int64_t d = static_cast<int64_t>(rng() % 11) - 5;
    size_t run = 1 + rng() % 60;
    for (size_t k = 0; k < run && v.size() < n; ++k) {
      x += d;
      v.push_back(x);
    }
  }
  return v;
}

// ----------------------------------------------------------- ColumnDecoder

struct DecoderCase {
  enc::ColumnEncoding encoding;
  DecodeStrategy strategy;
};

// Printed instead of the struct's raw bytes, whose padding is uninitialized:
// CMake names the discovered tests after this text, so it must be stable.
void PrintTo(const DecoderCase& c, std::ostream* os) {
  *os << enc::ColumnEncodingName(c.encoding) << "-"
      << DecodeStrategyName(c.strategy);
}

class ColumnDecoderTest : public ::testing::TestWithParam<DecoderCase> {};

TEST_P(ColumnDecoderTest, MatchesReferenceDecode) {
  DecoderCase c = GetParam();
  std::vector<int64_t> values = RandomWalk(5000, 17, 100000, 300);
  storage::PageOptions opt;
  opt.value_encoding = c.encoding;
  std::vector<int64_t> times(values.size());
  for (size_t i = 0; i < times.size(); ++i) times[i] = 1000 + 10 * i;
  Result<storage::Page> page =
      storage::BuildPage(times.data(), values.data(), values.size(), opt);
  ASSERT_TRUE(page.ok());

  DecodedColumn col;
  ASSERT_TRUE(DecodeColumn(page.value().value_col, c.strategy, &col).ok());
  ASSERT_EQ(col.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(col.Get(i), values[i]) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ColumnDecoderTest,
    ::testing::Values(
        DecoderCase{enc::ColumnEncoding::kTs2Diff, DecodeStrategy::kEtsqp},
        DecoderCase{enc::ColumnEncoding::kTs2Diff, DecodeStrategy::kSerial},
        DecoderCase{enc::ColumnEncoding::kTs2Diff, DecodeStrategy::kSboost},
        DecoderCase{enc::ColumnEncoding::kDeltaRle, DecodeStrategy::kEtsqp},
        DecoderCase{enc::ColumnEncoding::kDeltaRle, DecodeStrategy::kSerial},
        DecoderCase{enc::ColumnEncoding::kDeltaRle, DecodeStrategy::kSboost},
        DecoderCase{enc::ColumnEncoding::kRlbe, DecodeStrategy::kEtsqp},
        DecoderCase{enc::ColumnEncoding::kRlbe, DecodeStrategy::kSerial},
        DecoderCase{enc::ColumnEncoding::kSprintz, DecodeStrategy::kEtsqp},
        DecoderCase{enc::ColumnEncoding::kFastLanes,
                    DecodeStrategy::kFastLanes},
        DecoderCase{enc::ColumnEncoding::kFastLanes,
                    DecodeStrategy::kSerial},
        DecoderCase{enc::ColumnEncoding::kGorilla, DecodeStrategy::kEtsqp},
        DecoderCase{enc::ColumnEncoding::kGorilla, DecodeStrategy::kSerial},
        DecoderCase{enc::ColumnEncoding::kPlain, DecodeStrategy::kEtsqp}));

TEST(ColumnDecoderTest, RangeDecodeMatchesFull) {
  std::vector<int64_t> values = RandomWalk(4000, 19, 0, 100);
  ParsedBytes col =
      ParseBytes(enc::Ts2DiffEncoder(256).Encode(values.data(), values.size()));
  ASSERT_TRUE(col.status.ok());
  for (auto [begin, end] : {std::pair<size_t, size_t>{0, 4000},
                            {100, 200},
                            {250, 260},  // within one block
                            {200, 1300},
                            {3990, 4000},
                            {500, 500}}) {
    DecodedColumn out;
    ASSERT_TRUE(
        DecodeColumnRange(col.col, DecodeStrategy::kEtsqp, begin, end, &out)
            .ok());
    ASSERT_EQ(out.size(), end - begin);
    for (size_t i = begin; i < end; ++i) {
      ASSERT_EQ(out.Get(i - begin), values[i]) << begin << ":" << end;
    }
  }
}

TEST(ColumnDecoderTest, RangesCuttingTs2DiffBlocksMatchBlockDecode) {
  // Blocks of 256 values; the last one holds 4000 % 256 = 160. Blocks inside
  // a range decode in place, blocks a range cuts go through a buffer.
  constexpr size_t kN = 4000;
  for (int64_t step : {int64_t{100}, int64_t{200000}}) {
    std::vector<int64_t> values = RandomWalk(kN, 23 + step, 0, step);
    ParsedBytes col = ParseBytes(
        enc::Ts2DiffEncoder(256).Encode(values.data(), values.size()));
    ASSERT_TRUE(col.status.ok());
    const enc::Ts2DiffColumn& parsed = col.col.As<enc::Ts2DiffColumn>();
    std::vector<int64_t> reference(kN);
    for (const enc::Ts2DiffBlock& b : parsed.blocks()) {
      enc::Ts2DiffColumn::DecodeBlock(b, reference.data() + b.start_index);
    }
    ASSERT_EQ(reference, values);

    for (auto [begin, end] : {std::pair<size_t, size_t>{0, kN},
                              {100, 3000},
                              {256, 512},  // exactly one block
                              {255, 257},
                              {1, kN - 1},
                              {3840, kN},  // the short last block
                              {3900, kN}}) {
      for (DecodeStrategy strategy :
           {DecodeStrategy::kEtsqp, DecodeStrategy::kSerial,
            DecodeStrategy::kSboost, DecodeStrategy::kFastLanes}) {
        for (bool ordered : {true, false}) {
          DecodedColumn out;
          ASSERT_TRUE(
              DecodeColumnRange(col.col, strategy, begin, end, &out, ordered)
                  .ok());
          ASSERT_EQ(out.size(), end - begin);
          std::vector<int64_t> got(out.size());
          out.Materialize(got.data());
          for (const enc::Ts2DiffBlock& b : parsed.blocks()) {
            size_t bs = b.start_index;
            size_t be = bs + b.num_values();
            size_t from = std::max(bs, begin);
            size_t to = std::min(be, end);
            if (from >= to) continue;
            std::vector<int64_t> want(reference.begin() + from,
                                      reference.begin() + to);
            std::vector<int64_t> have(got.begin() + (from - begin),
                                      got.begin() + (to - begin));
            // Only kEtsqp's unordered decode of a whole block may permute.
            if (!ordered && strategy == DecodeStrategy::kEtsqp &&
                from == bs && to == be) {
              std::sort(want.begin(), want.end());
              std::sort(have.begin(), have.end());
            }
            ASSERT_EQ(have, want)
                << "step=" << step << " range=" << begin << ":" << end
                << " block=" << bs << " strategy="
                << DecodeStrategyName(strategy) << " ordered=" << ordered;
          }
        }
      }
    }
  }
}

TEST(ColumnDecoderTest, RlbeRangeDecodeUsesAnchors) {
  std::vector<int64_t> values = RunnyWalk(30000, 71);
  ParsedBytes col =
      ParseBytes(enc::RlbeEncoder().Encode(values.data(), values.size()));
  ASSERT_TRUE(col.status.ok());
  for (auto [begin, end] : {std::pair<size_t, size_t>{0, 30000},
                            {0, 100},
                            {5000, 6000},
                            {29990, 30000},
                            {1, 2}}) {
    DecodedColumn out;
    ASSERT_TRUE(
        DecodeColumnRange(col.col, DecodeStrategy::kEtsqp, begin, end, &out)
            .ok());
    ASSERT_EQ(out.size(), end - begin);
    for (size_t i = begin; i < end; ++i) {
      ASSERT_EQ(out.Get(i - begin), values[i]) << begin << ":" << end;
    }
  }
}

TEST(ColumnDecoderTest, WideValuesFallBackTo64Bit) {
  // Swing exceeding int32: must still decode correctly via the wide path.
  std::vector<int64_t> values = {0, 1ll << 33, 1ll << 34, (1ll << 34) + 5};
  ParsedBytes col =
      ParseBytes(enc::Ts2DiffEncoder().Encode(values.data(), values.size()));
  ASSERT_TRUE(col.status.ok());
  DecodedColumn out;
  ASSERT_TRUE(DecodeColumn(col.col, DecodeStrategy::kEtsqp, &out).ok());
  EXPECT_FALSE(out.narrow);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(out.Get(i), values[i]);
}

TEST(ColumnDecoderTest, FastLanesWideResidualsMatchReference) {
  // Jumps of up to 2^40 make FLMM1024 residuals wider than 32 bits, past
  // the SIMD unpack plans: those blocks take the reference block decode.
  std::mt19937_64 rng(61);
  std::vector<int64_t> values(3000);
  int64_t x = 0;
  for (auto& v : values) {
    x += rng() % 64 == 0 ? static_cast<int64_t>(rng() % (1ull << 41)) -
                               (1ll << 40)
                         : static_cast<int64_t>(rng() % 21) - 10;
    v = x;
  }
  ParsedBytes col =
      ParseBytes(enc::FastLanesEncoder().Encode(values.data(), values.size()));
  ASSERT_TRUE(col.status.ok());
  ASSERT_GT(col.col.As<enc::FastLanesColumn>().blocks()[0].width, 32);
  for (DecodeStrategy s : {DecodeStrategy::kEtsqp, DecodeStrategy::kFastLanes,
                           DecodeStrategy::kSerial}) {
    DecodedColumn out;
    ASSERT_TRUE(DecodeColumnRange(col.col, s, 700, 2900, &out).ok());
    ASSERT_EQ(out.size(), 2200u);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out.Get(i), values[700 + i]) << DecodeStrategyName(s) << i;
    }
  }
}

// ----------------------------------------------------------- Fusion

TEST(FusionTest, Ts2DiffFusedSumMatchesDecode) {
  std::vector<int64_t> values = RandomWalk(3000, 23, -5000, 200);
  ParsedBytes col = ParseBytes(
      enc::Ts2DiffEncoder(300).Encode(values.data(), values.size()));
  ASSERT_TRUE(col.status.ok());
  Ts2DiffFusedReader reader(col.col.As<enc::Ts2DiffColumn>());

  std::mt19937_64 rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    size_t a = rng() % values.size();
    size_t b = a + rng() % (values.size() - a + 1);
    int64_t expected = 0;
    for (size_t i = a; i < b; ++i) expected += values[i];
    int64_t fused = 0;
    ASSERT_TRUE(reader.SumRange(a, b, &fused).ok());
    EXPECT_EQ(fused, expected) << a << ":" << b;
  }
}

TEST(FusionTest, Ts2DiffValueAt) {
  std::vector<int64_t> values = RandomWalk(1000, 31, 7, 50);
  ParsedBytes col = ParseBytes(
      enc::Ts2DiffEncoder(128).Encode(values.data(), values.size()));
  ASSERT_TRUE(col.status.ok());
  Ts2DiffFusedReader reader(col.col.As<enc::Ts2DiffColumn>());
  // Single values read as one-value ranges, out of cursor order, across
  // the block edge at 128.
  for (size_t i : {500ul, 0ul, 1ul, 128ul, 127ul, 999ul}) {
    int64_t v = 0;
    ASSERT_TRUE(reader.SumRange(i, i + 1, &v).ok());
    EXPECT_EQ(v, values[i]) << i;
  }
}

TEST(FusionTest, Ts2DiffWindowsResumeAtEveryWidth) {
  // Blocks of 100 values whose residual widths run 0..31, summed as the
  // windows of a sliding-window SUM (each resuming at the previous end),
  // at window lengths around the 8-lane vector and across block ends; on
  // the dispatched path and with SIMD disabled.
  constexpr size_t kBlock = 100;
  std::mt19937_64 rng(59);
  std::vector<int64_t> values(32 * kBlock);
  int64_t v = -1000;
  for (size_t i = 0; i < values.size(); ++i) {
    const int width = static_cast<int>(i / kBlock);
    values[i] = v;
    const uint64_t mask = width == 0 ? 0 : (uint64_t{1} << width) - 1;
    // Residual 0 and 2^w - 1 in every block pin its width at w.
    const uint64_t r = i % kBlock == 0 ? 0 : i % kBlock == 1 ? mask
                                                             : rng() & mask;
    v += 3 + static_cast<int64_t>(r);
  }
  ParsedBytes col = ParseBytes(
      enc::Ts2DiffEncoder(kBlock).Encode(values.data(), values.size()));
  ASSERT_TRUE(col.status.ok());
  for (bool simd_off : {false, true}) {
    SetSimdDisabledForTesting(simd_off);
    for (size_t len : {1ul, 7ul, 8ul, 9ul, 33ul, 100ul, 1000ul}) {
      Ts2DiffFusedReader reader(col.col.As<enc::Ts2DiffColumn>());
      for (size_t a = 0; a < values.size(); a += len) {
        const size_t b = std::min(a + len, values.size());
        int64_t want = 0;
        for (size_t i = a; i < b; ++i) want += values[i];
        int64_t got = 0;
        ASSERT_TRUE(reader.SumRange(a, b, &got).ok()) << a;
        EXPECT_EQ(got, want) << "len=" << len << " " << a << ":" << b
                             << " simd_off=" << simd_off;
      }
      for (size_t i = 0; i < values.size(); i += 37) {
        int64_t got = 0;
        ASSERT_TRUE(reader.SumRange(i, i + 1, &got).ok());
        EXPECT_EQ(got, values[i]) << i;
      }
    }
  }
  SetSimdDisabledForTesting(false);
}

TEST(FusionTest, DeltaRleAggMatchesDecode) {
  std::vector<int64_t> values = RunnyWalk(5000, 37);
  ParsedBytes col =
      ParseBytes(enc::DeltaRleEncoder().Encode(values.data(), values.size()));
  ASSERT_TRUE(col.status.ok());
  const enc::DeltaRleColumn& parsed = col.col.As<enc::DeltaRleColumn>();

  std::mt19937_64 rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    size_t a = rng() % values.size();
    size_t b = a + rng() % (values.size() - a + 1);
    __int128 esum = 0, esq = 0;
    for (size_t i = a; i < b; ++i) {
      esum += values[i];
      esq += static_cast<__int128>(values[i]) * values[i];
    }
    DeltaRleAggregates agg;
    ASSERT_TRUE(FusedAggDeltaRle(parsed, a, b, true, &agg).ok());
    EXPECT_EQ(agg.sum, static_cast<int64_t>(esum)) << a << ":" << b;
    EXPECT_EQ(agg.count, b - a);
    EXPECT_TRUE(agg.sum_sq == esq);
  }
}

TEST(FusionTest, CrossProductMatchesDecode) {
  std::vector<int64_t> a_vals = RunnyWalk(3000, 43);
  std::vector<int64_t> b_vals = RunnyWalk(3000, 47);
  ParsedBytes ca =
      ParseBytes(enc::DeltaRleEncoder().Encode(a_vals.data(), a_vals.size()));
  ParsedBytes cb =
      ParseBytes(enc::DeltaRleEncoder().Encode(b_vals.data(), b_vals.size()));
  ASSERT_TRUE(ca.status.ok() && cb.status.ok());

  std::mt19937_64 rng(53);
  for (int trial = 0; trial < 30; ++trial) {
    size_t a = rng() % a_vals.size();
    size_t b = a + rng() % (a_vals.size() - a + 1);
    __int128 expected = 0;
    for (size_t i = a; i < b; ++i) {
      expected += static_cast<__int128>(a_vals[i]) * b_vals[i];
    }
    __int128 cross = 0;
    ASSERT_TRUE(
        FusedCrossDeltaRle(ca.col.As<enc::DeltaRleColumn>(),
                           cb.col.As<enc::DeltaRleColumn>(), a, b, &cross)
            .ok());
    EXPECT_TRUE(cross == expected) << a << ":" << b;
  }
}

TEST(FusionTest, SumOverflowDetected) {
  // Values near INT64_MAX/2: a range sum of 3+ overflows int64.
  std::vector<int64_t> values(100, INT64_MAX / 2);
  for (size_t i = 1; i < values.size(); ++i) values[i] = values[i - 1] + 1;
  ParsedBytes col = ParseBytes(
      enc::Ts2DiffEncoder().Encode(values.data(), values.size()));
  ASSERT_TRUE(col.status.ok());
  Ts2DiffFusedReader reader(col.col.As<enc::Ts2DiffColumn>());
  int64_t out;
  Status st = reader.SumRange(0, 100, &out);
  EXPECT_EQ(st.code(), StatusCode::kOverflow);
  // A 1-element range is fine.
  ASSERT_TRUE(reader.SumRange(0, 1, &out).ok());
  EXPECT_EQ(out, INT64_MAX / 2);
}

// ----------------------------------------------------------- Pruning

/// The positions [first, last) of the times in `range` on a page whose
/// value at position i is i, as AggregateSlice locates them: COUNT gives
/// last - first and SUM the first. `stats` are the COUNT run's, which reads
/// no value.
void TimePositions(const storage::Page& page, const TimeRange& range,
                   bool prune, size_t* first, size_t* last,
                   QueryStats* stats) {
  const PipelineOptions opt = PipelineOptions::Etsqp(1).WithPrune(prune);
  AggAccum count, sum;
  ASSERT_TRUE(AggregateSlice(page, 0, page.header.count, range, ValueRange{},
                             AggFunc::kCount, opt, &count, stats)
                  .ok());
  ASSERT_TRUE(AggregateSlice(page, 0, page.header.count, range, ValueRange{},
                             AggFunc::kSum, opt, &sum, nullptr)
                  .ok());
  const __int128 c = count.count;
  *first = c == 0 ? 0 : static_cast<size_t>((sum.sum - c * (c - 1) / 2) / c);
  *last = *first + static_cast<size_t>(c);
}

storage::Page PositionPage(const std::vector<int64_t>& times,
                           uint32_t block_size) {
  std::vector<int64_t> values(times.size());
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i);
  }
  storage::PageOptions opt;
  opt.block_size = block_size;
  Result<storage::Page> page =
      storage::BuildPage(times.data(), values.data(), times.size(), opt);
  EXPECT_TRUE(page.ok());
  return std::move(page).value();
}

TEST(PruningTest, TimeRangePositionsMatchReference) {
  std::mt19937_64 rng(59);
  std::vector<int64_t> times(3000);
  int64_t t = 0;
  for (auto& x : times) {
    t += 1 + static_cast<int64_t>(rng() % 20);
    x = t;
  }
  const storage::Page page = PositionPage(times, 256);

  for (bool prune : {false, true}) {
    for (int trial = 0; trial < 60; ++trial) {
      int64_t lo = static_cast<int64_t>(rng() % (t + 200)) - 100;
      int64_t hi = lo + static_cast<int64_t>(rng() % (t / 2 + 1));
      TimeRange range{lo, hi};
      size_t first = 0, last = 0;
      TimePositions(page, range, prune, &first, &last, nullptr);
      size_t ref_first =
          std::lower_bound(times.begin(), times.end(), lo) - times.begin();
      size_t ref_last =
          std::upper_bound(times.begin(), times.end(), hi) - times.begin();
      if (ref_first >= ref_last) {
        EXPECT_EQ(first, last) << "prune=" << prune << " [" << lo << ","
                               << hi << "]";
      } else {
        EXPECT_EQ(first, ref_first)
            << "prune=" << prune << " [" << lo << "," << hi << "]";
        EXPECT_EQ(last, ref_last)
            << "prune=" << prune << " [" << lo << "," << hi << "]";
      }
    }
  }
}

TEST(PruningTest, ConstantIntervalDirectPositions) {
  std::vector<int64_t> times(2048);
  for (size_t i = 0; i < times.size(); ++i) {
    times[i] = 1000 + static_cast<int64_t>(i) * 10;
  }
  const storage::Page page = PositionPage(times, 1024);
  size_t first = 0, last = 0;
  QueryStats stats;
  TimePositions(page, TimeRange{1500, 2504}, /*prune=*/true, &first, &last,
                &stats);
  EXPECT_EQ(first, 50u);
  EXPECT_EQ(last, 151u);  // t=2500 at index 150 inclusive
  EXPECT_EQ(stats.tuples_scanned, 0u);  // no decoding: direct arithmetic
}

TEST(PruningTest, PrunesBlocksBelowRange) {
  std::vector<int64_t> times(4096);
  for (size_t i = 0; i < times.size(); ++i) {
    times[i] = static_cast<int64_t>(i) * 10 + static_cast<int64_t>(i % 7);
  }
  const storage::Page page = PositionPage(times, 256);
  size_t first = 0, last = 0;
  QueryStats stats;
  TimePositions(page, TimeRange{38000, 39000}, /*prune=*/true, &first, &last,
                &stats);
  EXPECT_GT(stats.blocks_pruned, 10u);  // most leading blocks skipped undecoded
  size_t ref_first =
      std::lower_bound(times.begin(), times.end(), 38000) - times.begin();
  EXPECT_EQ(first, ref_first);
}

TEST(PruningTest, ValueBlockPrunableIsSound) {
  std::mt19937_64 rng(61);
  std::vector<int64_t> values = RandomWalk(2000, 61, 0, 500);
  ParsedBytes col =
      ParseBytes(enc::Ts2DiffEncoder(128).Encode(values.data(), values.size()));
  ASSERT_TRUE(col.status.ok());
  for (int trial = 0; trial < 100; ++trial) {
    int64_t lo = static_cast<int64_t>(rng() % 20000) - 10000;
    int64_t hi = lo + static_cast<int64_t>(rng() % 5000);
    for (const enc::Ts2DiffBlock& b :
         col.col.As<enc::Ts2DiffColumn>().blocks()) {
      if (!ValueBlockPrunable(b, lo, hi)) continue;
      // Soundness: no value in the pruned block may satisfy the filter.
      for (uint32_t i = 0; i < b.num_values(); ++i) {
        int64_t v = values[b.start_index + i];
        EXPECT_TRUE(v < lo || v > hi) << "pruned block contains match";
      }
    }
  }
}

// ----------------------------------------------------------- Scheduler

TEST(SchedulerTest, PipelineJobsExecuteAll) {
  std::vector<int> hits(100, 0);
  PipelineJobSet set;
  set.num_jobs = 100;
  set.job = [&](size_t i) -> Status {
    hits[i]++;
    return Status::Ok();
  };
  ASSERT_TRUE(
      RunPipelineJobs(set, PipelineOptions::Etsqp(4), nullptr).ok());
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(SchedulerTest, PipelineJobsSingleThreadRunInOrder) {
  std::vector<size_t> order;
  PipelineJobSet set;
  set.num_jobs = 10;
  set.job = [&](size_t i) -> Status {
    order.push_back(i);
    return Status::Ok();
  };
  ASSERT_TRUE(RunPipelineJobs(set, PipelineOptions::Serial(), nullptr).ok());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerTest, OnePagePerJobWhenPagesOutnumberCores) {
  std::vector<size_t> counts(10, 4096);
  auto slices = PlanSlices(counts, 4, 1024);
  ASSERT_EQ(slices.size(), 10u);
  for (size_t p = 0; p < 10; ++p) {
    EXPECT_EQ(slices[p].page_index, p);
    EXPECT_EQ(slices[p].begin, 0u);
    EXPECT_EQ(slices[p].end, 4096u);
  }
}

TEST(SchedulerTest, SlicesWhenCoresOutnumberPages) {
  std::vector<size_t> counts(2, 8192);
  auto slices = PlanSlices(counts, 8, 1024);
  EXPECT_GT(slices.size(), 2u);
  EXPECT_LE(slices.size(), 8u);
  // Slices tile each page exactly, block-aligned.
  size_t covered = 0;
  for (const PageSlice& s : slices) {
    EXPECT_EQ(s.begin % 1024, 0u);
    covered += s.end - s.begin;
  }
  EXPECT_EQ(covered, 2u * 8192u);
}

TEST(SchedulerTest, TinyPagesDoNotOverSlice) {
  std::vector<size_t> counts = {100};
  auto slices = PlanSlices(counts, 16, 1024);
  ASSERT_EQ(slices.size(), 1u);  // one block: cannot split further
  EXPECT_EQ(slices[0].end, 100u);
}

// ----------------------------------------------------------- Cost model

TEST(CostModelTest, OptimalNvMatchesPaperExamples) {
  // Figure 4: width 10 -> 6 vectors; Example 4 (width 25) -> small n_v.
  EXPECT_EQ(OptimalNv(10), 6);
  int nv25 = OptimalNv(25);
  EXPECT_GE(nv25, 2);
  EXPECT_LE(nv25, 5);
}

TEST(CostModelTest, AverageTimeConvex) {
  CostConstants c;
  // T_AVG(n_v) should dip then rise: the Proposition 1 optimum is interior.
  double t1 = AverageDecodeTime(10, 32, 1, c);
  double topt = AverageDecodeTime(10, 32, 4, c);
  double t16 = AverageDecodeTime(10, 32, 16, c);
  EXPECT_LT(topt, t1);
  EXPECT_LT(topt, t16);
}

TEST(CostModelTest, OptimalNvRealFormula) {
  CostConstants c;
  double nv = OptimalNvReal(10, 32, c);
  // sqrt(32/10 * 11/2) ~ 4.2 with the paper's constants.
  EXPECT_NEAR(nv, std::sqrt(32.0 / 10.0 * (c.t_prefix - c.t_add) /
                            c.t_unpack),
              1e-9);
  EXPECT_GT(nv, 1.0);
  EXPECT_LT(nv, 16.0);
}

TEST(CostModelTest, OptimalNvEdgeWidths) {
  // Width 1: narrowest packing — the feasible-layout clamp tops out at the
  // kernels' 16-vector maximum.
  EXPECT_EQ(OptimalNv(1), 16);
  // Out-of-domain widths (non-positive, or past the 25-bit transposed
  // limit) take the scalar path: one vector.
  EXPECT_EQ(OptimalNv(0), 1);
  EXPECT_EQ(OptimalNv(-3), 1);
  EXPECT_EQ(OptimalNv(26), 1);
  EXPECT_EQ(OptimalNv(32), 1);
  EXPECT_EQ(OptimalNv(64), 1);
}

TEST(CostModelTest, OptimalNvRealEdgeWidths) {
  CostConstants c;
  // w == w': no packing left; the optimum is the pure instruction ratio.
  EXPECT_NEAR(OptimalNvReal(32, 32, c),
              std::sqrt((c.t_prefix - c.t_add) / c.t_unpack), 1e-9);
  // n_v* scales with sqrt(w'): the 64-bit unpack target wants sqrt(2) more
  // vectors than the 32-bit one at any width.
  EXPECT_NEAR(OptimalNvReal(8, 64, c),
              std::sqrt(2.0) * OptimalNvReal(8, 32, c), 1e-9);
  // Degenerate unpacked_width < width (packing wider than the target lane):
  // the real optimum falls below one vector — the caller must clamp.
  EXPECT_LT(OptimalNvReal(64, 8, c), 1.0);
  EXPECT_GT(OptimalNvReal(64, 8, c), 0.0);
}

TEST(CostModelTest, AverageDecodeTimeFiniteAtDegenerateWidths) {
  CostConstants c;
  // Width 1 at the clamped optimum decodes far below the serial cost.
  double w1 = AverageDecodeTime(1, 32, OptimalNv(1), c);
  EXPECT_GT(w1, 0.0);
  EXPECT_LT(w1, 2.0);
  // unpacked_width < width: infeasible for the kernels, but the model must
  // stay finite and positive (Schedule() may evaluate it when bucketing).
  double degenerate = AverageDecodeTime(32, 16, 2, c);
  EXPECT_TRUE(std::isfinite(degenerate));
  EXPECT_GT(degenerate, 0.0);
  // At fixed unpacked width the per-tuple cost is monotone in packing
  // width: more loads per round for the same decoded count.
  EXPECT_GT(AverageDecodeTime(32, 32, 4, c), AverageDecodeTime(8, 32, 4, c));
}

TEST(CostModelTest, SpeedupScalesWithThreads) {
  CostConstants c;
  double s1 = EstimatedSpeedup(10, 32, 1, c);
  double s16 = EstimatedSpeedup(10, 32, 16, c);
  EXPECT_GT(s1, 1.0);
  EXPECT_NEAR(s16 / s1, 16.0, 1e-9);
  // The paper's headline for 10-bit TS2DIFF with 16 threads is ~15.3x;
  // the model must at least predict that much at cache-hit access ratios
  // (Theorem 2 says the ratio grows with t_visMem / t_op).
  EXPECT_GT(s16, 15.0);
  EXPECT_LT(s16, 1000.0);
  CostConstants slow = c;
  slow.t_vis_mem = 40.0;
  EXPECT_GT(EstimatedSpeedup(10, 32, 16, slow), s16);
}

}  // namespace
}  // namespace etsqp::exec
