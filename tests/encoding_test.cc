#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>

#include "common/bit_util.h"
#include "common/bitstream.h"
#include "encoding/bitpack.h"
#include "encoding/delta_rle.h"
#include "encoding/gorilla.h"
#include "encoding/rlbe.h"
#include "encoding/sprintz.h"
#include "encoding/ts2diff.h"

namespace etsqp::enc {
namespace {

// ---------------------------------------------------------------- bitpack

class BitpackWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(BitpackWidthTest, PackUnpackRoundTrip) {
  int width = GetParam();
  std::mt19937_64 rng(width + 100);
  std::vector<uint64_t> values(333);
  for (auto& v : values) v = rng() & MaskLow64(width);
  BitWriter w;
  PackBE(values.data(), values.size(), width, &w);
  auto bytes = w.TakeBuffer();
  EXPECT_EQ(bytes.size(), PackedBytes(values.size(), width));
  std::vector<uint64_t> out(values.size());
  ASSERT_TRUE(UnpackBE64(bytes.data(), bytes.size(), 0, values.size(), width,
                         out.data()));
  EXPECT_EQ(out, values);
}

TEST_P(BitpackWidthTest, UnpackAtBitOffset) {
  int width = GetParam();
  std::mt19937_64 rng(width + 200);
  std::vector<uint64_t> values(50);
  for (auto& v : values) v = rng() & MaskLow64(width);
  BitWriter w;
  w.WriteBits(0x2A, 6);  // misaligning prefix
  PackBE(values.data(), values.size(), width, &w);
  auto bytes = w.TakeBuffer();
  std::vector<uint64_t> out(values.size());
  ASSERT_TRUE(UnpackBE64(bytes.data(), bytes.size(), 6, values.size(), width,
                         out.data()));
  EXPECT_EQ(out, values);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitpackWidthTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 10, 12, 13,
                                           15, 16, 17, 20, 24, 25, 26, 28, 31,
                                           32, 40, 57, 63, 64));

TEST(BitpackTest, WidthZero) {
  std::vector<uint64_t> out(5, 99);
  ASSERT_TRUE(UnpackBE64(nullptr, 0, 0, 5, 0, out.data()));
  for (uint64_t v : out) EXPECT_EQ(v, 0u);
}

TEST(BitpackTest, TruncatedInputRejected) {
  uint8_t byte = 0xFF;
  std::vector<uint64_t> out(3);
  EXPECT_FALSE(UnpackBE64(&byte, 1, 0, 3, 10, out.data()));
}

TEST(BitpackTest, UnpackOneMatchesBulk) {
  std::mt19937_64 rng(11);
  int width = 13;
  std::vector<uint64_t> values(64);
  for (auto& v : values) v = rng() & MaskLow64(width);
  BitWriter w;
  PackBE(values.data(), values.size(), width, &w);
  auto bytes = w.TakeBuffer();
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(UnpackOneBE(bytes.data(), i * width, width), values[i]);
  }
}

// ---------------------------------------------------------------- TS2DIFF

class Ts2DiffBlockSizeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(Ts2DiffBlockSizeTest, RoundTripRandomWalk) {
  uint32_t block_size = GetParam();
  std::mt19937_64 rng(block_size);
  std::vector<int64_t> values(2500);
  int64_t v = -50'000;
  for (auto& x : values) {
    v += static_cast<int64_t>(rng() % 1000) - 500;
    x = v;
  }
  Ts2DiffEncoder encoder(block_size);
  EncodedColumn col = encoder.Encode(values.data(), values.size());
  EXPECT_EQ(col.count, values.size());
  auto parsed = Ts2DiffColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::vector<int64_t> out(values.size());
  ASSERT_TRUE(parsed.value().DecodeAll(out.data()).ok());
  EXPECT_EQ(out, values);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, Ts2DiffBlockSizeTest,
                         ::testing::Values(2, 3, 16, 100, 1024, 4096));

TEST(Ts2DiffTest, SingleValue) {
  int64_t v = 42;
  EncodedColumn col = Ts2DiffEncoder().Encode(&v, 1);
  auto parsed = Ts2DiffColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  int64_t out = 0;
  ASSERT_TRUE(parsed.value().DecodeAll(&out).ok());
  EXPECT_EQ(out, 42);
}

TEST(Ts2DiffTest, ConstantIntervalHasZeroWidth) {
  std::vector<int64_t> values(100);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 1000 + static_cast<int64_t>(i) * 50;
  }
  EncodedColumn col = Ts2DiffEncoder().Encode(values.data(), values.size());
  auto parsed = Ts2DiffColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().blocks().size(), 1u);
  const Ts2DiffBlock& b = parsed.value().blocks()[0];
  EXPECT_EQ(b.width, 0);
  EXPECT_TRUE(b.constant_interval());
  EXPECT_EQ(b.min_delta, 50);
  EXPECT_EQ(b.delta_upper_bound(), 50);
}

TEST(Ts2DiffTest, DeltaBoundsContainTrueDeltas) {
  std::mt19937_64 rng(9);
  std::vector<int64_t> values(500);
  int64_t v = 0;
  for (auto& x : values) {
    v += static_cast<int64_t>(rng() % 2000) - 1000;
    x = v;
  }
  EncodedColumn col = Ts2DiffEncoder(64).Encode(values.data(), values.size());
  auto parsed = Ts2DiffColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  for (const Ts2DiffBlock& b : parsed.value().blocks()) {
    for (uint32_t i = 1; i <= b.num_deltas; ++i) {
      int64_t d = values[b.start_index + i] - values[b.start_index + i - 1];
      EXPECT_GE(d, b.delta_lower_bound());
      EXPECT_LE(d, b.delta_upper_bound());
    }
  }
}

TEST(Ts2DiffTest, BlockStatsAreExact) {
  std::mt19937_64 rng(77);
  std::vector<int64_t> values(1000);
  int64_t v = -300;
  for (auto& x : values) x = (v += static_cast<int64_t>(rng() % 61) - 30);
  EncodedColumn col = Ts2DiffEncoder(128).Encode(values.data(), values.size());
  auto parsed = Ts2DiffColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  for (const Ts2DiffBlock& b : parsed.value().blocks()) {
    int64_t mn = values[b.start_index];
    int64_t mx = mn;
    for (uint32_t i = 0; i < b.num_values(); ++i) {
      mn = std::min(mn, values[b.start_index + i]);
      mx = std::max(mx, values[b.start_index + i]);
    }
    EXPECT_EQ(b.min_value, mn);
    EXPECT_EQ(b.max_value, mx);
    EXPECT_EQ(b.first_value, values[b.start_index]);
  }
}

TEST(Ts2DiffTest, NegativeDeltas) {
  std::vector<int64_t> values = {100, 50, 0, -50, -100, -75, -25};
  EncodedColumn col = Ts2DiffEncoder().Encode(values.data(), values.size());
  auto parsed = Ts2DiffColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  std::vector<int64_t> out(values.size());
  ASSERT_TRUE(parsed.value().DecodeAll(out.data()).ok());
  EXPECT_EQ(out, values);
}

TEST(Ts2DiffTest, ExtremeValues) {
  std::vector<int64_t> values = {INT64_MIN / 2, INT64_MIN / 2 + 1000,
                                 INT64_MAX / 2, INT64_MAX / 2 - 1000};
  EncodedColumn col = Ts2DiffEncoder().Encode(values.data(), values.size());
  auto parsed = Ts2DiffColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  std::vector<int64_t> out(values.size());
  ASSERT_TRUE(parsed.value().DecodeAll(out.data()).ok());
  EXPECT_EQ(out, values);
}

TEST(Ts2DiffTest, TruncatedHeaderRejected) {
  uint8_t junk[5] = {1, 2, 3, 4, 5};
  auto parsed = Ts2DiffColumn::Parse(junk, 5);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
}

TEST(Ts2DiffTest, TruncatedPayloadRejected) {
  std::vector<int64_t> values(100);
  std::mt19937_64 rng(5);
  int64_t v = 0;
  for (auto& x : values) x = (v += static_cast<int64_t>(rng() % 100));
  EncodedColumn col = Ts2DiffEncoder().Encode(values.data(), values.size());
  auto parsed =
      Ts2DiffColumn::Parse(col.bytes.data(), col.bytes.size() - 4);
  EXPECT_FALSE(parsed.ok());
}

TEST(Ts2DiffTest, BlockCountPastTheBytesRejected) {
  // A page loaded from a file is parsed as it is read, so a corrupt block
  // count is outside input: it must fail as Corruption, not size a
  // reservation of 2^32 blocks.
  std::vector<int64_t> values(100);
  for (size_t i = 0; i < values.size(); ++i) values[i] = 3 * i;
  EncodedColumn col = Ts2DiffEncoder().Encode(values.data(), values.size());
  for (size_t b = 8; b < 12; ++b) col.bytes[b] = 0xFF;  // u32 num_blocks
  auto parsed = Ts2DiffColumn::Parse(col.bytes.data(), col.bytes.size());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
}

TEST(Ts2DiffTest, CompressionBeatsRawForSmoothData) {
  std::vector<int64_t> values(10000);
  std::mt19937_64 rng(6);
  int64_t v = 1'000'000;
  for (auto& x : values) x = (v += static_cast<int64_t>(rng() % 16));
  EncodedColumn col = Ts2DiffEncoder().Encode(values.data(), values.size());
  // Raw = 80KB; deltas fit 4 bits -> expect < 15% of raw.
  EXPECT_LT(col.bytes.size(), values.size() * 8 / 6);
}

// ---------------------------------------------------------------- DeltaRle

TEST(DeltaRleTest, RoundTripArithmeticRuns) {
  std::mt19937_64 rng(21);
  std::vector<int64_t> values;
  int64_t v = 500;
  while (values.size() < 5000) {
    int64_t d = static_cast<int64_t>(rng() % 41) - 20;
    size_t run = 1 + rng() % 100;
    for (size_t k = 0; k < run && values.size() < 5000; ++k) {
      v += d;
      values.push_back(v);
    }
  }
  EncodedColumn col = DeltaRleEncoder().Encode(values.data(), values.size());
  auto parsed = DeltaRleColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  std::vector<int64_t> out(values.size());
  ASSERT_TRUE(parsed.value().DecodeAll(out.data()).ok());
  EXPECT_EQ(out, values);
}

TEST(DeltaRleTest, PairsMatchDeltaRuns) {
  std::vector<int64_t> values = {0, 10, 20, 30, 31, 32, 30, 28};
  EncodedColumn col = DeltaRleEncoder().Encode(values.data(), values.size());
  auto parsed = DeltaRleColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  std::vector<DeltaRun> pairs;
  ASSERT_TRUE(parsed.value().DecodePairs(&pairs).ok());
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].delta, 10);
  EXPECT_EQ(pairs[0].run, 3u);
  EXPECT_EQ(pairs[1].delta, 1);
  EXPECT_EQ(pairs[1].run, 2u);
  EXPECT_EQ(pairs[2].delta, -2);
  EXPECT_EQ(pairs[2].run, 2u);
}

TEST(DeltaRleTest, BoundsAreConservative) {
  std::vector<int64_t> values = {0, 5, 10, 15, 14, 13, 20};
  EncodedColumn col = DeltaRleEncoder().Encode(values.data(), values.size());
  auto parsed = DeltaRleColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  const DeltaRleColumn& c = parsed.value();
  for (size_t i = 1; i < values.size(); ++i) {
    int64_t d = values[i] - values[i - 1];
    EXPECT_GE(d, c.delta_lower_bound());
    EXPECT_LE(d, c.delta_upper_bound());
  }
}

TEST(DeltaRleTest, HighCompressionForConstantSlope) {
  std::vector<int64_t> values(100'000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i) * 7;
  }
  EncodedColumn col = DeltaRleEncoder().Encode(values.data(), values.size());
  // One pair encodes everything.
  EXPECT_LT(col.bytes.size(), 64u);
}

TEST(DeltaRleTest, SingleValue) {
  int64_t v = -7;
  EncodedColumn col = DeltaRleEncoder().Encode(&v, 1);
  auto parsed = DeltaRleColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  int64_t out = 0;
  ASSERT_TRUE(parsed.value().DecodeAll(&out).ok());
  EXPECT_EQ(out, -7);
}

// ---------------------------------------------------------------- Sprintz

// ------------------------------------------------- int64 extremes

// Neighbours at INT64_MIN and INT64_MAX: every delta and delta-of-delta
// wraps modulo 2^64, and the round trip restores the exact values.
const std::vector<int64_t>& Int64Extremes() {
  static const std::vector<int64_t> v = {
      INT64_MIN, INT64_MAX, INT64_MIN, 0,  INT64_MAX, INT64_MAX, -1,
      INT64_MIN, 1,         INT64_MAX, INT64_MIN,  INT64_MIN, INT64_MAX,
      INT64_MIN, INT64_MAX, 0,         -7, INT64_MIN + 1};
  return v;
}

// Deltas INT64_MAX - 2 and INT64_MAX pack at width 2, whose mask would
// carry the upper delta bound min_delta + 3 past INT64_MAX.
const std::vector<int64_t> kNearMaxDeltas = {0, INT64_MAX - 2,
                                             WrapAdd64(INT64_MAX - 2,
                                                       INT64_MAX)};

TEST(Ts2DiffTest, DeltaUpperBoundSaturates) {
  EncodedColumn col =
      Ts2DiffEncoder().Encode(kNearMaxDeltas.data(), kNearMaxDeltas.size());
  auto parsed = Ts2DiffColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().blocks().size(), 1u);
  EXPECT_EQ(parsed.value().blocks()[0].delta_upper_bound(), INT64_MAX);
  std::vector<int64_t> out(kNearMaxDeltas.size());
  ASSERT_TRUE(parsed.value().DecodeAll(out.data()).ok());
  EXPECT_EQ(out, kNearMaxDeltas);
}

TEST(DeltaRleTest, DeltaUpperBoundSaturates) {
  EncodedColumn col =
      DeltaRleEncoder().Encode(kNearMaxDeltas.data(), kNearMaxDeltas.size());
  auto parsed = DeltaRleColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().delta_upper_bound(), INT64_MAX);
  std::vector<int64_t> out(kNearMaxDeltas.size());
  ASSERT_TRUE(parsed.value().DecodeAll(out.data()).ok());
  EXPECT_EQ(out, kNearMaxDeltas);
}

TEST(SprintzTest, Int64ExtremesRoundTrip) {
  const std::vector<int64_t>& values = Int64Extremes();
  EncodedColumn col = SprintzEncoder().Encode(values.data(), values.size());
  auto parsed = SprintzColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  std::vector<int64_t> out(values.size());
  ASSERT_TRUE(parsed.value().DecodeAll(out.data()).ok());
  EXPECT_EQ(out, values);
}

TEST(DeltaRleTest, Int64ExtremesRoundTrip) {
  const std::vector<int64_t>& values = Int64Extremes();
  EncodedColumn col = DeltaRleEncoder().Encode(values.data(), values.size());
  auto parsed = DeltaRleColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  EXPECT_LE(parsed.value().delta_lower_bound(),
            parsed.value().delta_upper_bound());
  std::vector<int64_t> out(values.size());
  ASSERT_TRUE(parsed.value().DecodeAll(out.data()).ok());
  EXPECT_EQ(out, values);
}

TEST(RlbeTest, Int64ExtremesRoundTrip) {
  const std::vector<int64_t>& values = Int64Extremes();
  EncodedColumn col = RlbeEncoder().Encode(values.data(), values.size());
  auto parsed = RlbeColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  std::vector<int64_t> out(values.size());
  ASSERT_TRUE(parsed.value().DecodeAll(out.data()).ok());
  EXPECT_EQ(out, values);
  // The anchor scan sums whole runs of wrapping deltas.
  auto anchors = parsed.value().ScanAnchors(1);
  ASSERT_TRUE(anchors.ok());
  for (const RlbeColumn::Anchor& a : anchors.value()) {
    EXPECT_EQ(a.value, values[a.value_index - 1]) << a.value_index;
  }
}

TEST(GorillaTest, TimestampInt64ExtremesRoundTrip) {
  const std::vector<int64_t>& values = Int64Extremes();
  EncodedColumn col =
      GorillaTimestampEncoder().Encode(values.data(), values.size());
  std::vector<int64_t> out(values.size());
  ASSERT_TRUE(GorillaTimestampDecode(col, out.data()).ok());
  EXPECT_EQ(out, values);
}

TEST(SprintzTest, RoundTripSpikyData) {
  std::mt19937_64 rng(31);
  std::vector<int64_t> values(3000);
  int64_t v = 0;
  for (auto& x : values) {
    // Mostly small steps with occasional spikes: Sprintz's target regime.
    v += (rng() % 50 == 0) ? static_cast<int64_t>(rng() % 100000) - 50000
                           : static_cast<int64_t>(rng() % 7) - 3;
    x = v;
  }
  EncodedColumn col = SprintzEncoder().Encode(values.data(), values.size());
  auto parsed = SprintzColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  std::vector<int64_t> out(values.size());
  ASSERT_TRUE(parsed.value().DecodeAll(out.data()).ok());
  EXPECT_EQ(out, values);
}

TEST(SprintzTest, NonMultipleOfBlock) {
  std::vector<int64_t> values = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  EncodedColumn col = SprintzEncoder().Encode(values.data(), values.size());
  auto parsed = SprintzColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  std::vector<int64_t> out(values.size());
  ASSERT_TRUE(parsed.value().DecodeAll(out.data()).ok());
  EXPECT_EQ(out, values);
}

TEST(SprintzTest, SmallDeltasCompressWell) {
  std::vector<int64_t> values(8001);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i % 2);
  }
  EncodedColumn col = SprintzEncoder().Encode(values.data(), values.size());
  // 2-bit zigzag deltas + 1 byte header per 8: ~3 bytes per 8 values.
  EXPECT_LT(col.bytes.size(), values.size());
}

}  // namespace
}  // namespace etsqp::enc
