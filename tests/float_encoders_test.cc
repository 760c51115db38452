#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "common/bitstream.h"
#include "encoding/chimp.h"
#include "encoding/elf.h"
#include "encoding/fibonacci.h"
#include "encoding/gorilla.h"
#include "encoding/rlbe.h"

namespace etsqp::enc {
namespace {

// ---------------------------------------------------------------- Fibonacci

TEST(FibonacciTest, TableStartsOneTwo) {
  const auto& fib = FibonacciTable();
  ASSERT_GE(fib.size(), 10u);
  EXPECT_EQ(fib[0], 1u);
  EXPECT_EQ(fib[1], 2u);
  EXPECT_EQ(fib[2], 3u);
  EXPECT_EQ(fib[3], 5u);
  EXPECT_EQ(fib[9], 89u);
}

TEST(FibonacciTest, GoldenCodewords) {
  // Fib(x+1): x=0 -> "11", x=1 -> "011", x=2 -> "0011", x=3 -> "1011".
  struct Case {
    uint64_t x;
    std::vector<int> bits;
  };
  std::vector<Case> cases = {
      {0, {1, 1}}, {1, {0, 1, 1}}, {2, {0, 0, 1, 1}}, {3, {1, 0, 1, 1}}};
  for (const Case& c : cases) {
    BitWriter w;
    FibonacciEncode(c.x, &w);
    EXPECT_EQ(w.bit_count(), c.bits.size()) << c.x;
    auto bytes = w.TakeBuffer();
    BitReader r(bytes.data(), bytes.size());
    for (int bit : c.bits) {
      EXPECT_EQ(r.ReadBit(), static_cast<uint32_t>(bit)) << c.x;
    }
  }
}

class FibonacciRangeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FibonacciRangeTest, RoundTrip) {
  uint64_t x = GetParam();
  BitWriter w;
  FibonacciEncode(x, &w);
  auto bytes = w.TakeBuffer();
  BitReader r(bytes.data(), bytes.size());
  uint64_t out = 0;
  ASSERT_TRUE(FibonacciDecode(&r, &out));
  EXPECT_EQ(out, x);
}

INSTANTIATE_TEST_SUITE_P(Values, FibonacciRangeTest,
                         ::testing::Values(0ull, 1ull, 2ull, 3ull, 7ull,
                                           12ull, 88ull, 89ull, 1000ull,
                                           123456789ull, 1ull << 40,
                                           (1ull << 62) + 12345));

TEST(FibonacciTest, StreamOfValuesRoundTrips) {
  std::mt19937_64 rng(17);
  std::vector<uint64_t> values(2000);
  for (auto& v : values) v = rng() % 1'000'000;
  BitWriter w;
  for (uint64_t v : values) FibonacciEncode(v, &w);
  auto bytes = w.TakeBuffer();
  BitReader r(bytes.data(), bytes.size());
  for (uint64_t v : values) {
    uint64_t out = 0;
    ASSERT_TRUE(FibonacciDecode(&r, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(FibonacciTest, TruncatedStreamFails) {
  BitWriter w;
  w.WriteBits(0b0101, 4);  // no terminator
  auto bytes = w.TakeBuffer();
  BitReader r(bytes.data(), bytes.size());
  uint64_t out;
  EXPECT_FALSE(FibonacciDecode(&r, &out));
}

// ---------------------------------------------------------------- RLBE

TEST(RlbeTest, RoundTrip) {
  std::mt19937_64 rng(23);
  std::vector<int64_t> values;
  int64_t v = -1000;
  while (values.size() < 4000) {
    int64_t d = static_cast<int64_t>(rng() % 21) - 10;
    size_t run = 1 + rng() % 50;
    for (size_t k = 0; k < run && values.size() < 4000; ++k) {
      v += d;
      values.push_back(v);
    }
  }
  EncodedColumn col = RlbeEncoder().Encode(values.data(), values.size());
  auto parsed = RlbeColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  std::vector<int64_t> out(values.size());
  ASSERT_TRUE(parsed.value().DecodeAll(out.data()).ok());
  EXPECT_EQ(out, values);
}

TEST(RlbeTest, SingleValue) {
  int64_t v = 123456;
  EncodedColumn col = RlbeEncoder().Encode(&v, 1);
  auto parsed = RlbeColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  int64_t out = 0;
  ASSERT_TRUE(parsed.value().DecodeAll(&out).ok());
  EXPECT_EQ(out, 123456);
}

TEST(RlbeTest, AnchorsResynchronizeExactly) {
  std::mt19937_64 rng(101);
  std::vector<int64_t> values;
  int64_t v = 42;
  while (values.size() < 20000) {
    int64_t d = static_cast<int64_t>(rng() % 31) - 15;
    size_t run = 1 + rng() % 20;
    for (size_t k = 0; k < run && values.size() < 20000; ++k) {
      v += d;
      values.push_back(v);
    }
  }
  EncodedColumn col = RlbeEncoder().Encode(values.data(), values.size());
  auto parsed = RlbeColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  auto anchors = parsed.value().ScanAnchors(1000);
  ASSERT_TRUE(anchors.ok());
  ASSERT_GT(anchors.value().size(), 5u);
  // Every anchor's state must match the reference decode.
  for (const auto& a : anchors.value()) {
    ASSERT_GE(a.value_index, 1u);
    EXPECT_EQ(a.value, values[a.value_index - 1]) << a.value_index;
  }
  // Decoding from any anchor reproduces the suffix exactly.
  for (size_t i = 0; i < anchors.value().size(); i += 2) {
    const auto& a = anchors.value()[i];
    uint32_t end = std::min<uint32_t>(a.value_index + 3333,
                                      static_cast<uint32_t>(values.size()));
    std::vector<int64_t> out(end - a.value_index);
    ASSERT_TRUE(parsed.value().DecodeFrom(a, end, out.data()).ok());
    for (uint32_t j = a.value_index; j < end; ++j) {
      ASSERT_EQ(out[j - a.value_index], values[j]) << j;
    }
  }
}

TEST(RlbeTest, AnchorStrideBoundsSpacing) {
  std::vector<int64_t> values(50000);
  std::mt19937_64 rng(103);
  int64_t v = 0;
  for (auto& x : values) x = (v += static_cast<int64_t>(rng() % 5) - 2);
  EncodedColumn col = RlbeEncoder().Encode(values.data(), values.size());
  auto parsed = RlbeColumn::Parse(col.bytes.data(), col.bytes.size());
  ASSERT_TRUE(parsed.ok());
  auto anchors = parsed.value().ScanAnchors(2000);
  ASSERT_TRUE(anchors.ok());
  // Spacing >= stride between recorded anchors (runs may overshoot).
  for (size_t i = 1; i < anchors.value().size(); ++i) {
    EXPECT_GE(anchors.value()[i].value_index -
                  anchors.value()[i - 1].value_index,
              2000u);
  }
}

TEST(RlbeTest, ConstantSlopeIsTiny) {
  std::vector<int64_t> values(100000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i) * 3;
  }
  EncodedColumn col = RlbeEncoder().Encode(values.data(), values.size());
  EXPECT_LT(col.bytes.size(), 40u);  // one <delta, run> pair in Fibonacci
}

// ---------------------------------------------------------------- Gorilla

TEST(GorillaTest, TimestampRoundTripRegular) {
  std::vector<int64_t> ts(1000);
  for (size_t i = 0; i < ts.size(); ++i) {
    ts[i] = 1'600'000'000'000 + static_cast<int64_t>(i) * 1000;
  }
  EncodedColumn col = GorillaTimestampEncoder().Encode(ts.data(), ts.size());
  // Regular intervals: delta-of-delta = 0, one bit per point.
  EXPECT_LT(col.bytes.size(), 20u + ts.size() / 8 + 8);
  std::vector<int64_t> out(ts.size());
  ASSERT_TRUE(GorillaTimestampDecode(col, out.data()).ok());
  EXPECT_EQ(out, ts);
}

TEST(GorillaTest, TimestampRoundTripJittered) {
  std::mt19937_64 rng(29);
  std::vector<int64_t> ts(2000);
  int64_t t = 1'600'000'000'000;
  for (auto& x : ts) {
    t += 1000 + static_cast<int64_t>(rng() % 100) - 50;
    x = t;
  }
  EncodedColumn col = GorillaTimestampEncoder().Encode(ts.data(), ts.size());
  std::vector<int64_t> out(ts.size());
  ASSERT_TRUE(GorillaTimestampDecode(col, out.data()).ok());
  EXPECT_EQ(out, ts);
}

TEST(GorillaTest, TimestampLargeJumps) {
  std::vector<int64_t> ts = {0, 1, 1'000'000'000, 1'000'000'001,
                             -5'000'000'000};
  // Times need not be sorted for the codec itself.
  EncodedColumn col = GorillaTimestampEncoder().Encode(ts.data(), ts.size());
  std::vector<int64_t> out(ts.size());
  ASSERT_TRUE(GorillaTimestampDecode(col, out.data()).ok());
  EXPECT_EQ(out, ts);
}

TEST(GorillaTest, ValueRoundTripDoubles) {
  std::mt19937_64 rng(37);
  std::vector<double> values(3000);
  double v = 20.0;
  for (auto& x : values) {
    v += (static_cast<double>(rng() % 1000) - 500.0) / 1000.0;
    x = v;
  }
  EncodedColumn col =
      GorillaValueEncoder().EncodeDoubles(values.data(), values.size());
  std::vector<double> out(values.size());
  ASSERT_TRUE(GorillaValueDecodeDoubles(col, out.data()).ok());
  EXPECT_EQ(out, values);
}

TEST(GorillaTest, ValueRepeatsUseOneBit) {
  std::vector<double> values(1000, 42.5);
  EncodedColumn col =
      GorillaValueEncoder().EncodeDoubles(values.data(), values.size());
  EXPECT_LT(col.bytes.size(), 12u + values.size() / 8 + 8);
  std::vector<double> out(values.size());
  ASSERT_TRUE(GorillaValueDecodeDoubles(col, out.data()).ok());
  EXPECT_EQ(out, values);
}

TEST(GorillaTest, ValueSpecialDoubles) {
  std::vector<double> values = {0.0, -0.0, 1e308, -1e308, 1e-300,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                3.14159};
  EncodedColumn col =
      GorillaValueEncoder().EncodeDoubles(values.data(), values.size());
  std::vector<double> out(values.size());
  ASSERT_TRUE(GorillaValueDecodeDoubles(col, out.data()).ok());
  for (size_t i = 0; i < values.size(); ++i) EXPECT_EQ(out[i], values[i]);
}

// ---------------------------------------------------------------- Chimp

TEST(ChimpTest, RoundTripSmoothSeries) {
  std::mt19937_64 rng(41);
  std::vector<double> values(3000);
  double v = 100.0;
  for (auto& x : values) {
    v += (static_cast<double>(rng() % 100) - 50.0) / 100.0;
    x = v;
  }
  EncodedColumn col =
      ChimpEncoder().EncodeDoubles(values.data(), values.size());
  std::vector<double> out(values.size());
  ASSERT_TRUE(ChimpDecodeDoubles(col, out.data()).ok());
  EXPECT_EQ(out, values);
}

TEST(ChimpTest, RoundTripRandomBits) {
  std::mt19937_64 rng(43);
  std::vector<uint64_t> words(2000);
  for (auto& w : words) w = rng();
  EncodedColumn col = ChimpEncoder().Encode(words.data(), words.size());
  // Random words include NaN patterns, so compare bits, not doubles.
  std::vector<double> out(words.size());
  ASSERT_TRUE(ChimpDecodeDoubles(col, out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), words.data(), words.size() * sizeof(uint64_t)), 0);
}

TEST(ChimpTest, RepeatsCompress) {
  std::vector<double> values(5000, -17.25);
  EncodedColumn col =
      ChimpEncoder().EncodeDoubles(values.data(), values.size());
  EXPECT_LT(col.bytes.size(), 12u + 2 * values.size() / 8 + 8);
}

// ---------------------------------------------------------------- Elf

TEST(ElfTest, DecimalPrecision) {
  EXPECT_EQ(ElfDecimalPrecision(1.0, 12), 0);
  EXPECT_EQ(ElfDecimalPrecision(1.5, 12), 1);
  EXPECT_EQ(ElfDecimalPrecision(3.25, 12), 2);
  EXPECT_EQ(ElfDecimalPrecision(0.001, 12), 3);
  EXPECT_EQ(ElfDecimalPrecision(
                std::numeric_limits<double>::quiet_NaN(), 12),
            -1);
}

TEST(ElfTest, RoundTripDecimalData) {
  std::mt19937_64 rng(47);
  std::vector<double> values(2000);
  for (auto& x : values) {
    // Two-decimal sensor readings — Elf's target data.
    x = static_cast<double>(static_cast<int64_t>(rng() % 200000) - 100000) /
        100.0;
  }
  EncodedColumn col =
      ElfEncoder().EncodeDoubles(values.data(), values.size());
  std::vector<double> out(values.size());
  ASSERT_TRUE(ElfDecodeDoubles(col, out.data()).ok());
  EXPECT_EQ(out, values);
}

TEST(ElfTest, RoundTripArbitraryDoubles) {
  std::mt19937_64 rng(53);
  std::vector<double> values(1000);
  for (auto& x : values) {
    uint64_t w = rng();
    std::memcpy(&x, &w, 8);
    if (std::isnan(x)) x = 0.5;
  }
  EncodedColumn col =
      ElfEncoder().EncodeDoubles(values.data(), values.size());
  std::vector<double> out(values.size());
  ASSERT_TRUE(ElfDecodeDoubles(col, out.data()).ok());
  EXPECT_EQ(out, values);
}

TEST(ElfTest, BeatsChimpOnDecimalData) {
  std::mt19937_64 rng(59);
  std::vector<double> values(5000);
  double v = 50.0;
  for (auto& x : values) {
    v += (static_cast<double>(rng() % 100) - 50.0) / 10.0;
    x = std::round(v * 10.0) / 10.0;  // one decimal place
  }
  EncodedColumn elf = ElfEncoder().EncodeDoubles(values.data(), values.size());
  EncodedColumn chimp =
      ChimpEncoder().EncodeDoubles(values.data(), values.size());
  EXPECT_LT(elf.bytes.size(), chimp.bytes.size());
}

}  // namespace
}  // namespace etsqp::enc
