#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "common/aligned_buffer.h"
#include "common/bit_util.h"
#include "common/bitstream.h"
#include "common/status.h"

namespace etsqp {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Corruption("bad bytes");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(s.message(), "bad bytes");
  EXPECT_EQ(s.ToString(), "Corruption: bad bytes");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(BitUtilTest, BitWidth) {
  EXPECT_EQ(BitWidth(0), 0);
  EXPECT_EQ(BitWidth(1), 1);
  EXPECT_EQ(BitWidth(2), 2);
  EXPECT_EQ(BitWidth(255), 8);
  EXPECT_EQ(BitWidth(256), 9);
  EXPECT_EQ(BitWidth(~0ull), 64);
}

TEST(BitUtilTest, Masks) {
  EXPECT_EQ(MaskLow64(0), 0u);
  EXPECT_EQ(MaskLow64(1), 1u);
  EXPECT_EQ(MaskLow64(10), 0x3FFu);
  EXPECT_EQ(MaskLow64(64), ~0ull);
  EXPECT_EQ(MaskLow32(32), ~0u);
}

TEST(BitUtilTest, ZigZagRoundTrip64) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = static_cast<int64_t>(rng());
    EXPECT_EQ(ZigZagDecode64(ZigZagEncode64(v)), v);
  }
}

TEST(BitUtilTest, OverflowChecks) {
  int64_t out;
  EXPECT_FALSE(AddOverflow64(1, 2, &out));
  EXPECT_EQ(out, 3);
  EXPECT_TRUE(AddOverflow64(INT64_MAX, 1, &out));
}

TEST(BitStreamTest, SingleBits) {
  BitWriter w;
  w.WriteBit(1);
  w.WriteBit(0);
  w.WriteBit(1);
  EXPECT_EQ(w.bit_count(), 3u);
  auto bytes = w.TakeBuffer();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10100000);
}

TEST(BitStreamTest, BigEndianFieldOrder) {
  BitWriter w;
  w.WriteBits(0b101, 3);
  w.WriteBits(0b11111, 5);
  auto bytes = w.TakeBuffer();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10111111);  // MSB first
}

class BitStreamWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(BitStreamWidthTest, RoundTripRandomValues) {
  int width = GetParam();
  std::mt19937_64 rng(width);
  std::vector<uint64_t> values(257);
  for (auto& v : values) v = rng() & MaskLow64(width);
  BitWriter w;
  for (uint64_t v : values) w.WriteBits(v, width);
  auto bytes = w.TakeBuffer();
  EXPECT_EQ(bytes.size(), (values.size() * width + 7) / 8);
  BitReader r(bytes.data(), bytes.size());
  for (uint64_t v : values) {
    EXPECT_EQ(r.ReadBits(width), v);
  }
  EXPECT_FALSE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitStreamWidthTest,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 9, 13, 16, 21,
                                           25, 31, 32, 33, 48, 63, 64));

TEST(BitStreamTest, ReaderExhaustion) {
  uint8_t byte = 0xFF;
  BitReader r(&byte, 1);
  EXPECT_EQ(r.ReadBits(8), 0xFFu);
  EXPECT_FALSE(r.exhausted());
  r.ReadBit();
  EXPECT_TRUE(r.exhausted());
}

TEST(BitStreamTest, SeekAndAlign) {
  BitWriter w;
  w.WriteBits(0xAB, 8);
  w.WriteBits(0x5, 3);
  w.AlignToByte();
  auto bytes = w.TakeBuffer();
  BitReader r(bytes.data(), bytes.size());
  r.SeekBits(8);
  EXPECT_EQ(r.ReadBits(3), 0x5u);
  r.AlignToByte();
  EXPECT_EQ(r.bit_pos(), 16u);
}

TEST(BitStreamTest, FixedBigEndian) {
  std::vector<uint8_t> buf;
  PutFixed64BE(&buf, 0x0102030405060708ull);
  PutFixed32BE(&buf, 0xAABBCCDDu);
  ASSERT_EQ(buf.size(), 12u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0x08);
  EXPECT_EQ(GetFixed64BE(buf.data()), 0x0102030405060708ull);
  EXPECT_EQ(GetFixed32BE(buf.data() + 8), 0xAABBCCDDu);
}

TEST(AlignedBufferTest, AlignmentAndSlack) {
  AlignedBuffer buf(100);
  EXPECT_EQ(buf.size(), 100u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % 64, 0u);
  // Slack bytes are readable and zeroed.
  for (size_t i = 0; i < AlignedBuffer::kSlackBytes; ++i) {
    EXPECT_EQ(buf.data()[buf.size() + i], 0);
  }
}

TEST(AlignedBufferTest, AssignCopies) {
  uint8_t src[16];
  for (int i = 0; i < 16; ++i) src[i] = static_cast<uint8_t>(i * 3);
  AlignedBuffer buf;
  buf.Assign(src, 16);
  EXPECT_EQ(std::memcmp(buf.data(), src, 16), 0);
}

TEST(AlignedBufferTest, MoveTransfersOwnership) {
  AlignedBuffer a(32);
  a.data()[0] = 42;
  AlignedBuffer b(std::move(a));
  EXPECT_EQ(b.size(), 32u);
  EXPECT_EQ(b.data()[0], 42);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

}  // namespace
}  // namespace etsqp
