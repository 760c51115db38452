// Differential suites for the decoders compaction's codecs run on the query
// side: the AVX2 Sprintz decoder against SprintzColumn::DecodeAll, and the
// word-at-a-time BitReader/BitWriter against bit-at-a-time references kept
// here. Every Sprintz decode reads from a heap buffer that ends exactly 32
// bytes past the column, so a read past the slack shows under ASan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/bit_util.h"
#include "common/bitstream.h"
#include "common/cpu.h"
#include "encoding/sprintz.h"
#include "exec/column_decoder.h"
#include "simd/sprintz_simd.h"

namespace etsqp {
namespace {

constexpr size_t kSlack = 32;

// ---------------------------------------------------------- Sprintz SIMD

/// A column of `count` values whose every block packs at exactly `width`
/// bits: each block holds one zigzag code with the top bit set.
std::vector<int64_t> ValuesAtWidth(int width, size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> values(count);
  int64_t v = static_cast<int64_t>(rng());
  for (size_t i = 0; i < count; ++i) {
    if (i > 0) {
      uint64_t zz = width == 0 ? 0 : rng() & MaskLow64(width);
      if (width > 0 && (i - 1) % 8 == 0) zz |= 1ull << (width - 1);
      v = WrapAdd64(v, ZigZagDecode64(zz));
    }
    values[i] = v;
  }
  return values;
}

/// The encoded bytes followed by exactly kSlack bytes of junk.
std::vector<uint8_t> WithSlack(const std::vector<uint8_t>& bytes,
                               size_t size) {
  std::vector<uint8_t> buf(size + kSlack, 0xA5);
  std::copy(bytes.begin(), bytes.begin() + size, buf.begin());
  return buf;
}

/// Decodes positions [begin, end) of the first `size` column bytes.
Status SimdDecode(const std::vector<uint8_t>& bytes, size_t size,
                  size_t begin, size_t end, std::vector<int64_t>* out) {
  std::vector<uint8_t> buf = WithSlack(bytes, size);
  Result<enc::SprintzColumn> col = enc::SprintzColumn::Parse(buf.data(), size);
  if (!col.ok()) return col.status();
  out->assign(end - begin, 0);
  return simd::SprintzDecodeAvx2(col.value().blocks(),
                                 col.value().blocks_bytes(),
                                 col.value().count(),
                                 col.value().first_value(), begin, end,
                                 out->data());
}

Status ReferenceDecode(const std::vector<uint8_t>& bytes, size_t size,
                       std::vector<int64_t>* out) {
  std::vector<uint8_t> buf(bytes.begin(), bytes.begin() + size);
  Result<enc::SprintzColumn> col = enc::SprintzColumn::Parse(buf.data(), size);
  if (!col.ok()) return col.status();
  out->assign(col.value().count(), 0);
  return col.value().DecodeAll(out->data());
}

class SprintzSimdWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(SprintzSimdWidthTest, FullDecodeMatchesReference) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "no AVX2";
  const int width = GetParam();
  for (size_t count : {1, 2, 8, 9, 1023, 1024, 1025, 4096}) {
    std::vector<int64_t> values = ValuesAtWidth(width, count, width * 31 + 7);
    enc::EncodedColumn col =
        enc::SprintzEncoder().Encode(values.data(), values.size());
    if (count > 1) {
      ASSERT_EQ(col.bytes[12], width) << "first block width";
    }
    std::vector<int64_t> ref, simd;
    ASSERT_TRUE(ReferenceDecode(col.bytes, col.bytes.size(), &ref).ok());
    ASSERT_EQ(ref, values);
    ASSERT_TRUE(SimdDecode(col.bytes, col.bytes.size(), 0, count, &simd).ok());
    EXPECT_EQ(simd, values) << "count " << count;
  }
}

TEST_P(SprintzSimdWidthTest, EveryRangeAcrossBlockEdges) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "no AVX2";
  const int width = GetParam();
  // Five blocks and a short sixth: every [begin, end).
  const size_t count = 43;
  std::vector<int64_t> values = ValuesAtWidth(width, count, width + 1);
  enc::EncodedColumn col =
      enc::SprintzEncoder().Encode(values.data(), values.size());
  std::vector<int64_t> out;
  for (size_t begin = 0; begin < count; ++begin) {
    for (size_t end = begin + 1; end <= count; ++end) {
      ASSERT_TRUE(
          SimdDecode(col.bytes, col.bytes.size(), begin, end, &out).ok());
      ASSERT_TRUE(std::equal(out.begin(), out.end(), values.begin() + begin))
          << "[" << begin << ", " << end << ")";
    }
  }
}

TEST_P(SprintzSimdWidthTest, RangesAtBlockEdgesOfLongColumn) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "no AVX2";
  const int width = GetParam();
  const size_t count = 1025;
  std::vector<int64_t> values = ValuesAtWidth(width, count, width + 2);
  enc::EncodedColumn col =
      enc::SprintzEncoder().Encode(values.data(), values.size());
  // Block k holds positions [8k + 1, 8k + 9).
  std::vector<size_t> edges;
  for (size_t e : {size_t{1}, size_t{9}, size_t{513}, size_t{1017}}) {
    for (size_t d : {e - 1, e, e + 1}) {
      if (d <= count) edges.push_back(d);
    }
  }
  edges.push_back(count);
  std::vector<int64_t> out;
  for (size_t begin : edges) {
    for (size_t end : edges) {
      if (begin >= end) continue;
      ASSERT_TRUE(
          SimdDecode(col.bytes, col.bytes.size(), begin, end, &out).ok());
      ASSERT_TRUE(std::equal(out.begin(), out.end(), values.begin() + begin))
          << "[" << begin << ", " << end << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, SprintzSimdWidthTest,
                         ::testing::Range(0, 65));

TEST(SprintzSimdTest, TruncatedColumnsFailLikeReference) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "no AVX2";
  for (int width : {0, 1, 7, 25, 26, 32, 33, 64}) {
    std::vector<int64_t> values = ValuesAtWidth(width, 41, width + 3);
    enc::EncodedColumn col =
        enc::SprintzEncoder().Encode(values.data(), values.size());
    for (size_t size = 12; size < col.bytes.size(); ++size) {
      std::vector<int64_t> ref, simd;
      Status rs = ReferenceDecode(col.bytes, size, &ref);
      Status ss = SimdDecode(col.bytes, size, 0, values.size(), &simd);
      ASSERT_EQ(rs.code(), StatusCode::kCorruption) << width << "/" << size;
      EXPECT_EQ(ss.code(), rs.code()) << width << "/" << size;
      EXPECT_EQ(ss.message(), rs.message()) << width << "/" << size;
    }
  }
}

TEST(SprintzSimdTest, CorruptColumnsFailLikeReference) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "no AVX2";
  std::mt19937_64 rng(99);
  std::vector<int64_t> values = ValuesAtWidth(12, 200, 5);
  enc::EncodedColumn col =
      enc::SprintzEncoder().Encode(values.data(), values.size());
  // A width byte above 64.
  for (int bad : {65, 100, 255}) {
    std::vector<uint8_t> bytes = col.bytes;
    bytes[12] = static_cast<uint8_t>(bad);
    std::vector<int64_t> ref, simd;
    Status rs = ReferenceDecode(bytes, bytes.size(), &ref);
    EXPECT_EQ(rs.code(), StatusCode::kCorruption);
    EXPECT_EQ(SimdDecode(bytes, bytes.size(), 0, values.size(), &simd).code(),
              rs.code());
  }
  // Random byte flips: both decoders agree on the status and the values.
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes = col.bytes;
    bytes[12 + rng() % (bytes.size() - 12)] ^=
        static_cast<uint8_t>(1 + rng() % 255);
    std::vector<int64_t> ref, simd;
    Status rs = ReferenceDecode(bytes, bytes.size(), &ref);
    Status ss = SimdDecode(bytes, bytes.size(), 0, values.size(), &simd);
    ASSERT_EQ(ss.code(), rs.code()) << trial;
    if (rs.ok()) {
      ASSERT_EQ(simd, ref) << trial;
    }
  }
}

TEST(SprintzSimdTest, ColumnDecoderMatchesSerialStrategy) {
  std::vector<int64_t> values(3001);
  std::mt19937_64 rng(3);
  int64_t v = 0;
  for (auto& x : values) {
    v += (rng() % 50 == 0) ? static_cast<int64_t>(rng() % 100000) - 50000
                           : static_cast<int64_t>(rng() % 7) - 3;
    x = v;
  }
  enc::EncodedColumn col =
      enc::SprintzEncoder().Encode(values.data(), values.size());
  std::vector<uint8_t> buf = WithSlack(col.bytes, col.bytes.size());
  for (auto [begin, end] : {std::pair<size_t, size_t>{0, 3001},
                            {1, 9},
                            {100, 2000},
                            {2999, 3001}}) {
    for (exec::DecodeStrategy s :
         {exec::DecodeStrategy::kEtsqp, exec::DecodeStrategy::kSerial,
          exec::DecodeStrategy::kSboost}) {
      exec::DecodedColumn out;
      ASSERT_TRUE(exec::DecodeColumnRange(
                      buf.data(), col.bytes.size(),
                      enc::ColumnEncoding::kSprintz, col.count, s, begin,
                      end, &out)
                      .ok());
      ASSERT_EQ(out.size(), end - begin);
      for (size_t i = begin; i < end; ++i) {
        ASSERT_EQ(out.Get(i - begin), values[i])
            << exec::DecodeStrategyName(s) << " at " << i;
      }
    }
  }
}

// ------------------------------------------------------------- BitReader

/// The bit-at-a-time reader the word-at-a-time BitReader replaced.
class ReferenceBitReader {
 public:
  ReferenceBitReader(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}

  uint64_t ReadBits(int bits) {
    uint64_t v = 0;
    for (int i = 0; i < bits; ++i) v = (v << 1) | ReadBit();
    return v;
  }
  uint32_t ReadBit() {
    size_t byte = bit_pos_ >> 3;
    if (byte >= size_) {
      exhausted_ = true;
      return 0;
    }
    uint32_t b = (data_[byte] >> (7 - (bit_pos_ & 7))) & 1;
    ++bit_pos_;
    return b;
  }
  void AlignToByte() { bit_pos_ = RoundUp(bit_pos_, 8); }
  void SeekBits(size_t bit_pos) {
    bit_pos_ = bit_pos;
    exhausted_ = bit_pos_ > size_ * 8;
  }
  size_t bit_pos() const { return bit_pos_; }
  size_t remaining_bits() const {
    return bit_pos_ >= size_ * 8 ? 0 : size_ * 8 - bit_pos_;
  }
  bool exhausted() const { return exhausted_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t bit_pos_ = 0;
  bool exhausted_ = false;
};

#define EXPECT_SAME_STATE(r, ref, ctx)                       \
  do {                                                       \
    EXPECT_EQ((r).bit_pos(), (ref).bit_pos()) << ctx;        \
    EXPECT_EQ((r).remaining_bits(), (ref).remaining_bits()) << ctx; \
    EXPECT_EQ((r).exhausted(), (ref).exhausted()) << ctx;    \
  } while (0)

/// Random bytes in a heap buffer of exactly `size` bytes.
std::vector<uint8_t> RandomBytes(size_t size, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint8_t> bytes(size);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng());
  return bytes;
}

TEST(BitReaderTest, EveryWidthAndSizeMatchesReference) {
  for (size_t size = 0; size <= 24; ++size) {
    std::vector<uint8_t> bytes = RandomBytes(size, size);
    for (int width = 0; width <= 64; ++width) {
      BitReader r(bytes.data(), size);
      ReferenceBitReader ref(bytes.data(), size);
      // Read on past the end: an over-read returns the bits left followed
      // by zeros and stops at the end of the span.
      const size_t reads = width == 0 ? 3 : size * 8 / width + 3;
      for (size_t k = 0; k < reads; ++k) {
        ASSERT_EQ(r.ReadBits(width), ref.ReadBits(width))
            << "size " << size << " width " << width << " read " << k;
        EXPECT_SAME_STATE(r, ref, "size " << size << " width " << width);
      }
    }
  }
}

TEST(BitReaderTest, MixedWidthsSeeksAndAlignsMatchReference) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t size = rng() % 40;
    std::vector<uint8_t> bytes = RandomBytes(size, trial + 100);
    BitReader r(bytes.data(), size);
    ReferenceBitReader ref(bytes.data(), size);
    for (int op = 0; op < 60; ++op) {
      const uint64_t pick = rng() % 16;
      if (pick == 0) {
        r.AlignToByte();
        ref.AlignToByte();
      } else if (pick == 1) {
        // Seeks land anywhere, the end of the span and past it included.
        const size_t to = rng() % (size * 8 + 20);
        r.SeekBits(to);
        ref.SeekBits(to);
      } else if (pick == 2) {
        ASSERT_EQ(r.ReadBit(), ref.ReadBit()) << trial << "/" << op;
      } else {
        const int width = static_cast<int>(rng() % 65);
        ASSERT_EQ(r.ReadBits(width), ref.ReadBits(width))
            << trial << "/" << op << " width " << width;
      }
      EXPECT_SAME_STATE(r, ref, trial << "/" << op);
    }
  }
}

TEST(BitReaderTest, ExhaustedStaysSetUntilSeek) {
  const uint8_t bytes[2] = {0xF0, 0x0F};
  BitReader r(bytes, 2);
  EXPECT_EQ(r.ReadBits(12), 0xF00u);
  EXPECT_FALSE(r.exhausted());
  EXPECT_EQ(r.ReadBits(8), 0xF0u);  // 4 bits left, then 4 zeros
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.bit_pos(), 16u);
  r.AlignToByte();
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.ReadBits(0), 0u);
  EXPECT_TRUE(r.exhausted());
  r.SeekBits(4);
  EXPECT_FALSE(r.exhausted());
  EXPECT_EQ(r.ReadBits(12), 0x00Fu);
  EXPECT_FALSE(r.exhausted());
  r.SeekBits(17);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.remaining_bits(), 0u);
}

// ------------------------------------------------------------- BitWriter

/// The bit-at-a-time writer the accumulator BitWriter replaced.
class ReferenceBitWriter {
 public:
  void WriteBits(uint64_t value, int bits) {
    for (int i = bits - 1; i >= 0; --i) WriteBit((value >> i) & 1);
  }
  void WriteBit(uint32_t bit) {
    if (bit_pos_ == 0) buffer_.push_back(0);
    if (bit) buffer_.back() |= static_cast<uint8_t>(0x80u >> bit_pos_);
    bit_pos_ = (bit_pos_ + 1) & 7;
  }
  void AlignToByte() { bit_pos_ = 0; }
  size_t bit_count() const {
    return bit_pos_ == 0 ? buffer_.size() * 8
                         : (buffer_.size() - 1) * 8 + bit_pos_;
  }
  const std::vector<uint8_t>& bytes() const { return buffer_; }

 private:
  std::vector<uint8_t> buffer_;
  int bit_pos_ = 0;
};

TEST(BitWriterTest, EveryWidthMatchesReference) {
  std::mt19937_64 rng(5);
  for (int width = 0; width <= 64; ++width) {
    // The fields start after `lead` bits already written, so they cross
    // the accumulator's word boundary at every offset.
    for (int lead = 0; lead < 64; ++lead) {
      BitWriter w;
      ReferenceBitWriter ref;
      const uint64_t head = rng();
      w.WriteBits(head, lead);
      ref.WriteBits(head, lead);
      for (int k = 0; k < 20; ++k) {
        // Bits above `width` in the value are ignored.
        const uint64_t v = rng();
        w.WriteBits(v, width);
        ref.WriteBits(v, width);
        ASSERT_EQ(w.bit_count(), ref.bit_count()) << width << "/" << lead;
      }
      EXPECT_EQ(w.TakeBuffer(), ref.bytes()) << width << "/" << lead;
    }
  }
}

TEST(BitWriterTest, MixedFieldsAndAlignsMatchReference) {
  std::mt19937_64 rng(21);
  for (int trial = 0; trial < 500; ++trial) {
    BitWriter w;
    ReferenceBitWriter ref;
    const int ops = static_cast<int>(rng() % 80);
    for (int op = 0; op < ops; ++op) {
      const uint64_t pick = rng() % 10;
      if (pick == 0) {
        w.AlignToByte();
        ref.AlignToByte();
      } else if (pick == 1) {
        const uint32_t bit = static_cast<uint32_t>(rng() % 3);
        w.WriteBit(bit);
        ref.WriteBit(bit);
      } else {
        const int width = static_cast<int>(rng() % 65);
        const uint64_t v = rng();
        w.WriteBits(v, width);
        ref.WriteBits(v, width);
      }
      ASSERT_EQ(w.bit_count(), ref.bit_count()) << trial << "/" << op;
    }
    EXPECT_EQ(w.TakeBuffer(), ref.bytes()) << trial;
    EXPECT_EQ(w.bit_count(), 0u);
  }
}

}  // namespace
}  // namespace etsqp
