#ifndef ETSQP_COMMON_BITSTREAM_H_
#define ETSQP_COMMON_BITSTREAM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bit_util.h"

namespace etsqp {

/// Big-Endian bit writer. IoT encoders flush encoded blocks in Big-Endian
/// (paper Figure 1(b)): the most significant bit of each written field comes
/// first in the byte stream. The writer appends to an internal byte buffer.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `bits` bits of `value`, MSB first. `bits` in [0, 64].
  void WriteBits(uint64_t value, int bits) {
    for (int i = bits - 1; i >= 0; --i) {
      WriteBit((value >> i) & 1);
    }
  }

  void WriteBit(uint32_t bit) {
    if (bit_pos_ == 0) buffer_.push_back(0);
    if (bit) buffer_.back() |= static_cast<uint8_t>(0x80u >> bit_pos_);
    bit_pos_ = (bit_pos_ + 1) & 7;
  }

  /// Pads with zero bits to the next byte boundary.
  void AlignToByte() { bit_pos_ = 0; }

  /// Total bits written so far.
  size_t bit_count() const {
    return bit_pos_ == 0 ? buffer_.size() * 8
                         : (buffer_.size() - 1) * 8 + bit_pos_;
  }

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() {
    bit_pos_ = 0;
    return std::move(buffer_);
  }

 private:
  std::vector<uint8_t> buffer_;
  int bit_pos_ = 0;  // next free bit within buffer_.back(), 0 == byte aligned
};

/// Big-Endian bit reader over an external byte span. Reads never touch bytes
/// past `size`; over-reads are reported by `exhausted()`.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  /// Reads `bits` bits MSB-first. Returns 0 and sets exhausted on over-read.
  uint64_t ReadBits(int bits) {
    uint64_t v = 0;
    for (int i = 0; i < bits; ++i) {
      v = (v << 1) | ReadBit();
    }
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

  /// Skips forward to the next byte boundary.
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

/// Writes `v` as 8 Big-Endian bytes / reads them back. Page headers use these
/// for fixed-width fields. The reads sit in every block-header parse, so
/// they are inline: one unaligned load and a byte swap.
void PutFixed64BE(std::vector<uint8_t>* dst, uint64_t v);
void PutFixed32BE(std::vector<uint8_t>* dst, uint32_t v);

inline uint64_t GetFixed64BE(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline uint32_t GetFixed32BE(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  return v;
}

}  // namespace etsqp

#endif  // ETSQP_COMMON_BITSTREAM_H_
