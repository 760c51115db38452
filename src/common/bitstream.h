#ifndef ETSQP_COMMON_BITSTREAM_H_
#define ETSQP_COMMON_BITSTREAM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bit_util.h"

namespace etsqp {

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

/// Big-Endian bit writer. IoT encoders flush encoded blocks in Big-Endian
/// (paper Figure 1(b)): the most significant bit of each written field comes
/// first in the byte stream. Fields collect in a 64-bit accumulator that
/// spills to the byte buffer one whole word at a time.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `bits` bits of `value`, MSB first. `bits` in [0, 64].
  void WriteBits(uint64_t value, int bits) {
    value &= MaskLow64(bits);
    const int room = 64 - used_;  // in [1, 64]
    if (bits < room) {
      acc_ = (acc_ << bits) | value;
      used_ += bits;
      return;
    }
    // The field fills the accumulator: its top `room` bits end the word,
    // the low `rest` bits start the next one.
    const int rest = bits - room;  // in [0, 63]
    Spill(room == 64 ? value : (acc_ << room) | (value >> rest));
    acc_ = value & MaskLow64(rest);
    used_ = rest;
  }

  void WriteBit(uint32_t bit) { WriteBits(bit != 0, 1); }

  /// Pads with zero bits to the next byte boundary.
  void AlignToByte() {
    const int pad = -used_ & 7;
    if (pad == 0) return;
    if (used_ + pad == 64) {
      Spill(acc_ << pad);
      acc_ = 0;
      used_ = 0;
    } else {
      acc_ <<= pad;
      used_ += pad;
    }
  }

  /// Total bits written so far.
  size_t bit_count() const { return buffer_.size() * 8 + used_; }

  /// The written bytes, the last one zero-padded; the writer is left empty.
  std::vector<uint8_t> TakeBuffer() {
    AlignToByte();
    for (int b = used_ - 8; b >= 0; b -= 8) {
      buffer_.push_back(static_cast<uint8_t>(acc_ >> b));
    }
    acc_ = 0;
    used_ = 0;
    return std::move(buffer_);
  }

 private:
  void Spill(uint64_t word) {
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    const size_t at = buffer_.size();
    buffer_.resize(at + 8);
    std::memcpy(buffer_.data() + at, &word, 8);
  }

  std::vector<uint8_t> buffer_;  // whole words spilled so far
  uint64_t acc_ = 0;             // the last `used_` bits written, low-aligned
  int used_ = 0;                 // in [0, 63]
};

/// Big-Endian bit reader over an external byte span. Upcoming bits sit in a
/// 64-bit window refilled with one 8-byte load, so a read is a rotate and a
/// mask. Loads never touch bytes past `size`; over-reads return the bits
/// that remain followed by zeros, stop at the end of the span and are
/// reported by `exhausted()`.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  /// Reads `bits` bits MSB-first, `bits` in [0, 64].
  uint64_t ReadBits(int bits) {
    if (bits <= avail_) return Take(bits);
    return ReadBitsSlow(bits);
  }

  uint32_t ReadBit() { return static_cast<uint32_t>(ReadBits(1)); }

  /// Skips forward to the next byte boundary.
  void AlignToByte() {
    const size_t pos = bit_pos();
    const int skip = static_cast<int>(RoundUp(pos, 8) - pos);
    if (skip <= avail_) {
      Take(skip);
    } else {
      next_bit_ = pos + skip;
      window_ = 0;
      avail_ = 0;
    }
  }

  void SeekBits(size_t bit_pos) {
    next_bit_ = bit_pos;
    window_ = 0;
    avail_ = 0;
    exhausted_ = bit_pos > size_ * 8;
  }

  size_t bit_pos() const { return next_bit_ - avail_; }
  size_t remaining_bits() const {
    const size_t pos = bit_pos();
    return pos >= size_ * 8 ? 0 : size_ * 8 - pos;
  }
  bool exhausted() const { return exhausted_; }

 private:
  /// Consumes `bits` <= avail_ bits from the window.
  uint64_t Take(int bits) {
    const uint64_t rotated = std::rotl(window_, bits);
    const uint64_t mask = MaskLow64(bits);
    window_ = rotated & ~mask;
    avail_ -= bits;
    return rotated & mask;
  }

  uint64_t ReadBitsSlow(int bits) {
    if (bits > 56) {
      // A refill guarantees 57 bits; wider fields read in two parts.
      const uint64_t hi = ReadBits(bits - 32);
      return (hi << 32) | ReadBits(32);
    }
    Refill();
    if (bits <= avail_) return Take(bits);
    const int short_by = bits - avail_;
    exhausted_ = true;
    return Take(avail_) << short_by;
  }

  /// Reloads the window at bit_pos(): 64 bits less the in-byte offset, or
  /// what is left of the span near its end.
  void Refill() {
    const size_t pos = bit_pos();
    const size_t byte = pos >> 3;
    const int offset = static_cast<int>(pos & 7);
    if (byte + 8 <= size_) {
      window_ = GetFixed64BE(data_ + byte) << offset;
      avail_ = 64 - offset;
      next_bit_ = (byte + 8) * 8;
    } else if (byte < size_) {
      uint64_t w = 0;
      for (size_t k = byte; k < size_; ++k) {
        w |= static_cast<uint64_t>(data_[k]) << (56 - 8 * (k - byte));
      }
      window_ = w << offset;
      avail_ = static_cast<int>((size_ - byte) * 8) - offset;
      next_bit_ = size_ * 8;
    } else {
      window_ = 0;
      avail_ = 0;
      next_bit_ = pos;
    }
  }

  const uint8_t* data_;
  size_t size_;
  size_t next_bit_ = 0;  // span bit just past the window
  uint64_t window_ = 0;  // the next `avail_` bits, MSB-aligned, zeros below
  int avail_ = 0;        // in [0, 64]
  bool exhausted_ = false;
};

}  // namespace etsqp

#endif  // ETSQP_COMMON_BITSTREAM_H_
