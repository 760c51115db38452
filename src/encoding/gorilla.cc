#include "encoding/gorilla.h"

#include <bit>
#include <cstring>

#include "common/bit_util.h"
#include "common/bitstream.h"

namespace etsqp::enc {

namespace {

// Delta-of-delta residual classes (zigzagged): bits used per class.
constexpr int kDodBits7 = 7;
constexpr int kDodBits9 = 9;
constexpr int kDodBits12 = 12;

}  // namespace

EncodedColumn GorillaTimestampEncoder::Encode(const int64_t* values,
                                              size_t n) const {
  EncodedColumn col;
  col.encoding = ColumnEncoding::kGorilla;
  col.count = static_cast<uint32_t>(n);
  std::vector<uint8_t>& out = col.bytes;
  PutFixed32BE(&out, static_cast<uint32_t>(n));
  PutFixed64BE(&out, n > 0 ? static_cast<uint64_t>(values[0]) : 0);
  PutFixed64BE(&out, n > 1 ? static_cast<uint64_t>(values[1]) : 0);

  BitWriter w;
  int64_t prev_delta = n > 1 ? WrapSub64(values[1], values[0]) : 0;
  for (size_t i = 2; i < n; ++i) {
    int64_t delta = WrapSub64(values[i], values[i - 1]);
    int64_t dod = WrapSub64(delta, prev_delta);
    prev_delta = delta;
    uint64_t zz = ZigZagEncode64(dod);
    if (zz == 0) {
      w.WriteBit(0);
    } else if (zz < (1ull << kDodBits7)) {
      w.WriteBits(0b10, 2);
      w.WriteBits(zz, kDodBits7);
    } else if (zz < (1ull << kDodBits9)) {
      w.WriteBits(0b110, 3);
      w.WriteBits(zz, kDodBits9);
    } else if (zz < (1ull << kDodBits12)) {
      w.WriteBits(0b1110, 4);
      w.WriteBits(zz, kDodBits12);
    } else {
      w.WriteBits(0b1111, 4);
      w.WriteBits(zz, 64);
    }
  }
  std::vector<uint8_t> stream = w.TakeBuffer();
  out.insert(out.end(), stream.begin(), stream.end());
  return col;
}

Status GorillaTimestampDecode(const uint8_t* data, size_t size,
                              uint32_t count, int64_t* out) {
  if (size < 20) return Status::Corruption("gorilla-ts: header truncated");
  uint32_t n = GetFixed32BE(data);
  if (n != count) return Status::Corruption("gorilla-ts: count mismatch");
  if (n == 0) return Status::Ok();
  out[0] = static_cast<int64_t>(GetFixed64BE(data + 4));
  if (n == 1) return Status::Ok();
  out[1] = static_cast<int64_t>(GetFixed64BE(data + 12));

  BitReader r(data + 20, size - 20);
  int64_t prev_delta = WrapSub64(out[1], out[0]);
  int64_t prev = out[1];
  for (size_t i = 2; i < n; ++i) {
    int64_t dod = 0;
    if (r.ReadBit() != 0) {
      int bits;
      if (r.ReadBit() == 0) {
        bits = kDodBits7;
      } else if (r.ReadBit() == 0) {
        bits = kDodBits9;
      } else if (r.ReadBit() == 0) {
        bits = kDodBits12;
      } else {
        bits = 64;
      }
      dod = ZigZagDecode64(r.ReadBits(bits));
    }
    if (r.exhausted()) return Status::Corruption("gorilla-ts: truncated");
    prev_delta = WrapAdd64(prev_delta, dod);
    prev = WrapAdd64(prev, prev_delta);
    out[i] = prev;
  }
  return Status::Ok();
}

EncodedColumn GorillaValueEncoder::Encode(const uint64_t* words,
                                          size_t n) const {
  EncodedColumn col;
  col.encoding = ColumnEncoding::kGorillaValue;
  col.count = static_cast<uint32_t>(n);
  std::vector<uint8_t>& out = col.bytes;
  PutFixed32BE(&out, static_cast<uint32_t>(n));
  PutFixed64BE(&out, n > 0 ? words[0] : 0);

  BitWriter w;
  uint64_t prev = n > 0 ? words[0] : 0;
  int prev_lead = -1;  // invalid: force a new window first
  int prev_len = 0;
  for (size_t i = 1; i < n; ++i) {
    uint64_t x = words[i] ^ prev;
    prev = words[i];
    if (x == 0) {
      w.WriteBit(0);
      continue;
    }
    w.WriteBit(1);
    int lead = std::countl_zero(x);
    int trail = std::countr_zero(x);
    if (lead > 31) lead = 31;  // 5-bit field
    int len = 64 - lead - trail;
    if (prev_lead >= 0 && lead >= prev_lead &&
        64 - lead - trail <= prev_len &&
        trail >= 64 - prev_lead - prev_len) {
      // Fits the previous window: reuse it.
      w.WriteBit(0);
      w.WriteBits(x >> (64 - prev_lead - prev_len), prev_len);
    } else {
      w.WriteBit(1);
      w.WriteBits(static_cast<uint64_t>(lead), 5);
      w.WriteBits(static_cast<uint64_t>(len == 64 ? 0 : len), 6);  // 64 -> 0
      w.WriteBits(x >> trail, len);
      prev_lead = lead;
      prev_len = len;
    }
  }
  std::vector<uint8_t> stream = w.TakeBuffer();
  out.insert(out.end(), stream.begin(), stream.end());
  return col;
}

EncodedColumn GorillaValueEncoder::EncodeDoubles(const double* values,
                                                 size_t n) const {
  std::vector<uint64_t> words(n);
  std::memcpy(words.data(), values, n * sizeof(double));
  return Encode(words.data(), n);
}

Status GorillaValueDecodeDoubles(const uint8_t* data, size_t size,
                                 uint32_t count, double* out) {
  if (size < 12) return Status::Corruption("gorilla-val: header truncated");
  uint32_t n = GetFixed32BE(data);
  if (n != count) return Status::Corruption("gorilla-val: count mismatch");
  if (n == 0) return Status::Ok();
  uint64_t prev = GetFixed64BE(data + 4);
  out[0] = std::bit_cast<double>(prev);

  BitReader r(data + 12, size - 12);
  int prev_lead = 0;
  int prev_len = 0;
  for (size_t i = 1; i < n; ++i) {
    if (r.ReadBit() == 0) {
      out[i] = std::bit_cast<double>(prev);
      continue;
    }
    if (r.ReadBit() == 0) {
      // The encoder opens a window before reusing one.
      if (prev_len == 0) return Status::Corruption("gorilla-val: no window");
      uint64_t bits = r.ReadBits(prev_len);
      uint64_t x = bits << (64 - prev_lead - prev_len);
      prev ^= x;
    } else {
      int lead = static_cast<int>(r.ReadBits(5));
      int len = static_cast<int>(r.ReadBits(6));
      if (len == 0) len = 64;
      uint64_t bits = r.ReadBits(len);
      int trail = 64 - lead - len;
      if (trail < 0) return Status::Corruption("gorilla-val: bad window");
      prev ^= bits << trail;
      prev_lead = lead;
      prev_len = len;
    }
    if (r.exhausted()) return Status::Corruption("gorilla-val: truncated");
    out[i] = std::bit_cast<double>(prev);
  }
  return Status::Ok();
}

}  // namespace etsqp::enc
