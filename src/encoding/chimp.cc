#include "encoding/chimp.h"

#include <bit>
#include <cstring>
#include <vector>

#include "common/bit_util.h"
#include "common/bitstream.h"

namespace etsqp::enc {

namespace {

// Chimp rounds leading-zero counts down to one of 8 classes.
constexpr int kLeadClass[8] = {0, 8, 12, 16, 18, 20, 22, 24};

int LeadToClass(int lead) {
  int cls = 0;
  for (int i = 7; i >= 0; --i) {
    if (lead >= kLeadClass[i]) {
      cls = i;
      break;
    }
  }
  return cls;
}

}  // namespace

EncodedColumn ChimpEncoder::Encode(const uint64_t* words, size_t n) const {
  EncodedColumn col;
  col.encoding = ColumnEncoding::kChimpValue;
  col.count = static_cast<uint32_t>(n);
  std::vector<uint8_t>& out = col.bytes;
  PutFixed32BE(&out, static_cast<uint32_t>(n));
  PutFixed64BE(&out, n > 0 ? words[0] : 0);

  BitWriter w;
  uint64_t prev = n > 0 ? words[0] : 0;
  int prev_cls = 0;
  for (size_t i = 1; i < n; ++i) {
    uint64_t x = words[i] ^ prev;
    prev = words[i];
    if (x == 0) {
      w.WriteBits(0b00, 2);
      continue;
    }
    int lead = std::countl_zero(x);
    int trail = std::countr_zero(x);
    int cls = LeadToClass(lead);
    int cls_lead = kLeadClass[cls];
    if (trail >= 6) {
      // flag 01: center bits with explicit length.
      int len = 64 - cls_lead - trail;
      w.WriteBits(0b01, 2);
      w.WriteBits(static_cast<uint64_t>(cls), 3);
      w.WriteBits(static_cast<uint64_t>(len), 6);
      w.WriteBits(x >> trail, len);
      prev_cls = cls;
    } else if (cls == prev_cls) {
      // flag 10: reuse class, write full tail.
      w.WriteBits(0b10, 2);
      w.WriteBits(x, 64 - kLeadClass[prev_cls]);
    } else {
      // flag 11: new class, write full tail.
      w.WriteBits(0b11, 2);
      w.WriteBits(static_cast<uint64_t>(cls), 3);
      w.WriteBits(x, 64 - cls_lead);
      prev_cls = cls;
    }
  }
  std::vector<uint8_t> stream = w.TakeBuffer();
  out.insert(out.end(), stream.begin(), stream.end());
  return col;
}

EncodedColumn ChimpEncoder::EncodeDoubles(const double* values,
                                          size_t n) const {
  std::vector<uint64_t> words(n);
  std::memcpy(words.data(), values, n * sizeof(double));
  return Encode(words.data(), n);
}

namespace {

/// The decode into words or doubles: `Out` is the 8-byte type each decoded
/// bit pattern is stored as.
template <typename Out>
Status DecodeChimp(const uint8_t* data, size_t size, uint32_t count,
                   Out* out) {
  if (size < 12) return Status::Corruption("chimp: header truncated");
  uint32_t n = GetFixed32BE(data);
  if (n != count) return Status::Corruption("chimp: count mismatch");
  if (n == 0) return Status::Ok();
  uint64_t prev = GetFixed64BE(data + 4);
  out[0] = std::bit_cast<Out>(prev);

  BitReader r(data + 12, size - 12);
  int prev_cls = 0;
  for (size_t i = 1; i < n; ++i) {
    uint32_t flag = static_cast<uint32_t>(r.ReadBits(2));
    uint64_t x = 0;
    switch (flag) {
      case 0b00:
        break;
      case 0b01: {
        int cls = static_cast<int>(r.ReadBits(3));
        int len = static_cast<int>(r.ReadBits(6));
        uint64_t bits = r.ReadBits(len);
        int trail = 64 - kLeadClass[cls] - len;
        if (len == 0 || trail < 0) {
          return Status::Corruption("chimp: bad center length");
        }
        x = bits << trail;
        prev_cls = cls;
        break;
      }
      case 0b10:
        x = r.ReadBits(64 - kLeadClass[prev_cls]);
        break;
      case 0b11: {
        int cls = static_cast<int>(r.ReadBits(3));
        x = r.ReadBits(64 - kLeadClass[cls]);
        prev_cls = cls;
        break;
      }
    }
    if (r.exhausted()) return Status::Corruption("chimp: truncated");
    prev ^= x;
    out[i] = std::bit_cast<Out>(prev);
  }
  return Status::Ok();
}

}  // namespace

Status ChimpDecode(const uint8_t* data, size_t size, uint32_t count,
                   uint64_t* out) {
  return DecodeChimp(data, size, count, out);
}

Status ChimpDecodeDoubles(const uint8_t* data, size_t size, uint32_t count,
                          double* out) {
  return DecodeChimp(data, size, count, out);
}

}  // namespace etsqp::enc
