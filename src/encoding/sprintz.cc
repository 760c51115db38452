#include "encoding/sprintz.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/bitstream.h"
#include "encoding/bitpack.h"

namespace etsqp::enc {

EncodedColumn SprintzEncoder::Encode(const int64_t* values, size_t n) const {
  EncodedColumn col;
  col.encoding = ColumnEncoding::kSprintz;
  col.count = static_cast<uint32_t>(n);
  // Header and every block go through one writer: each block starts on a
  // byte boundary, so its width byte lands whole.
  BitWriter writer;
  writer.WriteBits(n, 32);
  writer.WriteBits(n > 0 ? static_cast<uint64_t>(values[0]) : 0, 64);
  uint64_t zz[kBlockValues];
  for (size_t s = 1; s < n; s += kBlockValues) {
    const size_t m = std::min(n - s, kBlockValues);
    uint64_t max_zz = 0;
    for (size_t i = 0; i < m; ++i) {
      zz[i] = ZigZagEncode64(WrapSub64(values[s + i], values[s + i - 1]));
      max_zz = std::max(max_zz, zz[i]);
    }
    const int width = BitWidth(max_zz);
    writer.WriteBits(static_cast<uint64_t>(width), 8);
    PackBE(zz, m, width, &writer);
    writer.AlignToByte();
  }
  col.bytes = writer.TakeBuffer();
  return col;
}

Result<SprintzColumn> SprintzColumn::Parse(const uint8_t* data, size_t size) {
  if (size < 12) return Status::Corruption("sprintz: header truncated");
  SprintzColumn col;
  col.count_ = GetFixed32BE(data);
  col.first_value_ = static_cast<int64_t>(GetFixed64BE(data + 4));
  col.blocks_ = data + 12;
  col.blocks_bytes_ = size - 12;
  return col;
}

Status SprintzColumn::DecodeAll(int64_t* out) const {
  if (count_ == 0) return Status::Ok();
  out[0] = first_value_;
  int64_t prev = first_value_;
  size_t pos = 1;
  size_t byte = 0;
  uint64_t vals[SprintzEncoder::kBlockValues];
  while (pos < count_) {
    if (byte >= blocks_bytes_) {
      return Status::Corruption("sprintz: block header truncated");
    }
    int width = blocks_[byte++];
    if (width > 64) return Status::Corruption("sprintz: bad block width");
    size_t m = std::min<size_t>(SprintzEncoder::kBlockValues, count_ - pos);
    if (!UnpackBE64(blocks_ + byte, blocks_bytes_ - byte, 0, m, width, vals)) {
      return Status::Corruption("sprintz: packed data truncated");
    }
    byte += PackedBytes(m, width);
    for (size_t i = 0; i < m; ++i) {
      prev = WrapAdd64(prev, ZigZagDecode64(vals[i]));
      out[pos++] = prev;
    }
  }
  return Status::Ok();
}

}  // namespace etsqp::enc
