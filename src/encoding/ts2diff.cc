#include "encoding/ts2diff.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/bitstream.h"
#include "encoding/bitpack.h"

namespace etsqp::enc {

EncodedColumn Ts2DiffEncoder::Encode(const int64_t* values, size_t n) const {
  EncodedColumn col;
  col.encoding = ColumnEncoding::kTs2Diff;
  col.count = static_cast<uint32_t>(n);
  std::vector<uint8_t>& out = col.bytes;

  uint32_t num_blocks =
      n == 0 ? 0 : static_cast<uint32_t>(CeilDiv(n, block_size_));
  PutFixed32BE(&out, static_cast<uint32_t>(n));
  PutFixed32BE(&out, block_size_);
  PutFixed32BE(&out, num_blocks);

  std::vector<uint64_t> residuals;
  for (size_t s = 0; s < n; s += block_size_) {
    size_t e = std::min(n, s + block_size_);
    size_t m = e - s - 1;  // deltas in block

    int64_t min_delta = 0;
    int64_t max_delta = 0;
    int64_t min_value = values[s];
    int64_t max_value = values[s];
    if (m > 0) {
      min_delta = WrapSub64(values[s + 1], values[s]);
      max_delta = min_delta;
      for (size_t i = s + 1; i < e; ++i) {
        int64_t d = WrapSub64(values[i], values[i - 1]);
        min_delta = std::min(min_delta, d);
        max_delta = std::max(max_delta, d);
        min_value = std::min(min_value, values[i]);
        max_value = std::max(max_value, values[i]);
      }
    }
    int width = BitWidth(static_cast<uint64_t>(max_delta) -
                         static_cast<uint64_t>(min_delta));

    PutFixed32BE(&out, static_cast<uint32_t>(m));
    out.push_back(static_cast<uint8_t>(width));
    PutFixed64BE(&out, static_cast<uint64_t>(min_delta));
    PutFixed64BE(&out, static_cast<uint64_t>(values[s]));
    PutFixed64BE(&out, static_cast<uint64_t>(min_value));
    PutFixed64BE(&out, static_cast<uint64_t>(max_value));

    residuals.clear();
    residuals.reserve(m);
    for (size_t i = s + 1; i < e; ++i) {
      int64_t d = WrapSub64(values[i], values[i - 1]);
      residuals.push_back(static_cast<uint64_t>(d) -
                          static_cast<uint64_t>(min_delta));
    }
    BitWriter writer;
    PackBE(residuals.data(), residuals.size(), width, &writer);
    std::vector<uint8_t> packed = writer.TakeBuffer();
    out.insert(out.end(), packed.begin(), packed.end());
  }
  return col;
}

int64_t Ts2DiffBlock::delta_upper_bound() const {
  int64_t hi;
  if (width >= 63 ||  // conservative
      AddOverflow64(min_delta, static_cast<int64_t>(MaskLow64(width)), &hi)) {
    return INT64_MAX;
  }
  return hi;
}

Result<Ts2DiffColumn> Ts2DiffColumn::Parse(const uint8_t* data, size_t size) {
  if (size < 12) return Status::Corruption("ts2diff: header truncated");
  Ts2DiffColumn col;
  col.count_ = GetFixed32BE(data);
  col.block_size_ = GetFixed32BE(data + 4);
  uint32_t num_blocks = GetFixed32BE(data + 8);
  size_t pos = 12;
  uint32_t idx = 0;
  // A corrupt block count must not size the reservation: each block takes
  // at least its 37-byte header.
  col.blocks_.reserve(std::min<size_t>(num_blocks, (size - pos) / 37));
  for (uint32_t b = 0; b < num_blocks; ++b) {
    if (pos + 37 > size) return Status::Corruption("ts2diff: block truncated");
    Ts2DiffBlock blk;
    blk.num_deltas = GetFixed32BE(data + pos);
    blk.width = data[pos + 4];
    blk.min_delta = static_cast<int64_t>(GetFixed64BE(data + pos + 5));
    blk.first_value = static_cast<int64_t>(GetFixed64BE(data + pos + 13));
    blk.min_value = static_cast<int64_t>(GetFixed64BE(data + pos + 21));
    blk.max_value = static_cast<int64_t>(GetFixed64BE(data + pos + 29));
    blk.start_index = idx;
    pos += 37;
    blk.packed = data + pos;
    blk.packed_bytes = PackedBytes(blk.num_deltas, blk.width);
    if (pos + blk.packed_bytes > size) {
      return Status::Corruption("ts2diff: packed data truncated");
    }
    pos += blk.packed_bytes;
    idx += blk.num_values();
    col.blocks_.push_back(blk);
  }
  if (idx != col.count_) {
    return Status::Corruption("ts2diff: value count mismatch");
  }
  return col;
}

void Ts2DiffColumn::DecodeBlock(const Ts2DiffBlock& block, int64_t* out) {
  out[0] = block.first_value;
  int64_t prev = block.first_value;
  size_t pos = 0;
  for (uint32_t i = 0; i < block.num_deltas; ++i) {
    uint64_t r = UnpackOneBE(block.packed, pos, block.width);
    pos += block.width;
    // The encoder took deltas modulo 2^64 (WrapSub64), so add them back
    // the same way: a jump across the int64 range must not overflow.
    prev = WrapAdd64(prev,
                     WrapAdd64(block.min_delta, static_cast<int64_t>(r)));
    out[i + 1] = prev;
  }
}

Status Ts2DiffColumn::DecodeAll(int64_t* out) const {
  for (const Ts2DiffBlock& blk : blocks_) {
    DecodeBlock(blk, out + blk.start_index);
  }
  return Status::Ok();
}

}  // namespace etsqp::enc
