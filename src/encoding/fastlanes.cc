#include "encoding/fastlanes.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/bitstream.h"
#include "encoding/bitpack.h"

namespace etsqp::enc {

namespace {
constexpr uint32_t kBlock = FastLanesEncoder::kBlockValues;
constexpr uint32_t kLanes = FastLanesEncoder::kLanes;
constexpr uint32_t kDeltasPerBlock = kBlock - kLanes;  // 992
}  // namespace

EncodedColumn FastLanesEncoder::Encode(const int64_t* values,
                                       size_t n) const {
  EncodedColumn col;
  col.encoding = ColumnEncoding::kFastLanes;
  col.count = static_cast<uint32_t>(n);
  std::vector<uint8_t>& out = col.bytes;

  uint32_t num_blocks = n == 0 ? 0 : static_cast<uint32_t>(CeilDiv(n, kBlock));
  PutFixed32BE(&out, static_cast<uint32_t>(n));
  PutFixed32BE(&out, num_blocks);

  std::vector<int64_t> padded(kBlock);
  std::vector<uint64_t> residuals(kDeltasPerBlock);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    size_t s = static_cast<size_t>(b) * kBlock;
    size_t have = std::min<size_t>(kBlock, n - s);
    std::copy(values + s, values + s + have, padded.begin());
    // Pad the tail with the last value: vertical deltas in padded lanes
    // become constant, costing only the block width.
    for (size_t i = have; i < kBlock; ++i) padded[i] = padded[have - 1];

    int64_t min_delta = padded[kLanes] - padded[0];
    int64_t max_delta = min_delta;
    for (uint32_t i = kLanes; i < kBlock; ++i) {
      int64_t d = padded[i] - padded[i - kLanes];
      min_delta = std::min(min_delta, d);
      max_delta = std::max(max_delta, d);
    }
    int width = BitWidth(static_cast<uint64_t>(max_delta - min_delta));

    out.push_back(static_cast<uint8_t>(width));
    PutFixed64BE(&out, static_cast<uint64_t>(min_delta));
    for (uint32_t l = 0; l < kLanes; ++l) {
      PutFixed64BE(&out, static_cast<uint64_t>(padded[l]));
    }
    for (uint32_t i = kLanes; i < kBlock; ++i) {
      residuals[i - kLanes] =
          static_cast<uint64_t>(padded[i] - padded[i - kLanes] - min_delta);
    }
    BitWriter writer;
    PackBE(residuals.data(), residuals.size(), width, &writer);
    std::vector<uint8_t> packed = writer.TakeBuffer();
    out.insert(out.end(), packed.begin(), packed.end());
  }
  return col;
}

Result<FastLanesColumn> FastLanesColumn::Parse(const uint8_t* data,
                                               size_t size) {
  if (size < 8) return Status::Corruption("fastlanes: header truncated");
  FastLanesColumn col;
  col.count_ = GetFixed32BE(data);
  uint32_t num_blocks = GetFixed32BE(data + 4);
  // Blocks hold exactly 1024 logical slots; the count must land inside the
  // last block (corrupted headers otherwise underflow num_values below).
  uint64_t capacity = static_cast<uint64_t>(num_blocks) * kBlock;
  uint64_t floor = num_blocks == 0 ? 0
                                   : (static_cast<uint64_t>(num_blocks) - 1) *
                                             kBlock +
                                         1;
  if (col.count_ > capacity || col.count_ < floor) {
    return Status::Corruption("fastlanes: count/block mismatch");
  }
  size_t pos = 8;
  col.blocks_.reserve(num_blocks);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    if (pos + 9 + kLanes * 8 > size) {
      return Status::Corruption("fastlanes: block truncated");
    }
    FastLanesBlock blk;
    blk.width = data[pos];
    blk.min_delta = static_cast<int64_t>(GetFixed64BE(data + pos + 1));
    pos += 9;
    blk.base_row = data + pos;
    pos += kLanes * 8;
    blk.packed = data + pos;
    blk.packed_bytes = PackedBytes(kDeltasPerBlock, blk.width);
    if (pos + blk.packed_bytes > size) {
      return Status::Corruption("fastlanes: packed data truncated");
    }
    pos += blk.packed_bytes;
    blk.start_index = b * kBlock;
    blk.num_values = std::min(kBlock, col.count_ - blk.start_index);
    col.blocks_.push_back(blk);
  }
  return col;
}

void FastLanesColumn::DecodeBlock(const FastLanesBlock& block, int64_t* out) {
  for (uint32_t l = 0; l < kLanes; ++l) {
    out[l] = static_cast<int64_t>(GetFixed64BE(block.base_row + l * 8));
  }
  size_t bit = 0;
  for (uint32_t i = kLanes; i < kBlock; ++i) {
    uint64_t r = UnpackOneBE(block.packed, bit, block.width);
    bit += block.width;
    out[i] = WrapAdd64(WrapAdd64(out[i - kLanes], block.min_delta),
                       static_cast<int64_t>(r));
  }
}

Status FastLanesColumn::DecodeAll(int64_t* out) const {
  std::vector<int64_t> tmp(kBlock);
  for (const FastLanesBlock& blk : blocks_) {
    DecodeBlock(blk, tmp.data());
    std::copy(tmp.begin(), tmp.begin() + blk.num_values,
              out + blk.start_index);
  }
  return Status::Ok();
}

}  // namespace etsqp::enc
