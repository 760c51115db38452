#include "encoding/rlbe.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/bitstream.h"
#include "encoding/fibonacci.h"

namespace etsqp::enc {

EncodedColumn RlbeEncoder::Encode(const int64_t* values, size_t n) const {
  EncodedColumn col;
  col.encoding = ColumnEncoding::kRlbe;
  col.count = static_cast<uint32_t>(n);
  std::vector<uint8_t>& out = col.bytes;
  PutFixed32BE(&out, static_cast<uint32_t>(n));
  PutFixed64BE(&out, n > 0 ? static_cast<uint64_t>(values[0]) : 0);

  BitWriter writer;
  for (size_t i = 1; i < n;) {
    int64_t d = WrapSub64(values[i], values[i - 1]);
    size_t j = i + 1;
    while (j < n && WrapSub64(values[j], values[j - 1]) == d) ++j;
    uint32_t run = static_cast<uint32_t>(j - i);
    FibonacciEncode(ZigZagEncode64(d), &writer);
    FibonacciEncode(run - 1, &writer);
    i = j;
  }
  std::vector<uint8_t> stream = writer.TakeBuffer();
  out.insert(out.end(), stream.begin(), stream.end());
  return col;
}

Result<RlbeColumn> RlbeColumn::Parse(const uint8_t* data, size_t size) {
  if (size < 12) return Status::Corruption("rlbe: header truncated");
  RlbeColumn col;
  col.count_ = GetFixed32BE(data);
  col.first_value_ = static_cast<int64_t>(GetFixed64BE(data + 4));
  col.stream_ = data + 12;
  col.stream_bytes_ = size - 12;
  return col;
}

Status RlbeColumn::DecodeAll(int64_t* out) const {
  if (count_ == 0) return Status::Ok();
  BitReader reader(stream_, stream_bytes_);
  size_t pos = 0;
  out[pos++] = first_value_;
  int64_t prev = first_value_;
  while (pos < count_) {
    uint64_t zz, rm1;
    if (!FibonacciDecode(&reader, &zz) || !FibonacciDecode(&reader, &rm1)) {
      return Status::Corruption("rlbe: stream truncated");
    }
    int64_t d = ZigZagDecode64(zz);
    uint64_t run = rm1 + 1;
    for (uint64_t k = 0; k < run && pos < count_; ++k) {
      prev = WrapAdd64(prev, d);
      out[pos++] = prev;
    }
  }
  return Status::Ok();
}

Result<std::vector<RlbeColumn::Anchor>> RlbeColumn::ScanAnchors(
    uint32_t stride) const {
  std::vector<Anchor> anchors;
  if (count_ == 0) return anchors;
  anchors.push_back(Anchor{0, 1, first_value_});
  if (stride == 0) stride = 1;

  BitReader reader(stream_, stream_bytes_);
  uint32_t index = 1;
  int64_t value = first_value_;
  uint32_t last_anchor_index = 1;
  while (index < count_) {
    uint64_t zz, rm1;
    if (!FibonacciDecode(&reader, &zz) || !FibonacciDecode(&reader, &rm1)) {
      return Status::Corruption("rlbe: stream truncated during scan");
    }
    int64_t d = ZigZagDecode64(zz);
    uint64_t run = rm1 + 1;
    uint64_t take = std::min<uint64_t>(run, count_ - index);
    value = WrapAdd64(value, static_cast<int64_t>(static_cast<uint64_t>(d) *
                                                  take));
    index += static_cast<uint32_t>(take);
    if (index - last_anchor_index >= stride && index < count_) {
      anchors.push_back(Anchor{reader.bit_pos(), index, value});
      last_anchor_index = index;
    }
  }
  return anchors;
}

Status RlbeColumn::DecodeFrom(const Anchor& anchor, uint32_t end_index,
                              int64_t* out) const {
  end_index = std::min(end_index, count_);
  if (anchor.value_index == 0 || anchor.value_index > count_) {
    return Status::InvalidArgument("rlbe: bad anchor");
  }
  // Contract: `anchor.value` is the decoded value at position
  // value_index - 1; `out` receives positions [value_index, end_index).
  size_t pos = 0;
  uint32_t index = anchor.value_index;
  int64_t prev = anchor.value;
  BitReader reader(stream_, stream_bytes_);
  reader.SeekBits(anchor.bit_pos);
  while (index < end_index) {
    uint64_t zz, rm1;
    if (!FibonacciDecode(&reader, &zz) || !FibonacciDecode(&reader, &rm1)) {
      return Status::Corruption("rlbe: stream truncated");
    }
    int64_t d = ZigZagDecode64(zz);
    uint64_t run = rm1 + 1;
    for (uint64_t k = 0; k < run && index < end_index; ++k) {
      prev = WrapAdd64(prev, d);
      out[pos++] = prev;
      ++index;
    }
  }
  return Status::Ok();
}

}  // namespace etsqp::enc
