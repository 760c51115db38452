#include "encoding/delta_rle.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/bitstream.h"
#include "encoding/bitpack.h"

namespace etsqp::enc {

EncodedColumn DeltaRleEncoder::Encode(const int64_t* values, size_t n) const {
  EncodedColumn col;
  col.encoding = ColumnEncoding::kDeltaRle;
  col.count = static_cast<uint32_t>(n);
  std::vector<uint8_t>& out = col.bytes;

  // Delta + run-length the delta sequence.
  std::vector<DeltaRun> pairs;
  int64_t min_delta = 0;
  int64_t max_delta = 0;
  uint32_t max_run = 1;
  if (n > 1) {
    min_delta = WrapSub64(values[1], values[0]);
    max_delta = min_delta;
    for (size_t i = 1; i < n;) {
      int64_t d = WrapSub64(values[i], values[i - 1]);
      size_t j = i + 1;
      while (j < n && WrapSub64(values[j], values[j - 1]) == d) ++j;
      uint32_t run = static_cast<uint32_t>(j - i);
      pairs.push_back(DeltaRun{d, run});
      min_delta = std::min(min_delta, d);
      max_delta = std::max(max_delta, d);
      max_run = std::max(max_run, run);
      i = j;
    }
  }
  int delta_width =
      BitWidth(static_cast<uint64_t>(WrapSub64(max_delta, min_delta)));
  int run_width = BitWidth(max_run - 1);

  PutFixed32BE(&out, static_cast<uint32_t>(n));
  PutFixed32BE(&out, static_cast<uint32_t>(pairs.size()));
  out.push_back(static_cast<uint8_t>(delta_width));
  out.push_back(static_cast<uint8_t>(run_width));
  PutFixed64BE(&out, static_cast<uint64_t>(min_delta));
  PutFixed64BE(&out, n > 0 ? static_cast<uint64_t>(values[0]) : 0);

  BitWriter dw;
  for (const DeltaRun& p : pairs) {
    dw.WriteBits(static_cast<uint64_t>(WrapSub64(p.delta, min_delta)),
                 delta_width);
  }
  std::vector<uint8_t> packed = dw.TakeBuffer();
  out.insert(out.end(), packed.begin(), packed.end());

  BitWriter rw;
  for (const DeltaRun& p : pairs) {
    rw.WriteBits(p.run - 1, run_width);
  }
  packed = rw.TakeBuffer();
  out.insert(out.end(), packed.begin(), packed.end());
  return col;
}

int64_t DeltaRleColumn::delta_upper_bound() const {
  int64_t hi;
  if (delta_width_ >= 63 ||
      AddOverflow64(min_delta_, static_cast<int64_t>(MaskLow64(delta_width_)),
                    &hi)) {
    return INT64_MAX;
  }
  return hi;
}

uint32_t DeltaRleColumn::max_run_bound() const {
  if (run_width_ >= 32) return UINT32_MAX;
  return MaskLow32(run_width_) + 1;
}

Result<DeltaRleColumn> DeltaRleColumn::Parse(const uint8_t* data,
                                             size_t size) {
  if (size < 26) return Status::Corruption("delta_rle: header truncated");
  DeltaRleColumn col;
  col.count_ = GetFixed32BE(data);
  col.num_pairs_ = GetFixed32BE(data + 4);
  col.delta_width_ = data[8];
  col.run_width_ = data[9];
  col.min_delta_ = static_cast<int64_t>(GetFixed64BE(data + 10));
  col.first_value_ = static_cast<int64_t>(GetFixed64BE(data + 18));
  // A run covers at least one value, so pairs never exceed count - 1.
  if ((col.count_ == 0 && col.num_pairs_ != 0) ||
      (col.count_ > 0 && col.num_pairs_ > col.count_ - 1)) {
    return Status::Corruption("delta_rle: pair count exceeds value count");
  }
  size_t pos = 26;
  col.packed_delta_bytes_ = PackedBytes(col.num_pairs_, col.delta_width_);
  col.packed_run_bytes_ = PackedBytes(col.num_pairs_, col.run_width_);
  if (pos + col.packed_delta_bytes_ + col.packed_run_bytes_ > size) {
    return Status::Corruption("delta_rle: packed data truncated");
  }
  col.packed_deltas_ = data + pos;
  col.packed_runs_ = data + pos + col.packed_delta_bytes_;
  return col;
}

Status DeltaRleColumn::DecodePairs(std::vector<DeltaRun>* out) const {
  out->clear();
  out->reserve(num_pairs_);
  size_t dpos = 0;
  size_t rpos = 0;
  for (uint32_t i = 0; i < num_pairs_; ++i) {
    uint64_t dr = UnpackOneBE(packed_deltas_, dpos, delta_width_);
    dpos += delta_width_;
    uint64_t rr = UnpackOneBE(packed_runs_, rpos, run_width_);
    rpos += run_width_;
    out->push_back(DeltaRun{WrapAdd64(min_delta_, static_cast<int64_t>(dr)),
                            static_cast<uint32_t>(rr) + 1});
  }
  return Status::Ok();
}

Status DeltaRleColumn::DecodeAll(int64_t* out) const {
  if (count_ == 0) return Status::Ok();
  std::vector<DeltaRun> pairs;
  ETSQP_RETURN_IF_ERROR(DecodePairs(&pairs));
  size_t pos = 0;
  out[pos++] = first_value_;
  int64_t prev = first_value_;
  for (const DeltaRun& p : pairs) {
    for (uint32_t k = 0; k < p.run && pos < count_; ++k) {
      prev = WrapAdd64(prev, p.delta);
      out[pos++] = prev;
    }
  }
  if (pos != count_) return Status::Corruption("delta_rle: count mismatch");
  return Status::Ok();
}

}  // namespace etsqp::enc
