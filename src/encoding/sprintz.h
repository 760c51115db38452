#ifndef ETSQP_ENCODING_SPRINTZ_H_
#define ETSQP_ENCODING_SPRINTZ_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "encoding/format.h"

namespace etsqp::enc {

/// Sprintz (paper Table I): Delta (+-) -> ZigZag -> BitPack in small blocks.
/// Each block of up to 8 deltas carries a one-byte width header; zigzagged
/// residuals are bit-packed with that width. Small blocks track fast width
/// changes, which is Sprintz's selling point for spiky IoT data.
///
/// Serialized layout: u32 count | i64 first_value | repeated blocks of
///   { u8 width | packed zigzag deltas (byte-aligned) }.

class SprintzEncoder {
 public:
  static constexpr size_t kBlockValues = 8;

  EncodedColumn Encode(const int64_t* values, size_t n) const;
};

class SprintzColumn {
 public:
  static Result<SprintzColumn> Parse(const uint8_t* data, size_t size);

  uint32_t count() const { return count_; }
  int64_t first_value() const { return first_value_; }
  /// The block stream after the 12-byte header.
  const uint8_t* blocks() const { return blocks_; }
  size_t blocks_bytes() const { return blocks_bytes_; }

  /// Reference scalar decode into out[count()]. A width byte above 64 or a
  /// block past the end of the stream is Corruption.
  Status DecodeAll(int64_t* out) const;

 private:
  uint32_t count_ = 0;
  int64_t first_value_ = 0;
  const uint8_t* blocks_ = nullptr;
  size_t blocks_bytes_ = 0;
};

}  // namespace etsqp::enc

#endif  // ETSQP_ENCODING_SPRINTZ_H_
