#ifndef ETSQP_ENCODING_RLBE_H_
#define ETSQP_ENCODING_RLBE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "encoding/format.h"

namespace etsqp::enc {

/// RLBE (paper Table I): Delta (+-) -> Repeat (run-length) -> Fibonacci
/// packing. The delta sequence is run-length encoded into <delta, run> pairs
/// and each pair is written as Fib(ZigZag(delta)) followed by Fib(run - 1) —
/// a fully variable-width bit stream terminated per codeword by "11"
/// (Figure 7). Decoding therefore has no fixed element boundaries; the
/// parallel decoder splits the stream by bits and resynchronizes on "11"
/// separators (Section III-C).
///
/// Serialized layout: u32 count | i64 first_value | fibonacci bit stream.

class RlbeEncoder {
 public:
  EncodedColumn Encode(const int64_t* values, size_t n) const;
};

class RlbeColumn {
 public:
  static Result<RlbeColumn> Parse(const uint8_t* data, size_t size);

  uint32_t count() const { return count_; }
  int64_t first_value() const { return first_value_; }

  /// Reference scalar decode into out[count()].
  Status DecodeAll(int64_t* out) const;

  /// An anchor is a resynchronization point in the variable-width stream:
  /// a codeword boundary with the decoder state (running value, value
  /// index) needed to continue from there. Anchors enable the paper's
  /// Section III-C parallel decoding of variable packing widths: a slice
  /// starts at the nearest anchor and decodes independently.
  struct Anchor {
    size_t bit_pos = 0;     // first bit of the next <delta, run> pair
    uint32_t value_index = 0;  // values decoded before this point
    int64_t value = 0;         // last decoded value
  };

  /// Scans the stream one codeword at a time, keeping the running value but
  /// writing none out, and records an anchor roughly every `stride` values.
  /// The first anchor is always (bit 0, index 1, first_value).
  Result<std::vector<Anchor>> ScanAnchors(uint32_t stride) const;

  /// Decodes values [anchor.value_index, end_index) starting at `anchor`,
  /// writing them to out[0 .. end_index - anchor.value_index).
  Status DecodeFrom(const Anchor& anchor, uint32_t end_index,
                    int64_t* out) const;

 private:
  uint32_t count_ = 0;
  int64_t first_value_ = 0;
  const uint8_t* stream_ = nullptr;
  size_t stream_bytes_ = 0;
};

}  // namespace etsqp::enc

#endif  // ETSQP_ENCODING_RLBE_H_
