#ifndef ETSQP_ENCODING_CHIMP_H_
#define ETSQP_ENCODING_CHIMP_H_

#include <cstdint>

#include "common/status.h"
#include "encoding/format.h"

namespace etsqp::enc {

/// Chimp (paper Table I): XOR float compression with 2-bit flags and a
/// rounded leading-zero table. Improves on Gorilla for values with short
/// XOR tails:
///   flag 00: XOR == 0 (repeat)
///   flag 01: XOR has >= 6 trailing zeros — write 3-bit rounded leading-zero
///            class, 6-bit significant length, then the center bits
///   flag 10: leading-zero class equal to previous — write (64 - prev_lead)
///            tail bits
///   flag 11: new leading-zero class — write 3-bit class then tail bits
class ChimpEncoder {
 public:
  EncodedColumn Encode(const uint64_t* words, size_t n) const;
  EncodedColumn EncodeDoubles(const double* values, size_t n) const;
};

/// Decodes a column of `size` bytes at `data` into out[count], as words or
/// as the doubles they are the bit patterns of, with no intermediate copy.
/// Corruption when the column holds another count.
Status ChimpDecode(const uint8_t* data, size_t size, uint32_t count,
                   uint64_t* out);
Status ChimpDecodeDoubles(const uint8_t* data, size_t size, uint32_t count,
                          double* out);
inline Status ChimpDecode(const EncodedColumn& col, uint64_t* out) {
  return ChimpDecode(col.bytes.data(), col.bytes.size(), col.count, out);
}
inline Status ChimpDecodeDoubles(const EncodedColumn& col, double* out) {
  return ChimpDecodeDoubles(col.bytes.data(), col.bytes.size(), col.count,
                            out);
}

}  // namespace etsqp::enc

#endif  // ETSQP_ENCODING_CHIMP_H_
