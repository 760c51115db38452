#ifndef ETSQP_ENCODING_GORILLA_H_
#define ETSQP_ENCODING_GORILLA_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "encoding/format.h"

namespace etsqp::enc {

/// Gorilla (paper Table I): the Facebook in-memory TSDB format. Timestamps
/// use delta-of-delta (+-^2) with prefix-coded residual classes; values use
/// XOR against the predecessor with a flag bit for repeats and pattern-based
/// packing of the meaningful XOR bits (leading-zeros / length window reuse).

/// --- Timestamp column (int64, delta-of-delta) ---------------------------
/// Prefix classes: '0' dod==0, '10' 7-bit, '110' 9-bit, '1110' 12-bit,
/// '1111' 64-bit raw. Residuals are zigzagged before class selection.
class GorillaTimestampEncoder {
 public:
  EncodedColumn Encode(const int64_t* values, size_t n) const;
};

/// Decodes a column of `size` bytes at `data` into out[count]; Corruption
/// when it holds another count.
Status GorillaTimestampDecode(const uint8_t* data, size_t size,
                              uint32_t count, int64_t* out);
inline Status GorillaTimestampDecode(const EncodedColumn& col, int64_t* out) {
  return GorillaTimestampDecode(col.bytes.data(), col.bytes.size(), col.count,
                                out);
}

/// --- Value column (doubles or raw 64-bit words, XOR pattern) ------------
/// Flags: '0' same as previous; '10' XOR fits in the previous
/// leading/length window (write window bits); '11' new window (5-bit leading
/// zero count, 6-bit significant length, then the bits).
class GorillaValueEncoder {
 public:
  EncodedColumn Encode(const uint64_t* words, size_t n) const;
  EncodedColumn EncodeDoubles(const double* values, size_t n) const;
};

/// Decodes a column of `size` bytes at `data` straight into out[count].
/// Corruption when the column holds another count.
Status GorillaValueDecodeDoubles(const uint8_t* data, size_t size,
                                 uint32_t count, double* out);
inline Status GorillaValueDecodeDoubles(const EncodedColumn& col,
                                        double* out) {
  return GorillaValueDecodeDoubles(col.bytes.data(), col.bytes.size(),
                                   col.count, out);
}

}  // namespace etsqp::enc

#endif  // ETSQP_ENCODING_GORILLA_H_
