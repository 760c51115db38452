#ifndef ETSQP_ENCODING_ELF_H_
#define ETSQP_ENCODING_ELF_H_

#include <cstdint>

#include "common/status.h"
#include "encoding/format.h"

namespace etsqp::enc {

/// Elf (paper Table I): erasing-based lossless float compression. For each
/// double we find the number of low mantissa bits that can be zeroed such
/// that rounding the erased value to the original's decimal precision
/// restores it exactly. The erased word (long trailing-zero tail) is then
/// XOR-compressed (Chimp backend); a small side channel records the decimal
/// precision needed to undo the erasure.
///
/// Per value: flag bit (1 = erased, followed by a 4-bit precision field;
/// 0 = stored verbatim through the XOR stage).
class ElfEncoder {
 public:
  /// `max_precision` bounds the decimal-place search (Elf's alpha).
  explicit ElfEncoder(int max_precision = 12)
      : max_precision_(max_precision) {}

  EncodedColumn EncodeDoubles(const double* values, size_t n) const;

 private:
  int max_precision_;
};

/// Decodes a column of `size` bytes at `data` into out[count]: the Chimp
/// stage decodes straight into `out`, then the side channel rounds the
/// erased values in place. Corruption when the column holds another count.
Status ElfDecodeDoubles(const uint8_t* data, size_t size, uint32_t count,
                        double* out);
inline Status ElfDecodeDoubles(const EncodedColumn& col, double* out) {
  return ElfDecodeDoubles(col.bytes.data(), col.bytes.size(), col.count, out);
}

/// Exposed for tests: number of decimal places after which `v` printed and
/// re-parsed reproduces itself, or -1 if more than `max_precision` needed.
int ElfDecimalPrecision(double v, int max_precision);

}  // namespace etsqp::enc

#endif  // ETSQP_ENCODING_ELF_H_
