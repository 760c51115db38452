#ifndef ETSQP_ENCODING_DELTA_RLE_H_
#define ETSQP_ENCODING_DELTA_RLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "encoding/format.h"

namespace etsqp::enc {

/// Delta-Repeat-Packing: the combined format of paper Sections IV-V and the
/// Figure 12 micro-benchmarks. The value sequence is Delta-encoded, the delta
/// sequence is run-length encoded into <delta, run> pairs (a run of length r
/// expands to r consecutive steps of the same delta — an arithmetic
/// progression), and both the delta and run columns are bit-packed with a
/// frame-of-reference base.
///
/// Serialized layout (fixed fields Big-Endian):
///   u32 count | u32 num_pairs | u8 delta_width | u8 run_width
///   i64 min_delta (the paper's minBase) | i64 first_value
///   packed (delta - min_delta) x num_pairs   (byte-aligned)
///   packed (run - 1)          x num_pairs    (byte-aligned)
///
/// Header statistics give the pruning bounds of Propositions 4-5:
///   D_m = min_delta, D_M = min_delta + 2^delta_width - 1,
///   R_M = 2^run_width (max run length).

class DeltaRleEncoder {
 public:
  EncodedColumn Encode(const int64_t* values, size_t n) const;
};

/// One <delta, run> pair.
struct DeltaRun {
  int64_t delta = 0;
  uint32_t run = 0;
};

/// Parsed (zero-copy) Delta-RLE column view.
class DeltaRleColumn {
 public:
  static Result<DeltaRleColumn> Parse(const uint8_t* data, size_t size);

  uint32_t count() const { return count_; }
  uint32_t num_pairs() const { return num_pairs_; }
  uint8_t delta_width() const { return delta_width_; }
  uint8_t run_width() const { return run_width_; }
  int64_t min_delta() const { return min_delta_; }
  int64_t first_value() const { return first_value_; }

  const uint8_t* packed_deltas() const { return packed_deltas_; }
  const uint8_t* packed_runs() const { return packed_runs_; }

  /// Width-derived delta bounds (Propositions 4-5).
  int64_t delta_lower_bound() const { return min_delta_; }
  int64_t delta_upper_bound() const;

  /// Scalar decode of the <delta, run> pair list.
  Status DecodePairs(std::vector<DeltaRun>* out) const;

  /// Reference scalar decode of the whole column into out[count()].
  Status DecodeAll(int64_t* out) const;

 private:
  uint32_t count_ = 0;
  uint32_t num_pairs_ = 0;
  uint8_t delta_width_ = 0;
  uint8_t run_width_ = 0;
  int64_t min_delta_ = 0;
  int64_t first_value_ = 0;
  const uint8_t* packed_deltas_ = nullptr;
  size_t packed_delta_bytes_ = 0;
  const uint8_t* packed_runs_ = nullptr;
  size_t packed_run_bytes_ = 0;
};

}  // namespace etsqp::enc

#endif  // ETSQP_ENCODING_DELTA_RLE_H_
