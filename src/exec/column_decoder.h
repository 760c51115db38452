#ifndef ETSQP_EXEC_COLUMN_DECODER_H_
#define ETSQP_EXEC_COLUMN_DECODER_H_

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "encoding/format.h"
#include "encoding/ts2diff.h"

namespace etsqp::exec {

/// Which decoding pipeline implementation to use — the evaluation's
/// baselines (Section VII-A).
enum class DecodeStrategy {
  kEtsqp,      // Algorithm 1: transposed-layout SIMD unpack + Delta recovery
  kSerial,     // value-at-a-time scalar pipeline
  kSboost,     // natural-order SIMD unpack + log-step prefix sum
  kFastLanes,  // FLMM1024 layout decode (requires kFastLanes encoding)
};

const char* DecodeStrategyName(DecodeStrategy s);

/// A decoded column range. The narrow form keeps values as 32-bit offsets
/// from `base` — the in-register representation the vectorized operators
/// (filters, aggregations) consume; wide columns hold materialized int64.
struct DecodedColumn {
  bool narrow = true;
  int64_t base = 0;
  std::vector<int32_t> offsets;
  std::vector<int64_t> values64;

  size_t size() const {
    return narrow ? offsets.size() : values64.size();
  }
  int64_t Get(size_t i) const {
    return narrow ? base + offsets[i] : values64[i];
  }
  /// Materializes into `out[size()]` regardless of form.
  void Materialize(int64_t* out) const;
};

/// Decodes a full encoded column with the given strategy. kEtsqp's
/// transposed kernels pick the vector count n_v per block (Proposition 1).
/// The buffer must have >= 32 bytes of readable slack (AlignedBuffer).
///
/// `stages` (optional) records decode-stage timings: bit-unpacking —
/// including Algorithm 1's fused unpack+delta kernels — under kUnpack, and
/// the separate delta/RLE flatten passes of non-fused paths under kDelta.
Status DecodeColumn(const uint8_t* data, size_t size,
                    enc::ColumnEncoding encoding, uint32_t count,
                    DecodeStrategy strategy, DecodedColumn* out,
                    metrics::StageBreakdown* stages = nullptr);

/// Decodes only blocks overlapping value positions [begin, end) — used by
/// page slices. Positions outside [begin,end) in `out` are unspecified;
/// `out` is sized `end - begin` and holds positions begin..end-1.
///
/// `ordered` false permits the ETSQP strategy to emit offsets in the
/// transposed chunk order (no transpose) — valid for order-insensitive
/// consumers (SUM/AVG/MIN/MAX/COUNT and value-range masks), which is how the
/// pipeline shares the SIMD layout between decoders and operators.
Status DecodeColumnRange(const uint8_t* data, size_t size,
                         enc::ColumnEncoding encoding, uint32_t count,
                         DecodeStrategy strategy, size_t begin, size_t end,
                         DecodedColumn* out, bool ordered = true,
                         metrics::StageBreakdown* stages = nullptr);

/// DecodeColumnRange over a TS2DIFF column the caller parsed: a job that
/// decodes a page block by block parses its column once, not per block.
/// Stage bytes count the packed residuals of the blocks the range touches.
Status DecodeTs2DiffRange(const enc::Ts2DiffColumn& col,
                          DecodeStrategy strategy, size_t begin, size_t end,
                          DecodedColumn* out, bool ordered = true,
                          metrics::StageBreakdown* stages = nullptr);

}  // namespace etsqp::exec

#endif  // ETSQP_EXEC_COLUMN_DECODER_H_
