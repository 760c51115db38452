#ifndef ETSQP_EXEC_FUSION_H_
#define ETSQP_EXEC_FUSION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "encoding/delta_rle.h"
#include "encoding/ts2diff.h"

namespace etsqp::exec {

/// Operator fusion (paper Section IV): aggregation without decoding.
/// Associative aggregates over Delta(-Repeat) encoded data are computed as
/// closed-form polynomials over the encoded <delta, run> structure, skipping
/// both the Repeat flatten and the Delta accumulation.

/// Fused SUM over a TS2DIFF column restricted to positions [begin, end).
/// A block slice of m values from position la sums to
///   m X_la + base m (m - 1) / 2 + sum_k (m - 1 - k) r_{la+k},
/// so SUM needs no Delta pass: one simd::PackedRampSum pass over the
/// slice's bit-packed residuals yields the ramp term and their plain sum,
/// straight from the block's bytes — no residual buffer, nothing unpacked
/// into memory. The reader keeps a forward cursor — the block, the
/// position and the value X at the end of the previous range — so the
/// ascending windows of a sliding-window SUM sweep the column once: a range
/// that starts where the last one ended resumes from X, which the plain sum
/// plus the one residual past the slice carries on. Any other range
/// recomputes X_la from its block start with the same kernel's plain sum.
class Ts2DiffFusedReader {
 public:
  /// `data` must outlive the reader and carry 32 bytes of slack.
  static Result<Ts2DiffFusedReader> Open(const uint8_t* data, size_t size);

  uint32_t count() const { return col_.count(); }

  /// Sum of values at positions [begin, end). Fails with kOverflow when the
  /// exact sum exceeds int64 (Section VI-C), and with kNotSupported on a
  /// block whose residuals are wider than 31 bits.
  Status SumRange(size_t begin, size_t end, int64_t* out);

 private:
  enc::Ts2DiffColumn col_;
  // Forward cursor, valid when cursor_ok_: the position after the last
  // range, the block holding it and the value there.
  bool cursor_ok_ = false;
  size_t cursor_pos_ = 0;
  size_t cursor_block_ = 0;
  int64_t cursor_x_ = 0;

  /// Index of the block holding position `pos` (< count()).
  size_t BlockOf(size_t pos) const;
};

/// Fused aggregates over a Delta-RLE column (Section IV polynomials). Each
/// <delta, run> pair contributes closed-form sums of an arithmetic
/// progression: run work is O(1) regardless of run length — the Figure
/// 12(c-d) effect.
struct DeltaRleAggregates {
  int64_t sum = 0;
  uint64_t count = 0;
  // Sum of squares, for VAR; computed only when requested.
  __int128 sum_sq = 0;
};

/// The Delta-RLE fused aggregator over one column: the <delta, run> pairs
/// decode once, and a forward cursor (the last run that started before the
/// previous range's end) lets ascending ranges — the windows of a
/// sliding-window aggregate — walk the pairs once in all. A range that
/// starts at or before the cursor walks from position 0.
class DeltaRleFusedReader {
 public:
  static Result<DeltaRleFusedReader> Open(const enc::DeltaRleColumn& col);
  static Result<DeltaRleFusedReader> Open(const uint8_t* data, size_t size);

  uint32_t count() const { return count_; }

  /// Aggregates positions [begin, end). `need_sq` additionally computes
  /// sum A_i^2. Fails with kOverflow when sums exceed their domains.
  Status Aggregate(size_t begin, size_t end, bool need_sq,
                   DeltaRleAggregates* out);

 private:
  uint32_t count_ = 0;
  int64_t first_value_ = 0;
  std::vector<enc::DeltaRun> pairs_;
  // Cursor: run `run_` covers positions pos_+1 .. pos_+run, stepping from
  // value_ at position pos_.
  size_t run_ = 0;
  size_t pos_ = 0;
  int64_t value_ = 0;
};

/// One-shot DeltaRleFusedReader::Aggregate over `col`.
Status FusedAggDeltaRle(const enc::DeltaRleColumn& col, size_t begin,
                        size_t end, bool need_sq, DeltaRleAggregates* out);

/// Fused cross product sum A_i * B_i over two position-aligned Delta-RLE
/// columns (the paper's correlation building block): at every step the
/// overlap window of the two current runs is a pair of arithmetic
/// progressions, aggregated with the 4-term polynomial of Section IV.
Status FusedCrossDeltaRle(const enc::DeltaRleColumn& a,
                          const enc::DeltaRleColumn& b, size_t begin,
                          size_t end, __int128* out);

}  // namespace etsqp::exec

#endif  // ETSQP_EXEC_FUSION_H_
