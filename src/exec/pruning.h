#ifndef ETSQP_EXEC_PRUNING_H_
#define ETSQP_EXEC_PRUNING_H_

#include <cstdint>
#include <utility>

#include "common/status.h"
#include "encoding/delta_rle.h"
#include "encoding/ts2diff.h"
#include "exec/column_decoder.h"
#include "exec/expr.h"

namespace etsqp::exec {

/// Pruning rules from paper Section V: header statistics bound what the
/// undecoded remainder of a sequence can contain, letting the pipeline skip
/// loading/decoding. Bounds derive from packing widths: every delta lies in
/// [minBase, minBase + 2^w - 1] (Propositions 4-5), every run length is at
/// most R_M. All rules are conservative: they may only fail to prune, never
/// skip qualifying tuples.

/// Locates the contiguous position range [first, last) of timestamps within
/// `range` in a sorted TS2DIFF time column.
///
/// With `prune` set, applies Proposition 4: blocks whose width-derived time
/// bounds lie entirely below range.lo are skipped without decoding; the scan
/// stops at the first block starting above range.hi; blocks with a constant
/// interval (width == 0) use direct position arithmetic instead of decoding.
/// `blocks_pruned` (optional) counts skipped blocks.
Status TimeRangePositions(const uint8_t* data, size_t size, uint32_t count,
                          const TimeRange& range, DecodeStrategy strategy,
                          bool prune, size_t* first, size_t* last,
                          uint64_t* blocks_pruned, uint64_t* tuples_scanned);

/// Proposition 5 block test for value filters: returns true when the block's
/// width-derived value bounds cannot intersect [lo, hi] — the whole block
/// decodes to out-of-range values and is skipped.
bool ValueBlockPrunable(const enc::Ts2DiffBlock& block, int64_t lo,
                        int64_t hi);

/// Proposition 4/5 bounds for a Delta-RLE column: conservative [min, max]
/// of all values, from the header statistics only.
void DeltaRleValueBounds(const enc::DeltaRleColumn& col, int64_t* lo,
                         int64_t* hi);

}  // namespace etsqp::exec

#endif  // ETSQP_EXEC_PRUNING_H_
