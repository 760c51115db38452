#ifndef ETSQP_EXEC_PRUNING_H_
#define ETSQP_EXEC_PRUNING_H_

#include <cstdint>

#include "encoding/delta_rle.h"
#include "encoding/ts2diff.h"

namespace etsqp::exec {

/// Pruning rules from paper Section V: header statistics bound what the
/// undecoded remainder of a sequence can contain, letting the pipeline skip
/// loading/decoding. Bounds derive from packing widths: every delta lies in
/// [minBase, minBase + 2^w - 1] (Propositions 4-5), every run length is at
/// most R_M. All rules are conservative: they may only fail to prune, never
/// skip qualifying tuples.

/// Proposition 4 bound: a conservative upper bound of the last timestamp
/// of a TS2DIFF time block, from its first value and width-derived delta
/// bound. A block whose bound lies below a searched time is skipped
/// without decoding.
__int128 BlockTimeUpperBound(const enc::Ts2DiffBlock& block);

/// Proposition 4 positioner for a constant-interval TS2DIFF block
/// (constant_interval() with min_delta > 0, so t_i = first_value + i * D):
/// the index in [0, num_values()] of the first timestamp >= `t`, by direct
/// arithmetic instead of decoding. `t` is 128-bit so a caller can ask for
/// `hi + 1` or a window start past the int64 edge.
size_t ConstantIntervalLowerBound(const enc::Ts2DiffBlock& block, __int128 t);

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
