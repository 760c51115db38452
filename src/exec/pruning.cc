#include "exec/pruning.h"

#include <algorithm>
#include <limits>

namespace etsqp::exec {

__int128 BlockTimeUpperBound(const enc::Ts2DiffBlock& b) {
  __int128 hi = b.first_value;
  __int128 dmax = b.delta_upper_bound();
  if (dmax > 0) hi += dmax * b.num_deltas;
  return hi;
}

size_t ConstantIntervalLowerBound(const enc::Ts2DiffBlock& block,
                                  __int128 t) {
  const __int128 first = block.first_value;
  if (t <= first) return 0;
  const __int128 d = block.min_delta;
  const __int128 i = (t - first + d - 1) / d;
  return static_cast<size_t>(
      std::min<__int128>(i, static_cast<__int128>(block.num_values())));
}

bool ValueBlockPrunable(const enc::Ts2DiffBlock& block, int64_t lo,
                        int64_t hi) {
  __int128 bmin = block.first_value;
  __int128 bmax = block.first_value;
  __int128 dmin = block.delta_lower_bound();
  __int128 dmax = block.delta_upper_bound();
  if (dmin < 0) bmin += dmin * block.num_deltas;
  if (dmax > 0) bmax += dmax * block.num_deltas;
  return bmax < lo || bmin > hi;
}

void DeltaRleValueBounds(const enc::DeltaRleColumn& col, int64_t* lo,
                         int64_t* hi) {
  __int128 bmin = col.first_value();
  __int128 bmax = col.first_value();
  __int128 dmin = col.delta_lower_bound();
  __int128 dmax = col.delta_upper_bound();
  __int128 steps = col.count() == 0 ? 0 : col.count() - 1;
  if (dmin < 0) bmin += dmin * steps;
  if (dmax > 0) bmax += dmax * steps;
  constexpr __int128 kLo = std::numeric_limits<int64_t>::min();
  constexpr __int128 kHi = std::numeric_limits<int64_t>::max();
  *lo = static_cast<int64_t>(std::max(bmin, kLo));
  *hi = static_cast<int64_t>(std::min(bmax, kHi));
}

}  // namespace etsqp::exec
