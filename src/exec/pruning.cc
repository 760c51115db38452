#include "exec/pruning.h"

#include <algorithm>
#include <vector>

#include "simd/delta_simd.h"
#include "simd/transposed_unpack.h"

namespace etsqp::exec {

namespace {

/// Conservative upper bound of the last timestamp in a block.
__int128 BlockTimeUpperBound(const enc::Ts2DiffBlock& b) {
  __int128 hi = b.first_value;
  __int128 dmax = b.delta_upper_bound();
  if (dmax > 0) hi += dmax * b.num_deltas;
  return hi;
}

/// Decodes block times into `buf` (int64) with the requested strategy.
void DecodeBlockTimes(const enc::Ts2DiffBlock& b, DecodeStrategy strategy,
                      std::vector<int64_t>* buf) {
  buf->resize(b.num_values());
  // Narrow path: exact block statistics bound the offset domain.
  bool narrow = strategy != DecodeStrategy::kSerial &&
                b.max_value - b.min_value < (1ll << 30);
  if (!narrow) {
    enc::Ts2DiffColumn::DecodeBlock(b, buf->data());
    return;
  }
  std::vector<int32_t> offsets(b.num_deltas);
  int32_t md = static_cast<int32_t>(b.min_delta);
  switch (strategy) {
    case DecodeStrategy::kEtsqp:
      simd::DeltaDecodeOffsets(b.packed, b.packed_bytes, b.num_deltas,
                               b.width, md, /*n_v=*/0, 0, offsets.data());
      break;
    case DecodeStrategy::kSboost:
      simd::SboostDeltaDecode(b.packed, b.packed_bytes, b.num_deltas, b.width,
                              md, 0, offsets.data());
      break;
    default:
      simd::DeltaDecodeOffsetsScalar(b.packed, b.packed_bytes, b.num_deltas,
                                     b.width, md, 0, offsets.data());
      break;
  }
  (*buf)[0] = b.first_value;
  for (uint32_t i = 0; i < b.num_deltas; ++i) {
    (*buf)[i + 1] = b.first_value + offsets[i];
  }
}

}  // namespace

Status TimeRangePositions(const uint8_t* data, size_t size, uint32_t count,
                          const TimeRange& range, DecodeStrategy strategy,
                          bool prune, size_t* first, size_t* last,
                          uint64_t* blocks_pruned, uint64_t* tuples_scanned) {
  Result<enc::Ts2DiffColumn> parsed = enc::Ts2DiffColumn::Parse(data, size);
  if (!parsed.ok()) return parsed.status();
  const enc::Ts2DiffColumn& col = parsed.value();
  if (col.count() != count) return Status::Corruption("time column count");

  size_t lo_pos = count;  // first position with t >= range.lo
  size_t hi_pos = count;  // first position with t > range.hi
  bool lo_found = false;
  std::vector<int64_t> buf;

  for (const enc::Ts2DiffBlock& b : col.blocks()) {
    size_t bs = b.start_index;
    // Stop: this and all later blocks start above the range (times sorted).
    if (b.first_value > range.hi) {
      hi_pos = bs;
      if (!lo_found) lo_pos = bs;
      lo_found = true;
      if (blocks_pruned != nullptr) {
        // Count the remaining blocks as pruned.
        *blocks_pruned += col.blocks().size() -
                          (&b - col.blocks().data());
      }
      break;
    }
    if (prune && !lo_found && BlockTimeUpperBound(b) < range.lo) {
      // Proposition 4 case (1): the whole block is certainly below lo.
      if (blocks_pruned != nullptr) ++(*blocks_pruned);
      continue;
    }
    if (prune && b.constant_interval() && b.min_delta > 0) {
      // Constant interval D: direct position arithmetic, no decoding.
      int64_t d = b.min_delta;
      int64_t f = b.first_value;
      size_t m = b.num_values();
      if (!lo_found) {
        if (f >= range.lo) {
          lo_pos = bs;
          lo_found = true;
        } else {
          // smallest i with f + i*d >= lo
          int64_t i = (range.lo - f + d - 1) / d;
          if (i < static_cast<int64_t>(m)) {
            lo_pos = bs + static_cast<size_t>(i);
            lo_found = true;
          }
        }
      }
      // first i with f + i*d > hi
      if (f + static_cast<int64_t>(m - 1) * d > range.hi) {
        int64_t i = (range.hi - f) / d + 1;
        if (i < 0) i = 0;
        hi_pos = bs + static_cast<size_t>(i);
        if (!lo_found) {
          lo_pos = hi_pos;
          lo_found = true;
        }
        break;
      }
      continue;
    }
    // General case: decode the block and binary-search (times sorted).
    DecodeBlockTimes(b, strategy, &buf);
    if (tuples_scanned != nullptr) *tuples_scanned += buf.size();
    if (!lo_found) {
      auto it = std::lower_bound(buf.begin(), buf.end(), range.lo);
      if (it != buf.end()) {
        lo_pos = bs + static_cast<size_t>(it - buf.begin());
        lo_found = true;
      }
    }
    if (buf.back() > range.hi) {
      auto it = std::upper_bound(buf.begin(), buf.end(), range.hi);
      hi_pos = bs + static_cast<size_t>(it - buf.begin());
      if (!lo_found) {
        lo_pos = hi_pos;
        lo_found = true;
      }
      break;
    }
  }
  if (!lo_found) lo_pos = hi_pos = count;
  *first = std::min(lo_pos, hi_pos);
  *last = hi_pos;
  return Status::Ok();
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
