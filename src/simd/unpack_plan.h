#ifndef ETSQP_SIMD_UNPACK_PLAN_H_
#define ETSQP_SIMD_UNPACK_PLAN_H_

#include <array>
#include <cstdint>
#include <vector>

namespace etsqp::simd {

/// Decode-plan generation — the library's equivalent of the paper's
/// just-in-time decoder generator (Section III-B). For each packing width
/// (and, for the transposed layout, each vector count n_v) we precompute the
/// shuffle-index, bit-shift, and mask vectors that Algorithm 1 looks up at
/// Lines 8-9/13. Plans are built on first use and cached for the process
/// lifetime, so steady-state decoding performs no plan computation.

/// Plan for natural-order unpacking of `width`-bit Big-Endian packed values
/// into 32-bit lanes. One iteration decodes 8 values from `width` bytes.
///
/// Fast path (width <= 25): every value's bit window fits 4 bytes. The lower
/// 128-bit half shuffles values 0-3 from a 16-byte load at the iteration
/// base; the upper half shuffles values 4-7 from a load at `hi_offset`.
/// Wide path (26 <= width <= 32): values are extracted in 64-bit lanes, four
/// per step, two steps per iteration.
struct UnpackPlan {
  int width = 0;
  int bytes_per_iter = 0;  // == width (8 values of `width` bits)
  bool wide = false;

  // Fast path.
  int hi_offset = 0;
  alignas(32) uint8_t shuffle[32] = {};
  alignas(32) uint32_t shift[8] = {};
  uint32_t mask = 0;

  // Wide path: step s handles values 4s..4s+3 in 64-bit lanes.
  struct WideStep {
    int lo_offset = 0;  // byte offset of the lower-half 16-byte load
    int hi_offset = 0;  // byte offset of the upper-half 16-byte load
    alignas(32) uint8_t shuffle[32] = {};
    alignas(32) uint64_t shift[4] = {};
  };
  WideStep steps[2];
  uint64_t mask64 = 0;
};

/// Returns the cached plan for `width` (1..32).
const UnpackPlan& GetUnpackPlan(int width);

/// Plan for unpacking straight into the transposed Delta-decoding layout of
/// Algorithm 1 / Figures 4-6. A chunk holds n_v * 8 values in `n_v * width`
/// bytes. Value c (natural order) lands in vector j = c % n_v, 32-bit lane
/// l = c / n_v, so consecutive deltas share a lane across consecutive
/// vectors — the property Delta recovery needs (partial sums are lane-wise
/// vector adds).
///
/// The paper's Figure 6 interleaves lanes across the two 128-bit halves
/// because its loads broadcast one 16-byte segment to both halves. We
/// instead pair two independent 16-byte loads per segment — the lower half
/// reads the window holding values [0, 4 n_v) of the chunk, the upper half
/// the window holding values [4 n_v, 8 n_v) — which doubles the lanes filled
/// per shuffle and makes the lane <-> position mapping the identity (the
/// prefix-sum step then needs no permute to logical order). Same algorithm,
/// tighter instruction count; an extension the paper explicitly invites
/// ("easy to extend to other quantities and instruction sets").
struct TransposedPlan {
  int width = 0;
  int n_v = 0;
  int values_per_chunk = 0;  // n_v * 8
  int bytes_per_chunk = 0;   // n_v * width

  struct Segment {
    int lo_offset = 0;  // 16-byte load feeding lanes 0-3 (0x80 pad allowed)
    int hi_offset = 0;  // 16-byte load feeding lanes 4-7
  };
  std::vector<Segment> segments;

  /// shuffles[s * n_v + j]: 32-byte shuffle index applying segment s to
  /// output vector j (0x80 bytes produce zero — lanes not fed by s).
  std::vector<std::array<uint8_t, 32>> shuffles;
  /// skip[s * n_v + j]: true when segment s feeds no lane of vector j.
  std::vector<uint8_t> skip;
  /// Per-output-vector logical right shift for each 32-bit lane.
  std::vector<std::array<uint32_t, 8>> shifts;
  uint32_t mask = 0;
};

/// Returns the cached plan for (width 1..25, n_v 1..16). The transposed SIMD
/// path requires width <= 25 so every value window fits 4 bytes; wider
/// widths use the scalar fallback.
const TransposedPlan& GetTransposedPlan(int width, int n_v);

}  // namespace etsqp::simd

#endif  // ETSQP_SIMD_UNPACK_PLAN_H_
