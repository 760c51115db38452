#ifndef ETSQP_SIMD_SPRINTZ_SIMD_H_
#define ETSQP_SIMD_SPRINTZ_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace etsqp::simd {

/// AVX2 Sprintz decode. Sprintz packs 8 zigzag deltas per block at one
/// width, which is one natural-order unpack step (simd/unpack_avx2.h): each
/// block of width 1..32 unpacks with one shuffle, shift and mask, its deltas
/// un-zigzag and prefix-sum in registers, and the running value carries to
/// the next block in a register. Width 0 is a block of zero deltas; widths
/// 33..64 unpack one value at a time.
///
/// `blocks` is the block stream after the column header (`blocks_bytes`
/// bytes), `count` and `first_value` come from the header. Writes positions
/// [begin, end) of the column into out[0, end - begin). Blocks are delta
/// coded with no anchors, so every block up to `end` is walked; blocks past
/// `end` are not read or checked. A width byte above 64 or a block past the
/// end of the stream is Corruption, as in `enc::SprintzColumn::DecodeAll`.
///
/// The unpack loads of a full block end at most 15 bytes past it, and a
/// short last block unpacks from a zero-padded copy, so the stream needs 32
/// readable bytes after its end (AlignedBuffer has 64). Requires AVX2.
Status SprintzDecodeAvx2(const uint8_t* blocks, size_t blocks_bytes,
                         uint32_t count, int64_t first_value, size_t begin,
                         size_t end, int64_t* out);

}  // namespace etsqp::simd

#endif  // ETSQP_SIMD_SPRINTZ_SIMD_H_
