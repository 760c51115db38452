#include "exec/column_decoder.h"

#include <immintrin.h>

#include <algorithm>

#include "common/bit_util.h"
#include "common/bitstream.h"
#include "common/cpu.h"
#include "encoding/bitpack.h"
#include "encoding/delta_rle.h"
#include "encoding/fastlanes.h"
#include "encoding/rlbe.h"
#include "encoding/sprintz.h"
#include "encoding/streamvbyte.h"
#include "encoding/ts2diff.h"
#include "simd/delta_simd.h"
#include "simd/rle_flatten.h"
#include "simd/sprintz_simd.h"
#include "simd/streamvbyte_simd.h"
#include "simd/transposed_unpack.h"
#include "simd/unpack.h"
#include "storage/page_builder.h"

namespace etsqp::exec {

const char* DecodeStrategyName(DecodeStrategy s) {
  switch (s) {
    case DecodeStrategy::kEtsqp:
      return "ETSQP";
    case DecodeStrategy::kSerial:
      return "Serial";
    case DecodeStrategy::kSboost:
      return "SBoost";
    case DecodeStrategy::kFastLanes:
      return "FastLanes";
  }
  return "?";
}

void DecodedColumn::Materialize(int64_t* out) const {
  if (narrow) {
    for (size_t i = 0; i < offsets.size(); ++i) out[i] = base + offsets[i];
  } else {
    std::copy(values64.begin(), values64.end(), out);
  }
}

namespace {

constexpr int64_t kNarrowSwingLimit = 1ll << 30;

/// Exact value bounds of a TS2DIFF column from its block statistics.
bool Ts2DiffBounds(const enc::Ts2DiffColumn& col, int64_t* lo, int64_t* hi) {
  if (col.blocks().empty()) {
    *lo = *hi = 0;
    return true;
  }
  int64_t mn = col.blocks()[0].min_value;
  int64_t mx = col.blocks()[0].max_value;
  for (const enc::Ts2DiffBlock& b : col.blocks()) {
    mn = std::min(mn, b.min_value);
    mx = std::max(mx, b.max_value);
  }
  *lo = mn;
  *hi = mx;
  return true;
}

Status DecodeTs2Diff(const enc::Ts2DiffColumn& col, DecodeStrategy strategy,
                     size_t begin, size_t end, bool ordered,
                     DecodedColumn* out) {
  if (begin >= end) {
    out->narrow = true;
    out->base = 0;
    out->offsets.clear();
    out->values64.clear();
    return Status::Ok();
  }

  int64_t lo = 0, hi = 0;
  bool narrow = strategy != DecodeStrategy::kSerial &&
                Ts2DiffBounds(col, &lo, &hi) &&
                (hi - lo) < kNarrowSwingLimit;

  if (!narrow) {
    // Wide scalar path (value-at-a-time, also the Serial baseline).
    out->narrow = false;
    out->offsets.clear();
    out->values64.resize(end - begin);
    std::vector<int64_t> block_buf;
    for (const enc::Ts2DiffBlock& b : col.blocks()) {
      size_t bs = b.start_index;
      size_t be = bs + b.num_values();
      if (be <= begin || bs >= end) continue;
      block_buf.resize(b.num_values());
      enc::Ts2DiffColumn::DecodeBlock(b, block_buf.data());
      size_t from = std::max(bs, begin);
      size_t to = std::min(be, end);
      std::copy(block_buf.begin() + (from - bs), block_buf.begin() + (to - bs),
                out->values64.begin() + (from - begin));
    }
    return Status::Ok();
  }

  out->narrow = true;
  out->base = lo;
  out->values64.clear();
  out->offsets.resize(end - begin);
  std::vector<int32_t> block_buf;
  for (const enc::Ts2DiffBlock& b : col.blocks()) {
    size_t bs = b.start_index;
    size_t be = bs + b.num_values();
    if (be <= begin || bs >= end) continue;
    int32_t init = static_cast<int32_t>(b.first_value - lo);
    size_t from = std::max(bs, begin);
    size_t to = std::min(be, end);
    // A block inside [begin, end) decodes straight into `out`. A block the
    // range cuts decodes positions bs..to-1 into block_buf (the deltas run
    // from the block start) and copies the wanted part.
    const bool whole = from == bs && to == be;
    int32_t* buf;
    if (whole) {
      buf = out->offsets.data() + (bs - begin);
    } else {
      block_buf.resize(to - bs);
      buf = block_buf.data();
    }
    buf[0] = init;
    size_t deltas_needed = to - bs - 1;
    if (deltas_needed > 0) {
      int32_t md = static_cast<int32_t>(b.min_delta);
      switch (strategy) {
        case DecodeStrategy::kEtsqp:
          // Full-block decode into an order-insensitive consumer keeps the
          // transposed layout (register sharing); partial blocks need
          // positions, so they stay ordered.
          if (!ordered && whole) {
            simd::DeltaDecodeOffsetsUnordered(b.packed, b.packed_bytes,
                                              deltas_needed, b.width, md,
                                              /*n_v=*/0, init, buf + 1);
          } else {
            simd::DeltaDecodeOffsets(b.packed, b.packed_bytes, deltas_needed,
                                     b.width, md, /*n_v=*/0, init, buf + 1);
          }
          break;
        case DecodeStrategy::kSboost:
          simd::SboostDeltaDecode(b.packed, b.packed_bytes, deltas_needed,
                                  b.width, md, init, buf + 1);
          break;
        default:
          simd::DeltaDecodeOffsetsScalar(b.packed, b.packed_bytes,
                                         deltas_needed, b.width, md, init,
                                         buf + 1);
          break;
      }
    }
    if (!whole) {
      std::copy(buf + (from - bs), buf + (to - bs),
                out->offsets.begin() + (from - begin));
    }
  }
  return Status::Ok();
}

Status DecodeDeltaRle(const enc::DeltaRleColumn& col, size_t size,
                      DecodeStrategy strategy, DecodedColumn* out,
                      metrics::StageBreakdown* stages) {
  const uint32_t count = col.count();
  if (count == 0) {
    out->narrow = true;
    out->base = 0;
    out->offsets.clear();
    return Status::Ok();
  }

  const __int128 lo = col.delta_lower_bound();
  const __int128 hi = col.delta_upper_bound();
  __int128 span = static_cast<__int128>(count) *
                  std::max(lo < 0 ? -lo : lo, hi < 0 ? -hi : hi);
  bool narrow = strategy != DecodeStrategy::kSerial &&
                col.delta_width() <= 31 && span < kNarrowSwingLimit;

  if (!narrow) {
    out->narrow = false;
    out->offsets.clear();
    out->values64.resize(count);
    metrics::ScopedStageTimer timer(stages, metrics::Stage::kDelta);
    timer.AddTuples(count);
    return col.DecodeAll(out->values64.data());
  }

  out->narrow = true;
  out->base = col.first_value();
  out->values64.clear();
  out->offsets.resize(count);
  out->offsets[0] = 0;

  uint32_t np = col.num_pairs();
  std::vector<int32_t> deltas(np);
  std::vector<uint32_t> runs(np);
  bool vectorized = strategy == DecodeStrategy::kEtsqp ||
                    strategy == DecodeStrategy::kSboost;
  metrics::ScopedStageTimer unpack_timer(stages, metrics::Stage::kUnpack);
  unpack_timer.AddTuples(np);
  if (vectorized) {
    simd::UnpackBE32(col.packed_deltas(), size, np, col.delta_width(),
                     reinterpret_cast<uint32_t*>(deltas.data()));
    simd::UnpackBE32(col.packed_runs(), size, np, col.run_width(),
                     runs.data());
  } else {
    enc::UnpackBE32(col.packed_deltas(), size, 0, np, col.delta_width(),
                    reinterpret_cast<uint32_t*>(deltas.data()));
    enc::UnpackBE32(col.packed_runs(), size, 0, np, col.run_width(),
                    runs.data());
  }
  unpack_timer.Stop();
  // The Delta/Repeat flatten is the separate pass fusion elides — its cost
  // reports under the delta stage.
  metrics::ScopedStageTimer delta_timer(stages, metrics::Stage::kDelta);
  delta_timer.AddTuples(count);
  int32_t md = static_cast<int32_t>(col.min_delta());
  uint64_t total_runs = 0;
  for (uint32_t i = 0; i < np; ++i) {
    deltas[i] += md;
    runs[i] += 1;
    total_runs += runs[i];
  }
  // Validate the expansion size BEFORE flattening: corrupted run fields
  // must not overflow the output buffer.
  if (total_runs != count - 1) {
    return Status::Corruption("delta_rle: run total mismatch");
  }
  if (strategy == DecodeStrategy::kEtsqp) {
    simd::FlattenDeltaRuns(deltas.data(), runs.data(), np, 0,
                           out->offsets.data() + 1);
  } else {
    simd::FlattenDeltaRunsScalar(deltas.data(), runs.data(), np, 0,
                                 out->offsets.data() + 1);
  }
  return Status::Ok();
}

/// One FLMM1024 block of residual width <= 32 into `rows`: a SIMD unpack
/// of the residuals, then 31 lane-wise vector additions.
void DecodeFastLanesBlockSimd(const enc::FastLanesBlock& b,
                              uint32_t* residuals, int64_t* rows) {
  constexpr uint32_t kBlock = enc::FastLanesEncoder::kBlockValues;
  constexpr uint32_t kLanes = enc::FastLanesEncoder::kLanes;
  for (uint32_t l = 0; l < kLanes; ++l) {
    rows[l] = static_cast<int64_t>(GetFixed64BE(b.base_row + l * 8));
  }
  simd::UnpackBE32(b.packed, b.packed_bytes, kBlock - kLanes, b.width,
                   residuals);
  // 31 lane-wise vector additions per block: row r = row r-1 + delta.
  if (UseAvx2()) {
    const __m256i vmd = _mm256_set1_epi64x(b.min_delta);
    for (uint32_t r = 1; r < kBlock / kLanes; ++r) {
      const uint32_t* res = residuals + (r - 1) * kLanes;
      for (uint32_t l = 0; l < kLanes; l += 4) {
        __m128i r32 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(res + l));
        __m256i d = _mm256_cvtepu32_epi64(r32);
        __m256i prev = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            rows + (r - 1) * kLanes + l));
        __m256i cur = _mm256_add_epi64(_mm256_add_epi64(prev, d), vmd);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(rows + r * kLanes + l), cur);
      }
    }
  } else {
    for (uint32_t i = kLanes; i < kBlock; ++i) {
      rows[i] = rows[i - kLanes] + b.min_delta +
                static_cast<int64_t>(residuals[i - kLanes]);
    }
  }
}

Status DecodeFastLanesSimd(const enc::FastLanesColumn& col, size_t begin,
                           size_t end, DecodedColumn* out) {
  constexpr uint32_t kBlock = enc::FastLanesEncoder::kBlockValues;
  constexpr uint32_t kLanes = enc::FastLanesEncoder::kLanes;
  out->narrow = false;
  out->offsets.clear();
  out->values64.resize(end - begin);
  alignas(32) int64_t rows[kBlock];
  std::vector<uint32_t> residuals(kBlock - kLanes);
  for (const enc::FastLanesBlock& b : col.blocks()) {
    size_t bs = b.start_index;
    size_t be = bs + b.num_values;
    if (be <= begin || bs >= end) continue;
    if (b.width > 32) {
      // Residuals wider than 32 bits have no SIMD unpack plan.
      enc::FastLanesColumn::DecodeBlock(b, rows);
    } else {
      DecodeFastLanesBlockSimd(b, residuals.data(), rows);
    }
    size_t from = std::max(bs, begin);
    size_t to = std::min(be, end);
    std::copy(rows + (from - bs), rows + (to - bs),
              out->values64.begin() + (from - begin));
  }
  return Status::Ok();
}

/// Variable-width RLBE slice (Section III-C): resynchronizes at the
/// nearest anchor and decodes only positions [begin, end); scanning skips
/// codewords without reconstructing values.
Status DecodeRlbeSlice(const enc::RlbeColumn& col, size_t begin, size_t end,
                       DecodedColumn* out) {
  const uint32_t count = col.count();
  uint32_t stride = std::max<uint32_t>(1024, count / 16);
  Result<std::vector<enc::RlbeColumn::Anchor>> anchors =
      col.ScanAnchors(stride);
  if (!anchors.ok()) return anchors.status();
  const enc::RlbeColumn::Anchor* best = &anchors.value()[0];
  for (const auto& a : anchors.value()) {
    if (a.value_index <= std::max<size_t>(begin, 1)) best = &a;
  }
  out->narrow = false;
  out->offsets.clear();
  out->values64.resize(end - begin);
  std::vector<int64_t> tail(end - best->value_index);
  ETSQP_RETURN_IF_ERROR(
      col.DecodeFrom(*best, static_cast<uint32_t>(end), tail.data()));
  if (begin == 0) {
    out->values64[0] = col.first_value();
    std::copy(tail.begin(), tail.begin() + (end - 1),
              out->values64.begin() + 1);
  } else {
    std::copy(tail.begin() + (begin - best->value_index), tail.end(),
              out->values64.begin());
  }
  return Status::Ok();
}

/// StreamVByte's shuffle-LUT decode (two PSHUFB per 4-delta group) plus
/// prefix sum over the whole column.
Status DecodeStreamVByteSimd(const enc::StreamVByteColumn& col,
                             DecodedColumn* out) {
  const uint32_t count = col.count();
  out->narrow = false;
  out->values64.resize(count);
  if (count > 0 &&
      !simd::StreamVByteDecodeSse(col.control(), col.control_bytes(),
                                  col.data(), col.data_bytes(), count - 1,
                                  col.first_value(), out->values64.data())) {
    return Status::Corruption("streamvbyte: data truncated");
  }
  return Status::Ok();
}

}  // namespace

Status DecodeColumnRange(const storage::ParsedColumn& col,
                         DecodeStrategy strategy, size_t begin, size_t end,
                         DecodedColumn* out, bool ordered,
                         metrics::StageBreakdown* stages) {
  const uint32_t count = col.count;
  const size_t size = col.size;
  end = std::min<size_t>(end, count);
  switch (col.encoding) {
    case enc::ColumnEncoding::kTs2Diff: {
      const enc::Ts2DiffColumn& ts = col.As<enc::Ts2DiffColumn>();
      // TS2DIFF decodes with fused unpack+delta kernels (Algorithm 1): the
      // whole pass reports under kUnpack; a near-zero kDelta is exactly the
      // fusion effect EXPLAIN ANALYZE makes visible.
      metrics::ScopedStageTimer timer(stages, metrics::Stage::kUnpack);
      if (stages != nullptr) {
        timer.AddTuples(end > begin ? end - begin : 0);
        for (const enc::Ts2DiffBlock& b : ts.blocks()) {
          if (b.start_index < end && b.start_index + b.num_values() > begin) {
            timer.AddBytes(b.packed_bytes);
          }
        }
      }
      return DecodeTs2Diff(ts, strategy, begin, end, ordered, out);
    }
    case enc::ColumnEncoding::kFastLanes: {
      if (strategy == DecodeStrategy::kSerial) break;  // reference decoder
      metrics::ScopedStageTimer timer(stages, metrics::Stage::kUnpack);
      timer.AddTuples(end > begin ? end - begin : 0);
      timer.AddBytes(size);
      return DecodeFastLanesSimd(col.As<enc::FastLanesColumn>(), begin, end,
                                 out);
    }
    case enc::ColumnEncoding::kSprintz: {
      // kSerial keeps the storage layer's reference decoder.
      if (strategy == DecodeStrategy::kSerial || !UseAvx2()) break;
      const enc::SprintzColumn& sz = col.As<enc::SprintzColumn>();
      // Every value up to `end` decodes: the blocks carry no anchors.
      metrics::ScopedStageTimer timer(stages, metrics::Stage::kUnpack);
      timer.AddTuples(end);
      timer.AddBytes(size);
      out->narrow = false;
      out->offsets.clear();
      out->values64.resize(end > begin ? end - begin : 0);
      return simd::SprintzDecodeAvx2(sz.blocks(), sz.blocks_bytes(), count,
                                     sz.first_value(), begin, end,
                                     out->values64.data());
    }
    case enc::ColumnEncoding::kRlbe: {
      if (begin == 0 && end == count) break;  // reference decoder
      metrics::ScopedStageTimer timer(stages, metrics::Stage::kUnpack);
      timer.AddTuples(count);
      timer.AddBytes(size);
      return DecodeRlbeSlice(col.As<enc::RlbeColumn>(), begin, end, out);
    }
    default:
      break;
  }
  // Non-block-sliceable encodings: decode fully, then cut the range.
  // Delta-RLE records its own unpack/flatten split; the rest count whole
  // under the unpack stage. An encoding without a vectorized kernel here
  // runs the storage layer's reference decoder.
  DecodedColumn full;
  {
    const bool delta_rle = col.encoding == enc::ColumnEncoding::kDeltaRle;
    metrics::ScopedStageTimer timer(delta_rle ? nullptr : stages,
                                    metrics::Stage::kUnpack);
    timer.AddTuples(count);
    timer.AddBytes(size);
    if (delta_rle) {
      ETSQP_RETURN_IF_ERROR(DecodeDeltaRle(col.As<enc::DeltaRleColumn>(),
                                           size, strategy, &full, stages));
    } else if (col.encoding == enc::ColumnEncoding::kStreamVByte &&
               strategy != DecodeStrategy::kSerial && UseAvx2()) {
      ETSQP_RETURN_IF_ERROR(
          DecodeStreamVByteSimd(col.As<enc::StreamVByteColumn>(), &full));
    } else {
      full.narrow = false;
      full.values64.resize(count);
      ETSQP_RETURN_IF_ERROR(
          storage::DecodePageColumn(col, full.values64.data()));
    }
  }
  if (begin == 0 && end == full.size()) {
    *out = std::move(full);
    return Status::Ok();
  }
  out->narrow = full.narrow;
  out->base = full.base;
  if (full.narrow) {
    out->offsets.assign(full.offsets.begin() + begin,
                        full.offsets.begin() + end);
    out->values64.clear();
  } else {
    out->values64.assign(full.values64.begin() + begin,
                         full.values64.begin() + end);
    out->offsets.clear();
  }
  return Status::Ok();
}

Status DecodeColumn(const storage::ParsedColumn& col, DecodeStrategy strategy,
                    DecodedColumn* out, metrics::StageBreakdown* stages) {
  return DecodeColumnRange(col, strategy, 0, col.count, out, /*ordered=*/true,
                           stages);
}

}  // namespace etsqp::exec
