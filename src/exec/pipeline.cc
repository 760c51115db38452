#include "exec/pipeline.h"

#include <algorithm>
#include <vector>

#include "common/bit_util.h"
#include "common/metrics.h"
#include "exec/fusion.h"
#include "exec/pruning.h"
#include "simd/agg_simd.h"
#include "simd/filter_simd.h"

namespace etsqp::exec {

namespace {

constexpr __int128 kI64Max = std::numeric_limits<int64_t>::max();
constexpr __int128 kI64Min = std::numeric_limits<int64_t>::min();

bool FitsInt64(__int128 v) { return v >= kI64Min && v <= kI64Max; }

using metrics::ScopedStageTimer;
using metrics::Stage;

/// Stage recording target: non-null only when the caller both supplied a
/// stats sink and asked for collection, so every timer below is a no-op
/// (no clock read) on the default path.
metrics::StageBreakdown* StagesOf(const PipelineOptions& opt,
                                  QueryStats* stats) {
  return (opt.collect_stats && stats != nullptr) ? &stats->stages : nullptr;
}

int32_t ClampToInt32(__int128 v) {
  if (v > std::numeric_limits<int32_t>::max()) {
    return std::numeric_limits<int32_t>::max();
  }
  if (v < std::numeric_limits<int32_t>::min()) {
    return std::numeric_limits<int32_t>::min();
  }
  return static_cast<int32_t>(v);
}

/// Positions [p0, p1) within `page` matching the time filter, intersected
/// with the slice range [begin, end).
Status SlicePositions(const storage::Page& page, size_t begin, size_t end,
                      const TimeRange& trange, const PipelineOptions& opt,
                      size_t* p0, size_t* p1, QueryStats* stats) {
  end = std::min<size_t>(end, page.header.count);
  if (trange.IsUniverse()) {
    *p0 = begin;
    *p1 = end;
    return Status::Ok();
  }
  metrics::StageBreakdown* stages = StagesOf(opt, stats);
  if (page.header.time_encoding != enc::ColumnEncoding::kTs2Diff) {
    // Generic path: decode times and binary-search (sorted).
    DecodedColumn times;
    ETSQP_RETURN_IF_ERROR(DecodeColumn(
        page.time_data.data(), page.time_data.size(),
        page.header.time_encoding, page.header.count, opt.strategy, &times,
        stages));
    if (stats != nullptr) stats->tuples_scanned += times.size();
    ScopedStageTimer timer(stages, Stage::kFilter);
    timer.AddTuples(times.size());
    std::vector<int64_t> t(times.size());
    times.Materialize(t.data());
    size_t lo = std::lower_bound(t.begin(), t.end(), trange.lo) - t.begin();
    size_t hi = std::upper_bound(t.begin(), t.end(), trange.hi) - t.begin();
    *p0 = std::max(lo, begin);
    *p1 = std::min(hi, end);
    return Status::Ok();
  }
  size_t first = 0, last = 0;
  uint64_t pruned = 0, scanned = 0;
  {
    // The TS2DIFF positioner decodes and scans internally; its whole cost is
    // the time-filter stage (Proposition 4 pruning happens inside it).
    ScopedStageTimer timer(stages, Stage::kFilter);
    ETSQP_RETURN_IF_ERROR(TimeRangePositions(
        page.time_data.data(), page.time_data.size(), page.header.count,
        trange, opt.strategy, opt.prune, &first, &last, &pruned, &scanned));
    timer.AddTuples(scanned);
    timer.AddBytes(page.time_data.size());
  }
  if (stats != nullptr) {
    stats->blocks_pruned += pruned;
    stats->tuples_scanned += scanned;
  }
  *p0 = std::max(first, begin);
  *p1 = std::min(last, end);
  return Status::Ok();
}

/// Positions [*begin, *end) of the sorted `times[0, n)` that a windowed
/// aggregate reads: inside `trange` and at or after window 0's start.
void WindowBounds(const int64_t* times, size_t n, const TimeRange& trange,
                  const SlidingWindow& sw, size_t* begin, size_t* end) {
  *begin = std::lower_bound(times, times + n, std::max(trange.lo, sw.t_min)) -
           times;
  *end = std::max<size_t>(
      *begin, std::upper_bound(times, times + n, trange.hi) - times);
}

/// Whether `func` consumes min/max (others skip that pass entirely).
bool NeedsMinMax(AggFunc func) {
  return func == AggFunc::kMin || func == AggFunc::kMax;
}

/// Aggregates a decoded column range [0, n) into `accum` (no value filter).
void AggDecoded(const DecodedColumn& col, AggFunc func, AggAccum* accum,
                metrics::StageBreakdown* stages) {
  size_t n = col.size();
  if (n == 0) return;
  ScopedStageTimer timer(stages, Stage::kAggregate);
  timer.AddTuples(n);
  const bool need_sq = func == AggFunc::kVariance;
  if (col.narrow && !need_sq) {
    int64_t off_sum = simd::SumInt32(col.offsets.data(), n);
    accum->sum += static_cast<__int128>(col.base) * n + off_sum;
    accum->count += n;
    if (NeedsMinMax(func)) {
      int32_t mn, mx;
      simd::MinMaxInt32(col.offsets.data(), n, &mn, &mx);
      accum->min = std::min(accum->min, col.base + mn);
      accum->max = std::max(accum->max, col.base + mx);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) accum->AddValue(col.Get(i), need_sq);
}

/// Aggregates the subset of a decoded column matching `vrange`.
void AggDecodedFiltered(const DecodedColumn& col, const ValueRange& vrange,
                        AggFunc func, AggAccum* accum,
                        metrics::StageBreakdown* stages) {
  size_t n = col.size();
  if (n == 0) return;
  const bool need_sq = func == AggFunc::kVariance;
  if (col.narrow && !need_sq) {
    int32_t rel_lo = ClampToInt32(static_cast<__int128>(vrange.lo) - col.base);
    int32_t rel_hi = ClampToInt32(static_cast<__int128>(vrange.hi) - col.base);
    std::vector<uint64_t> mask(CeilDiv(n, 64));
    ScopedStageTimer filter_timer(stages, Stage::kFilter);
    filter_timer.AddTuples(n);
    simd::RangeFilterMaskInt32(col.offsets.data(), n, rel_lo, rel_hi,
                               mask.data());
    size_t cnt = simd::CountMaskBits(mask.data(), n);
    filter_timer.Stop();
    if (cnt == 0) return;
    ScopedStageTimer timer(stages, Stage::kAggregate);
    timer.AddTuples(cnt);
    accum->count += cnt;
    if (func != AggFunc::kCount && !NeedsMinMax(func)) {
      int64_t off_sum =
          simd::MaskedSumInt32(col.offsets.data(), mask.data(), n);
      accum->sum += static_cast<__int128>(col.base) * cnt + off_sum;
    }
    if (NeedsMinMax(func)) {
      int32_t mn, mx;
      if (simd::MaskedMinMaxInt32(col.offsets.data(), mask.data(), n, &mn,
                                  &mx)) {
        accum->min = std::min(accum->min, col.base + mn);
        accum->max = std::max(accum->max, col.base + mx);
      }
    }
    return;
  }
  ScopedStageTimer timer(stages, Stage::kAggregate);
  timer.AddTuples(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t v = col.Get(i);
    if (vrange.Contains(v)) accum->AddValue(v, need_sq);
  }
}

/// Per-slice cache for the fused value-column reader: sliding windows call
/// AggValues once per window, but the unpacked-residual cache inside
/// Ts2DiffFusedReader is only effective when shared across those calls.
struct ValueColumnContext {
  bool tried = false;
  Result<Ts2DiffFusedReader> reader = Status::NotFound("unopened");

  Ts2DiffFusedReader* Get(const storage::Page& page) {
    if (!tried) {
      tried = true;
      reader = Ts2DiffFusedReader::Open(page.value_data.data(),
                                        page.value_data.size());
    }
    return reader.ok() ? &reader.value() : nullptr;
  }
};

/// Value aggregation over positions [p0, p1) with optional value filter and
/// Proposition 5 block pruning. `ctx` (optional) shares the fused reader
/// across calls on the same page.
Status AggValues(const storage::Page& page, size_t p0, size_t p1,
                 const ValueRange& vrange, AggFunc func,
                 const PipelineOptions& opt, AggAccum* accum,
                 QueryStats* stats, ValueColumnContext* ctx = nullptr) {
  if (p0 >= p1) return Status::Ok();
  metrics::StageBreakdown* stages = StagesOf(opt, stats);
  const bool need_sq = func == AggFunc::kVariance;
  const enc::ColumnEncoding venc = page.header.value_encoding;
  const bool fusable = opt.strategy == DecodeStrategy::kEtsqp &&
                       FusedAggregate(func, venc, vrange.active);

  // COUNT with no value filter never needs the value column.
  if (func == AggFunc::kCount && !vrange.active) {
    accum->count += p1 - p0;
    return Status::Ok();
  }

  if (fusable && venc == enc::ColumnEncoding::kTs2Diff) {
    ValueColumnContext local;
    Ts2DiffFusedReader* reader =
        ctx != nullptr ? ctx->Get(page) : local.Get(page);
    if (reader != nullptr) {
      // The fused reader skips the separate unpack/delta passes entirely —
      // its whole cost is the aggregation stage (Section IV).
      ScopedStageTimer timer(stages, Stage::kAggregate);
      int64_t sum = 0;
      Status st = reader->SumRange(p0, p1, &sum);
      if (st.ok()) {
        accum->sum += sum;
        accum->count += p1 - p0;
        timer.AddTuples(p1 - p0);
        if (stats != nullptr) stats->tuples_scanned += p1 - p0;
        return Status::Ok();
      }
      // kOverflow: retry below at a larger quantity (the decode path
      // accumulates in 128-bit — Section VI-C's "aggregate with a larger
      // quantity"); kNotSupported (wide residuals): same fallback.
    }
  }
  if (fusable && venc == enc::ColumnEncoding::kDeltaRle) {
    Result<enc::DeltaRleColumn> col = enc::DeltaRleColumn::Parse(
        page.value_data.data(), page.value_data.size());
    if (!col.ok()) return col.status();
    DeltaRleAggregates agg;
    ScopedStageTimer timer(stages, Stage::kAggregate);
    Status st = FusedAggDeltaRle(col.value(), p0, p1, need_sq, &agg);
    timer.Stop();
    if (st.ok()) {
      accum->sum += agg.sum;
      accum->sum_sq += agg.sum_sq;
      accum->count += agg.count;
      if (stages != nullptr) {
        (*stages)[Stage::kAggregate].tuples += agg.count;
      }
      if (stats != nullptr) stats->tuples_scanned += agg.count;
      return Status::Ok();
    }
    if (st.code() != StatusCode::kOverflow) return st;
    // kOverflow: widen via the decode path below.
  }

  // Proposition 5: with a value filter over TS2DIFF, skip blocks whose
  // width-derived bounds cannot intersect the filter range.
  if (vrange.active && opt.prune &&
      venc == enc::ColumnEncoding::kTs2Diff &&
      opt.strategy != DecodeStrategy::kSerial) {
    Result<enc::Ts2DiffColumn> parsed = enc::Ts2DiffColumn::Parse(
        page.value_data.data(), page.value_data.size());
    if (!parsed.ok()) return parsed.status();
    for (const enc::Ts2DiffBlock& b : parsed.value().blocks()) {
      size_t bs = b.start_index;
      size_t be = bs + b.num_values();
      size_t from = std::max(bs, p0);
      size_t to = std::min(be, p1);
      if (from >= to) continue;
      if (ValueBlockPrunable(b, vrange.lo, vrange.hi)) {
        if (stats != nullptr) ++stats->blocks_pruned;
        continue;
      }
      DecodedColumn vals;
      ETSQP_RETURN_IF_ERROR(DecodeColumnRange(
          page.value_data.data(), page.value_data.size(), venc,
          page.header.count, opt.strategy, from, to, &vals,
          /*ordered=*/false, stages));
      if (stats != nullptr) stats->tuples_scanned += vals.size();
      AggDecodedFiltered(vals, vrange, func, accum, stages);
    }
    return Status::Ok();
  }

  // Plain decode-then-aggregate (order-insensitive consumers).
  DecodedColumn vals;
  ETSQP_RETURN_IF_ERROR(DecodeColumnRange(
      page.value_data.data(), page.value_data.size(), venc,
      page.header.count, opt.strategy, p0, p1, &vals, /*ordered=*/false,
      stages));
  if (stats != nullptr) stats->tuples_scanned += vals.size();
  if (vrange.active) {
    AggDecodedFiltered(vals, vrange, func, accum, stages);
  } else {
    AggDecoded(vals, func, accum, stages);
  }
  // Sums accumulate in 128-bit; int64 range is enforced at Finalize for
  // SUM only (AVG/VAR remain exact at this width — Section VI-C's larger
  // quantity).
  return Status::Ok();
}

}  // namespace

bool FusedAggregate(AggFunc func, enc::ColumnEncoding venc,
                    bool value_filter) {
  const bool additive = func == AggFunc::kSum || func == AggFunc::kAvg ||
                        func == AggFunc::kCount;
  return !value_filter &&
         ((venc == enc::ColumnEncoding::kTs2Diff && additive) ||
          (venc == enc::ColumnEncoding::kDeltaRle &&
           (additive || func == AggFunc::kVariance)));
}

Status AggAccum::Finalize(AggFunc func, double* out) const {
  switch (func) {
    case AggFunc::kSum:
      if (!FitsInt64(sum)) return Status::Overflow("SUM overflow");
      *out = static_cast<double>(static_cast<int64_t>(sum));
      return Status::Ok();
    case AggFunc::kCount:
      *out = static_cast<double>(count);
      return Status::Ok();
    case AggFunc::kAvg:
      if (count == 0) return Status::NotFound("AVG of empty set");
      *out = static_cast<double>(sum) / static_cast<double>(count);
      return Status::Ok();
    case AggFunc::kMin:
      if (count == 0) return Status::NotFound("MIN of empty set");
      *out = static_cast<double>(min);
      return Status::Ok();
    case AggFunc::kMax:
      if (count == 0) return Status::NotFound("MAX of empty set");
      *out = static_cast<double>(max);
      return Status::Ok();
    case AggFunc::kVariance: {
      if (count == 0) return Status::NotFound("VAR of empty set");
      double mean = static_cast<double>(sum) / static_cast<double>(count);
      double ex2 = static_cast<double>(sum_sq) / static_cast<double>(count);
      *out = ex2 - mean * mean;
      return Status::Ok();
    }
  }
  return Status::Internal("unknown aggregate");
}

Status FloatAggAccum::Finalize(AggFunc func, double* out) const {
  switch (func) {
    case AggFunc::kSum:
      *out = sum;
      return Status::Ok();
    case AggFunc::kCount:
      *out = static_cast<double>(count);
      return Status::Ok();
    case AggFunc::kAvg:
      if (count == 0) return Status::NotFound("AVG of empty set");
      *out = sum / static_cast<double>(count);
      return Status::Ok();
    case AggFunc::kMin:
      if (count == 0) return Status::NotFound("MIN of empty set");
      *out = min;
      return Status::Ok();
    case AggFunc::kMax:
      if (count == 0) return Status::NotFound("MAX of empty set");
      *out = max;
      return Status::Ok();
    case AggFunc::kVariance: {
      if (count == 0) return Status::NotFound("VAR of empty set");
      double mean = sum / static_cast<double>(count);
      *out = sum_sq / static_cast<double>(count) - mean * mean;
      return Status::Ok();
    }
  }
  return Status::Internal("unknown aggregate");
}

Status AggregateSlice(const storage::Page& page, size_t begin, size_t end,
                      const TimeRange& trange, const ValueRange& vrange,
                      AggFunc func, const PipelineOptions& opt,
                      AggAccum* accum, QueryStats* stats) {
  size_t p0 = 0, p1 = 0;
  ETSQP_RETURN_IF_ERROR(
      SlicePositions(page, begin, end, trange, opt, &p0, &p1, stats));
  return AggValues(page, p0, p1, vrange, func, opt, accum, stats);
}

Status AggregateSliceWindows(const storage::Page& page, size_t begin,
                             size_t end, const TimeRange& trange,
                             const ValueRange& vrange, const SlidingWindow& sw,
                             AggFunc func, const PipelineOptions& opt,
                             std::map<int64_t, AggAccum>* windows,
                             QueryStats* stats) {
  end = std::min<size_t>(end, page.header.count);
  if (begin >= end) return Status::Ok();

  metrics::StageBreakdown* stages = StagesOf(opt, stats);
  // Decode the slice's timestamps once; window boundaries are then binary
  // searches in the sorted array. (Constant-interval pages could skip this
  // via Proposition 4; the generic path decodes.)
  DecodedColumn times;
  ETSQP_RETURN_IF_ERROR(DecodeColumnRange(
      page.time_data.data(), page.time_data.size(),
      page.header.time_encoding, page.header.count, opt.strategy, begin, end,
      &times, /*ordered=*/true, stages));
  if (stats != nullptr) stats->tuples_scanned += times.size();
  size_t n = times.size();
  if (n == 0) return Status::Ok();
  std::vector<int64_t> t(n);
  times.Materialize(t.data());

  // Qualifying positions [pos, stop): inside the time filter and at or
  // after the first window's start.
  size_t pos = 0, stop = 0;
  WindowBounds(t.data(), n, trange, sw, &pos, &stop);
  // The fused reader's per-block residual cache is shared across all
  // windows of this slice.
  ValueColumnContext vctx;
  while (pos < stop) {
    int64_t k = sw.WindowIndex(t[pos]);
    size_t pend = std::lower_bound(t.begin() + pos, t.begin() + stop,
                                   sw.WindowStart(k + 1)) -
                  t.begin();
    AggAccum local;
    ETSQP_RETURN_IF_ERROR(AggValues(page, begin + pos, begin + pend, vrange,
                                    func, opt, &local, stats, &vctx));
    // A window appears only once a tuple passes every filter, so the
    // answer never depends on page boundaries or header pruning.
    if (local.count > 0) (*windows)[k].Merge(local);
    pos = pend;
  }
  return Status::Ok();
}

Status MaterializeSlice(const storage::Page& page, size_t begin, size_t end,
                        const TimeRange& trange, const ValueRange& vrange,
                        const PipelineOptions& opt,
                        std::vector<int64_t>* times,
                        std::vector<int64_t>* values, QueryStats* stats) {
  size_t p0 = 0, p1 = 0;
  ETSQP_RETURN_IF_ERROR(
      SlicePositions(page, begin, end, trange, opt, &p0, &p1, stats));
  if (p0 >= p1) return Status::Ok();
  metrics::StageBreakdown* stages = StagesOf(opt, stats);

  DecodedColumn tcol, vcol;
  ETSQP_RETURN_IF_ERROR(DecodeColumnRange(
      page.time_data.data(), page.time_data.size(),
      page.header.time_encoding, page.header.count, opt.strategy, p0, p1,
      &tcol, /*ordered=*/true, stages));
  ETSQP_RETURN_IF_ERROR(DecodeColumnRange(
      page.value_data.data(), page.value_data.size(),
      page.header.value_encoding, page.header.count, opt.strategy, p0, p1,
      &vcol, /*ordered=*/true, stages));
  if (stats != nullptr) stats->tuples_scanned += tcol.size() + vcol.size();

  size_t n = p1 - p0;
  if (!vrange.active) {
    // Bulk path: vectorized widening into the output tails. Emission is
    // merge-stage work (it fills the page vector a Figure 9 merge node
    // consumes).
    ScopedStageTimer timer(stages, Stage::kMerge);
    timer.AddTuples(n);
    size_t t_at = times->size();
    size_t v_at = values->size();
    times->resize(t_at + n);
    values->resize(v_at + n);
    tcol.Materialize(times->data() + t_at);
    vcol.Materialize(values->data() + v_at);
    return Status::Ok();
  }
  ScopedStageTimer timer(stages, Stage::kFilter);
  timer.AddTuples(n);
  times->reserve(times->size() + n);
  values->reserve(values->size() + n);
  for (size_t i = 0; i < n; ++i) {
    int64_t v = vcol.Get(i);
    if (!vrange.Contains(v)) continue;
    times->push_back(tcol.Get(i));
    values->push_back(v);
  }
  return Status::Ok();
}

PipelineOptions PipelineOptions::Etsqp(int threads) {
  PipelineOptions o;
  o.strategy = DecodeStrategy::kEtsqp;
  o.threads = threads;
  return o;
}

PipelineOptions PipelineOptions::EtsqpPrune(int threads) {
  return Etsqp(threads).WithPrune(true);
}

PipelineOptions PipelineOptions::Serial() {
  PipelineOptions o;
  o.strategy = DecodeStrategy::kSerial;
  return o;
}

PipelineOptions PipelineOptions::Sboost(int threads) {
  PipelineOptions o;
  o.strategy = DecodeStrategy::kSboost;
  o.threads = threads;
  return o;
}

PipelineOptions PipelineOptions::FastLanes(int threads) {
  PipelineOptions o;
  o.strategy = DecodeStrategy::kFastLanes;
  o.threads = threads;
  return o;
}

}  // namespace etsqp::exec
