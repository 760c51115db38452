#include "exec/pipeline.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "exec/fusion.h"
#include "exec/pruning.h"
#include "simd/agg_simd.h"

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

/// Times a section as `stage`, less what the stages timed inside it record
/// themselves (the decodes a time search needs, the windows' aggregation):
/// one clock pair however many searches the section makes. A no-op when
/// `stages` is null.
class ExclusiveStageTimer {
 public:
  ExclusiveStageTimer(metrics::StageBreakdown* stages, Stage stage)
      : stages_(stages),
        stage_(stage),
        start_(stages != nullptr ? metrics::NowNanos() : 0),
        nested_(stages != nullptr ? stages->TotalNanos() : 0) {}
  ~ExclusiveStageTimer() {
    if (stages_ == nullptr) return;
    const uint64_t elapsed = metrics::NowNanos() - start_;
    const uint64_t nested = stages_->TotalNanos() - nested_;
    metrics::StageStats& s = (*stages_)[stage_];
    s.nanos += elapsed > nested ? elapsed - nested : 0;
    ++s.calls;
  }

  ExclusiveStageTimer(const ExclusiveStageTimer&) = delete;
  ExclusiveStageTimer& operator=(const ExclusiveStageTimer&) = delete;

  void AddTuples(uint64_t n) {
    if (stages_ != nullptr) (*stages_)[stage_].tuples += n;
  }

 private:
  metrics::StageBreakdown* const stages_;
  const Stage stage_;
  const uint64_t start_;
  const uint64_t nested_;
};

int32_t ClampToInt32(__int128 v) {
  if (v > std::numeric_limits<int32_t>::max()) {
    return std::numeric_limits<int32_t>::max();
  }
  if (v < std::numeric_limits<int32_t>::min()) {
    return std::numeric_limits<int32_t>::min();
  }
  return static_cast<int32_t>(v);
}

/// Index in [lo, hi) of the first time >= t in a decoded, ascending time
/// column, else hi — searched in the column's own form.
size_t FirstAtOrAbove(const DecodedColumn& col, size_t lo, size_t hi,
                      __int128 t) {
  if (col.narrow) {
    const __int128 rel = t - col.base;
    if (rel > std::numeric_limits<int32_t>::max()) return hi;
    const int32_t key = ClampToInt32(rel);
    return std::lower_bound(col.offsets.begin() + lo,
                            col.offsets.begin() + hi, key) -
           col.offsets.begin();
  }
  if (t > kI64Max) return hi;
  const int64_t key = t < kI64Min ? std::numeric_limits<int64_t>::min()
                                  : static_cast<int64_t>(t);
  return std::lower_bound(col.values64.begin() + lo,
                          col.values64.begin() + hi, key) -
         col.values64.begin();
}

/// The timestamps of positions [begin, end) of one page, searched in place
/// for filter bounds and window cuts — never copied into an int64 array. A
/// TS2DIFF time column is one segment per block, any other codec one
/// segment for the slice. A segment decodes into its narrow form only when
/// a search or At needs its times, once: a block whose first timestamp is
/// already at or above the searched time answers at its start, and under
/// opt.prune (Proposition 4) a constant-interval block is a run of
/// arithmetic that never decodes and a block whose width-derived upper
/// bound lies below the searched time is passed over. Searches move a
/// cursor forward through the segments; the decodes time themselves.
class SliceTimes {
 public:
  SliceTimes(const storage::Page& page, const PipelineOptions& opt,
             QueryStats* stats)
      : page_(page), opt_(opt), stats_(stats) {}

  Status Open(size_t begin, size_t end) {
    if (begin >= end) return Status::Ok();
    if (page_.header.time_encoding != enc::ColumnEncoding::kTs2Diff) {
      segs_.push_back(Segment{begin, end, nullptr, false, false, {}});
      return Status::Ok();
    }
    Result<enc::Ts2DiffColumn> parsed = enc::Ts2DiffColumn::Parse(
        page_.time_data.data(), page_.time_data.size());
    if (!parsed.ok()) return parsed.status();
    col_ = std::move(parsed).value();
    if (col_.count() != page_.header.count) {
      return Status::Corruption("time column count");
    }
    for (const enc::Ts2DiffBlock& b : col_.blocks()) {
      const size_t bs = std::max<size_t>(b.start_index, begin);
      const size_t be = std::min<size_t>(b.start_index + b.num_values(), end);
      if (bs >= be) continue;
      const bool arith =
          opt_.prune && b.constant_interval() && b.min_delta > 0;
      segs_.push_back(Segment{bs, be, &b, arith, false, {}});
    }
    return Status::Ok();
  }

  /// Timestamp at position p in [begin, end).
  Status At(size_t p, int64_t* t) {
    Segment& s = segs_[Find(p)];
    if (s.block != nullptr && (s.arith || p == s.block->start_index)) {
      *t = s.block->first_value +
           static_cast<int64_t>(p - s.block->start_index) *
               s.block->min_delta;
      return Status::Ok();
    }
    if (!s.decoded) ETSQP_RETURN_IF_ERROR(Decode(&s));
    *t = s.col.Get(p - s.begin);
    return Status::Ok();
  }

  /// *out = the first position in [from, to) whose timestamp is >= t,
  /// else to (<= end).
  Status LowerBound(size_t from, size_t to, __int128 t, size_t* out) {
    *out = to;
    if (from >= to) return Status::Ok();
    for (size_t i = Find(from); i < segs_.size() && segs_[i].begin < to;
         ++i) {
      Segment& s = segs_[i];
      const enc::Ts2DiffBlock* b = s.block;
      const size_t lo = std::max(from, s.begin);
      size_t hit = lo;  // a block whose first time is >= t answers at once
      if (s.arith) {
        hit = std::clamp(b->start_index + ConstantIntervalLowerBound(*b, t),
                         lo, s.end);
      } else if (b == nullptr || b->first_value < t) {
        if (!s.decoded) {
          if (b != nullptr && opt_.prune && BlockTimeUpperBound(*b) < t) {
            continue;  // Proposition 4: the whole block lies below t
          }
          ETSQP_RETURN_IF_ERROR(Decode(&s));
        }
        hit = s.begin +
              FirstAtOrAbove(s.col, lo - s.begin, s.end - s.begin, t);
      }
      if (hit < s.end) {
        seg_ = i;
        *out = std::min(hit, to);
        return Status::Ok();
      }
    }
    return Status::Ok();
  }

  /// Blocks lying wholly outside positions [p0, p1) that never decoded —
  /// the time filter's pruned blocks.
  uint64_t BlocksSkipped(size_t p0, size_t p1) const {
    uint64_t n = 0;
    for (const Segment& s : segs_) {
      n += s.block != nullptr && !s.decoded && (s.end <= p0 || s.begin >= p1);
    }
    return n;
  }

 private:
  struct Segment {
    size_t begin;  // page positions [begin, end)
    size_t end;
    const enc::Ts2DiffBlock* block;  // the TS2DIFF block, else null
    bool arith;    // a constant-interval block, positioned by arithmetic
    bool decoded;  // col holds the times from position `begin` on
    DecodedColumn col;
  };

  Status Decode(Segment* s) {
    ETSQP_RETURN_IF_ERROR(DecodeColumnRange(
        page_.time_data.data(), page_.time_data.size(),
        page_.header.time_encoding, page_.header.count, opt_.strategy,
        s->begin, s->end, &s->col, /*ordered=*/true, StagesOf(opt_, stats_)));
    if (stats_ != nullptr) stats_->tuples_scanned += s->col.size();
    s->decoded = true;
    return Status::Ok();
  }

  /// Index of the segment holding position p (< end).
  size_t Find(size_t p) {
    if (seg_ >= segs_.size() || p < segs_[seg_].begin) seg_ = 0;
    while (segs_[seg_].end <= p) ++seg_;
    return seg_;
  }

  const storage::Page& page_;
  const PipelineOptions& opt_;
  QueryStats* const stats_;
  enc::Ts2DiffColumn col_;  // the blocks segments point into
  std::vector<Segment> segs_;
  size_t seg_ = 0;
};

/// Whether `func` consumes min/max (others skip that pass entirely).
bool NeedsMinMax(AggFunc func) {
  return func == AggFunc::kMin || func == AggFunc::kMax;
}

/// Aggregates rows [from, to) of a decoded column into `accum` (no value
/// filter).
void AggDecoded(const DecodedColumn& col, size_t from, size_t to,
                AggFunc func, AggAccum* accum,
                metrics::StageBreakdown* stages) {
  const size_t n = to - from;
  if (n == 0) return;
  ScopedStageTimer timer(stages, Stage::kAggregate);
  timer.AddTuples(n);
  const bool need_sq = func == AggFunc::kVariance;
  if (col.narrow && !need_sq) {
    const int32_t* offsets = col.offsets.data() + from;
    int64_t off_sum = simd::SumInt32(offsets, n);
    accum->sum += static_cast<__int128>(col.base) * n + off_sum;
    accum->count += n;
    if (NeedsMinMax(func)) {
      int32_t mn, mx;
      simd::MinMaxInt32(offsets, n, &mn, &mx);
      accum->min = std::min(accum->min, col.base + mn);
      accum->max = std::max(accum->max, col.base + mx);
    }
    return;
  }
  for (size_t i = from; i < to; ++i) accum->AddValue(col.Get(i), need_sq);
}

/// Aggregates the rows [from, to) of a decoded column matching `vrange`.
/// A narrow column takes one compare-and-accumulate pass: the count, sum
/// and min/max come from the same compare, with no mask in between, so
/// the pass times as aggregation.
void AggDecodedFiltered(const DecodedColumn& col, size_t from, size_t to,
                        const ValueRange& vrange, AggFunc func,
                        AggAccum* accum, metrics::StageBreakdown* stages) {
  const size_t n = to - from;
  if (n == 0) return;
  ScopedStageTimer timer(stages, Stage::kAggregate);
  timer.AddTuples(n);
  const bool need_sq = func == AggFunc::kVariance;
  if (col.narrow && !need_sq) {
    const bool min_max = NeedsMinMax(func);
    const bool sum = func != AggFunc::kCount && !min_max;
    const simd::RangeAggregate agg = simd::RangeAggregateInt32(
        col.offsets.data() + from, n,
        ClampToInt32(static_cast<__int128>(vrange.lo) - col.base),
        ClampToInt32(static_cast<__int128>(vrange.hi) - col.base), sum,
        min_max);
    if (agg.count == 0) return;
    accum->count += agg.count;
    if (sum) {
      accum->sum += static_cast<__int128>(col.base) * agg.count + agg.sum;
    }
    if (min_max) {
      accum->min = std::min(accum->min, col.base + agg.min);
      accum->max = std::max(accum->max, col.base + agg.max);
    }
    return;
  }
  for (size_t i = from; i < to; ++i) {
    int64_t v = col.Get(i);
    if (vrange.Contains(v)) accum->AddValue(v, need_sq);
  }
}

/// Whether Proposition 5 block pruning applies to a value column: a value
/// filter over TS2DIFF, with pruning on, on a vectorized strategy.
bool ValueBlocksPrunable(const PipelineOptions& opt, enc::ColumnEncoding venc,
                         const ValueRange& vrange) {
  return vrange.active && opt.prune &&
         venc == enc::ColumnEncoding::kTs2Diff &&
         opt.strategy != DecodeStrategy::kSerial;
}

/// The values of positions [begin, end) of one page for the ranges no fused
/// reader answers, decoded once as the ranges advance: the whole range in
/// one chunk, or — where Proposition 5 applies — one TS2DIFF block per
/// chunk, a block whose values cannot meet the filter skipped whole. Only
/// the chunk under the current range is kept. `ordered` false lets the
/// decode keep the transposed order, valid only when every Aggregate call
/// covers whole chunks (one call over [begin, end)).
class SliceValues {
 public:
  SliceValues(const storage::Page& page, size_t begin, size_t end,
              const ValueRange& vrange, AggFunc func,
              const PipelineOptions& opt, bool ordered, QueryStats* stats)
      : page_(page),
        begin_(begin),
        end_(end),
        vrange_(vrange),
        func_(func),
        opt_(opt),
        ordered_(ordered),
        stats_(stats),
        by_block_(
            ValueBlocksPrunable(opt, page.header.value_encoding, vrange)) {}

  /// Folds positions [p, q) (ascending from call to call) into `accum`.
  Status Aggregate(size_t p, size_t q, AggAccum* accum) {
    while (p < q) {
      if (p < chunk_begin_ || p >= chunk_end_) ETSQP_RETURN_IF_ERROR(Load(p));
      const size_t to = std::min(q, chunk_end_);
      if (!pruned_) {
        metrics::StageBreakdown* stages = StagesOf(opt_, stats_);
        if (vrange_.active) {
          AggDecodedFiltered(col_, p - chunk_begin_, to - chunk_begin_,
                             vrange_, func_, accum, stages);
        } else {
          AggDecoded(col_, p - chunk_begin_, to - chunk_begin_, func_, accum,
                     stages);
        }
      }
      p = to;
    }
    // Sums accumulate in 128-bit; int64 range is enforced at Finalize for
    // SUM only (AVG/VAR remain exact at this width — Section VI-C's larger
    // quantity).
    return Status::Ok();
  }

 private:
  /// Makes the chunk hold position p.
  Status Load(size_t p) {
    chunk_begin_ = begin_;
    chunk_end_ = end_;
    pruned_ = false;
    if (by_block_) {
      if (!blocks_) {
        Result<enc::Ts2DiffColumn> parsed = enc::Ts2DiffColumn::Parse(
            page_.value_data.data(), page_.value_data.size());
        if (!parsed.ok()) return parsed.status();
        if (parsed.value().count() != page_.header.count) {
          return Status::Corruption("ts2diff count");
        }
        blocks_ = std::move(parsed).value();
      }
      const std::vector<enc::Ts2DiffBlock>& blocks = blocks_->blocks();
      if (block_ >= blocks.size() || p < blocks[block_].start_index) {
        block_ = 0;
      }
      while (blocks[block_].start_index + blocks[block_].num_values() <= p) {
        ++block_;
      }
      const enc::Ts2DiffBlock& b = blocks[block_];
      chunk_begin_ = std::max<size_t>(b.start_index, begin_);
      chunk_end_ = std::min<size_t>(b.start_index + b.num_values(), end_);
      if (ValueBlockPrunable(b, vrange_.lo, vrange_.hi)) {
        pruned_ = true;
        if (stats_ != nullptr) ++stats_->blocks_pruned;
        return Status::Ok();
      }
      ETSQP_RETURN_IF_ERROR(DecodeTs2DiffRange(*blocks_, opt_.strategy,
                                               chunk_begin_, chunk_end_,
                                               &col_, ordered_,
                                               StagesOf(opt_, stats_)));
    } else {
      ETSQP_RETURN_IF_ERROR(DecodeColumnRange(
          page_.value_data.data(), page_.value_data.size(),
          page_.header.value_encoding, page_.header.count, opt_.strategy,
          chunk_begin_, chunk_end_, &col_, ordered_, StagesOf(opt_, stats_)));
    }
    if (stats_ != nullptr) stats_->tuples_scanned += col_.size();
    return Status::Ok();
  }

  const storage::Page& page_;
  const size_t begin_;
  const size_t end_;
  const ValueRange& vrange_;
  const AggFunc func_;
  const PipelineOptions& opt_;
  const bool ordered_;
  QueryStats* const stats_;
  const bool by_block_;
  std::optional<enc::Ts2DiffColumn> blocks_;
  size_t block_ = 0;
  // The loaded chunk: positions [chunk_begin_, chunk_end_), decoded into
  // col_ unless pruned_. Empty until the first Load.
  size_t chunk_begin_ = 0;
  size_t chunk_end_ = 0;
  bool pruned_ = false;
  DecodedColumn col_;
};

/// A fused reader of one page's value column, opened on first use.
template <typename Reader>
struct LazyReader {
  std::optional<Result<Reader>> reader;

  Result<Reader>& Get(const storage::Page& page) {
    if (!reader) {
      reader.emplace(
          Reader::Open(page.value_data.data(), page.value_data.size()));
    }
    return *reader;
  }
};

/// The fused readers of one page slice, shared by its windows so that a
/// reader's forward cursor carries from each window to the next.
struct FusedValues {
  LazyReader<Ts2DiffFusedReader> ts2diff;
  LazyReader<DeltaRleFusedReader> delta_rle;

  /// Whether positions alone (an unfiltered COUNT) or a fused reader can
  /// answer `func` over the page's value column (Section IV).
  static bool Apply(const storage::Page& page, const ValueRange& vrange,
                    AggFunc func, const PipelineOptions& opt) {
    return (func == AggFunc::kCount && !vrange.active) ||
           (opt.strategy == DecodeStrategy::kEtsqp &&
            FusedAggregate(func, page.header.value_encoding, vrange.active));
  }

  /// Folds positions [p0, p1) into `accum` without decoding, where Apply
  /// holds. Any error leaves `accum` untouched, and the caller decodes
  /// instead: kOverflow when the sum needs more than int64 (Section VI-C's
  /// "aggregate with a larger quantity"), kNotSupported for residuals
  /// wider than 31 bits.
  Status Aggregate(const storage::Page& page, size_t p0, size_t p1,
                   AggFunc func, const PipelineOptions& opt, AggAccum* accum,
                   QueryStats* stats) {
    if (func == AggFunc::kCount) {
      accum->count += p1 - p0;
      return Status::Ok();
    }
    // The fused readers skip the separate unpack/delta passes entirely —
    // their whole cost is the aggregation stage (Section IV).
    ScopedStageTimer timer(StagesOf(opt, stats), Stage::kAggregate);
    if (page.header.value_encoding == enc::ColumnEncoding::kTs2Diff) {
      Result<Ts2DiffFusedReader>& reader = ts2diff.Get(page);
      if (!reader.ok()) return reader.status();
      int64_t sum = 0;
      ETSQP_RETURN_IF_ERROR(reader.value().SumRange(p0, p1, &sum));
      accum->sum += sum;
      accum->count += p1 - p0;
    } else {
      Result<DeltaRleFusedReader>& reader = delta_rle.Get(page);
      if (!reader.ok()) return reader.status();
      DeltaRleAggregates agg;
      ETSQP_RETURN_IF_ERROR(reader.value().Aggregate(
          p0, p1, func == AggFunc::kVariance, &agg));
      accum->sum += agg.sum;
      accum->sum_sq += agg.sum_sq;
      accum->count += agg.count;
    }
    timer.AddTuples(p1 - p0);
    if (stats != nullptr) stats->tuples_scanned += p1 - p0;
    return Status::Ok();
  }
};

/// Value aggregation over positions [p0, p1) with optional value filter and
/// Proposition 5 block pruning: fused where it applies, else one decode.
Status AggValues(const storage::Page& page, size_t p0, size_t p1,
                 const ValueRange& vrange, AggFunc func,
                 const PipelineOptions& opt, AggAccum* accum,
                 QueryStats* stats) {
  if (p0 >= p1) return Status::Ok();
  if (FusedValues::Apply(page, vrange, func, opt) &&
      FusedValues().Aggregate(page, p0, p1, func, opt, accum, stats).ok()) {
    return Status::Ok();
  }
  return SliceValues(page, p0, p1, vrange, func, opt, /*ordered=*/false,
                     stats)
      .Aggregate(p0, p1, accum);
}

}  // namespace

Status SlicePositions(const storage::Page& page, size_t begin, size_t end,
                      const TimeRange& trange, const PipelineOptions& opt,
                      size_t* p0, size_t* p1, QueryStats* stats) {
  end = std::min<size_t>(end, page.header.count);
  *p0 = begin;
  *p1 = end;
  if (trange.IsUniverse()) return Status::Ok();
  ExclusiveStageTimer timer(StagesOf(opt, stats), Stage::kFilter);
  timer.AddTuples(end - begin);
  SliceTimes times(page, opt, stats);
  ETSQP_RETURN_IF_ERROR(times.Open(begin, end));
  ETSQP_RETURN_IF_ERROR(times.LowerBound(begin, end, trange.lo, p0));
  ETSQP_RETURN_IF_ERROR(
      times.LowerBound(*p0, end, static_cast<__int128>(trange.hi) + 1, p1));
  if (stats != nullptr) stats->blocks_pruned += times.BlocksSkipped(*p0, *p1);
  return Status::Ok();
}

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
                             WindowRun<AggAccum>* windows, QueryStats* stats) {
  end = std::min<size_t>(end, page.header.count);
  if (begin >= end) return Status::Ok();

  // The qualifying positions [pos, stop): inside the time filter and at or
  // after the first window's start. Their search and each window's cut are
  // the filter stage, timed around the loop.
  ExclusiveStageTimer timer(StagesOf(opt, stats), Stage::kFilter);
  SliceTimes times(page, opt, stats);
  ETSQP_RETURN_IF_ERROR(times.Open(begin, end));
  size_t pos = 0, stop = 0;
  ETSQP_RETURN_IF_ERROR(
      times.LowerBound(begin, end, std::max(trange.lo, sw.t_min), &pos));
  ETSQP_RETURN_IF_ERROR(times.LowerBound(
      pos, end, static_cast<__int128>(trange.hi) + 1, &stop));
  const size_t first = pos;
  // The fused readers carry their cursor from each window to the next; a
  // window they decline, or cannot answer, decodes from values decoded once
  // per slice.
  const bool fusable = FusedValues::Apply(page, vrange, func, opt);
  FusedValues fused;
  SliceValues values(page, pos, stop, vrange, func, opt, /*ordered=*/true,
                     stats);
  while (pos < stop) {
    int64_t t = 0;
    ETSQP_RETURN_IF_ERROR(times.At(pos, &t));
    const int64_t start = sw.WindowStartOf(t);
    size_t pend = 0;
    ETSQP_RETURN_IF_ERROR(
        times.LowerBound(pos, stop, sw.NextWindowStart(start), &pend));
    AggAccum local;
    if (!fusable ||
        !fused.Aggregate(page, pos, pend, func, opt, &local, stats).ok()) {
      ETSQP_RETURN_IF_ERROR(values.Aggregate(pos, pend, &local));
    }
    // A window appears only once a tuple passes every filter, so the
    // answer never depends on page boundaries or header pruning.
    if (local.count > 0) windows->Add(start, local);
    pos = pend;
  }
  timer.AddTuples(stop - first);
  if (stats != nullptr) stats->blocks_pruned += times.BlocksSkipped(first, stop);
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
