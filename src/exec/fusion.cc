#include "exec/fusion.h"

#include <algorithm>
#include <limits>

#include "encoding/bitpack.h"
#include "simd/agg_simd.h"

namespace etsqp::exec {

namespace {

constexpr __int128 kInt64Max = std::numeric_limits<int64_t>::max();
constexpr __int128 kInt64Min = std::numeric_limits<int64_t>::min();

bool FitsInt64(__int128 v) { return v >= kInt64Min && v <= kInt64Max; }

/// Sum of k over [k1, k2].
inline __int128 SumK(int64_t k1, int64_t k2) {
  if (k1 > k2) return 0;
  return (static_cast<__int128>(k1) + k2) * (k2 - k1 + 1) / 2;
}

/// Sum of k^2 over [k1, k2].
inline __int128 SumK2(int64_t k1, int64_t k2) {
  if (k1 > k2) return 0;
  auto f = [](__int128 m) { return m * (m + 1) * (2 * m + 1) / 6; };
  return f(k2) - f(k1 - 1);
}

/// The fused TS2DIFF reader takes residuals of at most 31 bits.
Status CheckFusedWidth(const enc::Ts2DiffBlock& b) {
  if (b.width > 31) {
    return Status::NotSupported("fused sum: residual width > 31");
  }
  return Status::Ok();
}

}  // namespace

size_t Ts2DiffFusedReader::BlockOf(size_t pos) const {
  const std::vector<enc::Ts2DiffBlock>& blocks = col_->blocks();
  auto it = std::upper_bound(
      blocks.begin(), blocks.end(), pos,
      [](size_t p, const enc::Ts2DiffBlock& b) { return p < b.start_index; });
  return static_cast<size_t>(it - blocks.begin()) - 1;
}

Status Ts2DiffFusedReader::SumRange(size_t begin, size_t end, int64_t* out) {
  end = std::min<size_t>(end, col_->count());
  if (begin >= end) {
    *out = 0;
    return Status::Ok();
  }
  const std::vector<enc::Ts2DiffBlock>& blocks = col_->blocks();
  const bool resume = cursor_ok_ && begin == cursor_pos_;
  cursor_ok_ = false;
  size_t bi = resume ? cursor_block_ : BlockOf(begin);
  // x = X at `pos`: resumed from the cursor, or recomputed below.
  __int128 x = resume ? cursor_x_ : 0;
  bool have_x = resume;
  __int128 total = 0;
  size_t pos = begin;
  while (pos < end) {
    const enc::Ts2DiffBlock& b = blocks[bi];
    ETSQP_RETURN_IF_ERROR(CheckFusedWidth(b));
    const size_t la = pos - b.start_index;
    const size_t lb = std::min<size_t>(b.num_values(), end - b.start_index);
    const int64_t m = static_cast<int64_t>(lb - la);
    // X_la = first + la * base + sum r[0..la).
    if (!have_x) {
      x = b.first_value + static_cast<__int128>(b.min_delta) * la +
          simd::PackedRampSum(b.packed, b.packed_bytes, b.width, 0, la).sum;
    }
    // Block slice sum = m*X_la + base*m(m-1)/2 + sum (m-1-k) r[la+k] over
    // the m-1 residuals between the m values; their plain sum, plus the
    // residual after the last value, carries X on to X_lb.
    const simd::RampSums rs = simd::PackedRampSum(
        b.packed, b.packed_bytes, b.width, la, static_cast<size_t>(m - 1));
    total += x * m + static_cast<__int128>(b.min_delta) * m * (m - 1) / 2 +
             static_cast<__int128>(rs.ramp);
    if (!FitsInt64(total)) return Status::Overflow("fused SUM overflow");
    pos = b.start_index + lb;
    if (lb < b.num_values()) {
      x += static_cast<__int128>(b.min_delta) * m + rs.sum +
           enc::UnpackOneBE(b.packed, (lb - 1) * b.width, b.width);
    } else if (++bi < blocks.size()) {
      x = blocks[bi].first_value;
    }
    have_x = true;
  }
  if (bi < blocks.size()) {
    cursor_ok_ = true;
    cursor_pos_ = end;
    cursor_block_ = bi;
    cursor_x_ = static_cast<int64_t>(x);
  }
  *out = static_cast<int64_t>(total);
  return Status::Ok();
}

Result<DeltaRleFusedReader> DeltaRleFusedReader::Open(
    const enc::DeltaRleColumn& col) {
  DeltaRleFusedReader reader;
  reader.count_ = col.count();
  reader.first_value_ = col.first_value();
  reader.value_ = col.first_value();
  ETSQP_RETURN_IF_ERROR(col.DecodePairs(&reader.pairs_));
  return reader;
}

Status DeltaRleFusedReader::Aggregate(size_t begin, size_t end, bool need_sq,
                                      DeltaRleAggregates* out) {
  end = std::min<size_t>(end, count_);
  *out = DeltaRleAggregates{};
  if (count_ == 0 || begin >= end) return Status::Ok();

  __int128 sum = 0;
  __int128 sum_sq = 0;
  uint64_t count = 0;

  // Position 0 is the stored first value.
  if (begin == 0) {
    sum += first_value_;
    if (need_sq) sum_sq += static_cast<__int128>(first_value_) * first_value_;
    ++count;
  }
  // Position pos_ belongs to the run before the cursor's: resume only past
  // it.
  if (begin <= pos_) {
    run_ = 0;
    pos_ = 0;
    value_ = first_value_;
  }
  size_t ip = run_;
  size_t p = pos_;     // global position of `a`
  int64_t a = value_;
  while (ip < pairs_.size() && p + 1 < end) {
    // Every run started here lies before `end`: a later range resumes at
    // the last of them.
    run_ = ip;
    pos_ = p;
    value_ = a;
    int64_t d = pairs_[ip].delta;
    int64_t r = pairs_[ip].run;
    // Run covers positions p+1 .. p+r with value a + k*d at position p+k.
    int64_t k1 = std::max<int64_t>(1, static_cast<int64_t>(begin) -
                                          static_cast<int64_t>(p));
    int64_t k2 = std::min<int64_t>(r, static_cast<int64_t>(end) - 1 -
                                          static_cast<int64_t>(p));
    if (k1 <= k2) {
      __int128 cnt = k2 - k1 + 1;
      __int128 s1 = SumK(k1, k2);
      sum += static_cast<__int128>(a) * cnt + static_cast<__int128>(d) * s1;
      if (need_sq) {
        __int128 s2 = SumK2(k1, k2);
        sum_sq += static_cast<__int128>(a) * a * cnt +
                  2 * static_cast<__int128>(a) * d * s1 +
                  static_cast<__int128>(d) * d * s2;
      }
      count += static_cast<uint64_t>(cnt);
      if (!FitsInt64(sum)) return Status::Overflow("fused SUM overflow");
    }
    a += d * r;
    p += static_cast<size_t>(r);
    ++ip;
  }
  if (p < end) {
    run_ = ip;
    pos_ = p;
    value_ = a;
  }
  out->sum = static_cast<int64_t>(sum);
  out->sum_sq = sum_sq;
  out->count = count;
  return Status::Ok();
}

Status FusedAggDeltaRle(const enc::DeltaRleColumn& col, size_t begin,
                        size_t end, bool need_sq, DeltaRleAggregates* out) {
  Result<DeltaRleFusedReader> reader = DeltaRleFusedReader::Open(col);
  if (!reader.ok()) return reader.status();
  return reader.value().Aggregate(begin, end, need_sq, out);
}

Status FusedCrossDeltaRle(const enc::DeltaRleColumn& ca,
                          const enc::DeltaRleColumn& cb, size_t begin,
                          size_t end, __int128* out) {
  size_t n = std::min<size_t>(ca.count(), cb.count());
  end = std::min(end, n);
  __int128 cross = 0;
  if (begin >= end) {
    *out = 0;
    return Status::Ok();
  }

  int64_t a = ca.first_value();
  int64_t b = cb.first_value();
  if (begin == 0) cross += static_cast<__int128>(a) * b;

  std::vector<enc::DeltaRun> pa, pb;
  ETSQP_RETURN_IF_ERROR(ca.DecodePairs(&pa));
  ETSQP_RETURN_IF_ERROR(cb.DecodePairs(&pb));

  // Walk both pair lists; `valid = min(RLE1, RLE2)` remaining steps share
  // constant deltas on both sides (the Section IV polynomial).
  size_t ia = 0, ib = 0;
  uint32_t ra = ia < pa.size() ? pa[ia].run : 0;  // remaining in current run
  uint32_t rb = ib < pb.size() ? pb[ib].run : 0;
  size_t p = 0;  // global position of (a, b)
  while (ia < pa.size() && ib < pb.size() && p + 1 < end) {
    int64_t da = pa[ia].delta;
    int64_t db = pb[ib].delta;
    uint32_t valid = std::min(ra, rb);
    // Positions p+1 .. p+valid: A = a + k*da, B = b + k*db.
    int64_t k1 = std::max<int64_t>(1, static_cast<int64_t>(begin) -
                                          static_cast<int64_t>(p));
    int64_t k2 = std::min<int64_t>(valid, static_cast<int64_t>(end) - 1 -
                                              static_cast<int64_t>(p));
    if (k1 <= k2) {
      __int128 cnt = k2 - k1 + 1;
      __int128 s1 = SumK(k1, k2);
      __int128 s2 = SumK2(k1, k2);
      cross += static_cast<__int128>(a) * b * cnt +
               static_cast<__int128>(a) * db * s1 +
               static_cast<__int128>(b) * da * s1 +
               static_cast<__int128>(da) * db * s2;
    }
    a += da * valid;
    b += db * valid;
    p += valid;
    ra -= valid;
    rb -= valid;
    if (ra == 0 && ++ia < pa.size()) ra = pa[ia].run;
    if (rb == 0 && ++ib < pb.size()) rb = pb[ib].run;
  }
  *out = cross;
  return Status::Ok();
}

}  // namespace etsqp::exec
