#ifndef ETSQP_TESTS_SCALAR_ORACLE_H_
#define ETSQP_TESTS_SCALAR_ORACLE_H_

// Ground truth for engine-level differential tests: a scalar model of one
// series built from the raw points a test inserted, with deletes, TTL and
// out-of-order buffering applied the way SeriesStore defines them, plus
// straightforward evaluators for aggregate and select plans over one series
// and for binary plans over two. It shares no code with the engine, so a
// planner or kernel bug cannot hide in both.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/expr.h"
#include "storage/series_store.h"

namespace etsqp::oracle {

class SeriesOracle {
 public:
  explicit SeriesOracle(bool is_float) : is_float_(is_float) {}

  /// Mirrors an accepted append: a point past the ordering fence becomes
  /// visible; one at or below it lands in the out-of-order buffer, which
  /// stays invisible until compaction.
  void Append(int64_t t, int64_t v) { Add(t, v, static_cast<double>(v)); }
  void AppendF64(int64_t t, double v) { Add(t, 0, v); }

  /// DeleteRange: clamped to the data seen so far, like the store.
  void DeleteRange(int64_t t0, int64_t t1) {
    if (fence_ == kMin) return;
    t1 = std::min(t1, fence_);
    if (t0 <= t1) deletes_.push_back({t0, t1});
  }
  /// SetTtl: points at or below `newest time - ttl` are expired.
  void SetTtl(int64_t ttl) { ttl_ = ttl; }

  /// The result columns the engine must return for an aggregate or select
  /// plan over this series.
  std::vector<std::vector<double>> Answer(
      const exec::LogicalPlan& plan) const {
    std::vector<std::vector<double>> out;
    if (plan.kind == exec::LogicalPlan::Kind::kSelect) {
      out.assign(2, {});
      for (size_t i = 0; i < times_.size(); ++i) {
        if (!Qualifies(plan, i)) continue;
        out[0].push_back(static_cast<double>(times_[i]));
        out[1].push_back(is_float_ ? fvalues_[i]
                                   : static_cast<double>(ivalues_[i]));
      }
      return out;
    }
    std::map<__int128, Accum> groups;  // window index (0 when unwindowed)
    for (size_t i = 0; i < times_.size(); ++i) {
      if (!Qualifies(plan, i)) continue;
      groups[WindowOf(plan, i)].Add(ivalues_[i], fvalues_[i]);
    }
    if (!plan.window.active) {
      out.assign(1, {});
      double v;
      Accum all = groups.empty() ? Accum() : groups.begin()->second;
      if (all.Finalize(plan.func, is_float_, &v)) out[0].push_back(v);
      return out;
    }
    out.assign(2, {});
    for (const auto& [k, acc] : groups) {
      double v;
      if (!acc.Finalize(plan.func, is_float_, &v)) continue;
      out[0].push_back(static_cast<double>(
          static_cast<int64_t>(plan.window.t_min + k * plan.window.delta_t)));
      out[1].push_back(v);
    }
    return out;
  }

  /// Whether SUM over some window (or the whole range, unwindowed) of an
  /// integer series leaves int64 — the engine then answers kOverflow.
  bool SumOutOfRange(const exec::LogicalPlan& plan) const {
    std::map<__int128, __int128> sums;
    for (size_t i = 0; i < times_.size(); ++i) {
      if (!Qualifies(plan, i)) continue;
      sums[WindowOf(plan, i)] += ivalues_[i];
    }
    for (const auto& [k, sum] : sums) {
      if (sum < std::numeric_limits<int64_t>::min() ||
          sum > std::numeric_limits<int64_t>::max()) {
        return true;
      }
    }
    return false;
  }

  /// The visible (time, value) points of an integer series that pass the
  /// plan's time and value filters, in time order: one input of a binary
  /// plan.
  std::vector<std::pair<int64_t, int64_t>> Points(
      const exec::LogicalPlan& plan) const {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (size_t i = 0; i < times_.size(); ++i) {
      if (Qualifies(plan, i)) out.emplace_back(times_[i], ivalues_[i]);
    }
    return out;
  }

 private:
  static constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

  struct Accum {
    __int128 isum = 0, isum_sq = 0;
    int64_t imin = std::numeric_limits<int64_t>::max();
    int64_t imax = std::numeric_limits<int64_t>::min();
    double fsum = 0, fsum_sq = 0;
    double fmin = std::numeric_limits<double>::infinity();
    double fmax = -std::numeric_limits<double>::infinity();
    uint64_t count = 0;

    void Add(int64_t iv, double fv) {
      ++count;
      isum += iv;
      // Squares of values near the int64 edges overflow even 128 bits; only
      // VAR reads the sum, so it wraps (defined) instead of overflowing.
      __builtin_add_overflow(isum_sq, static_cast<__int128>(iv) * iv,
                             &isum_sq);
      imin = std::min(imin, iv);
      imax = std::max(imax, iv);
      fsum += fv;
      fsum_sq += fv * fv;
      if (fv < fmin) fmin = fv;  // NaN never becomes the min or max
      if (fv > fmax) fmax = fv;
    }
    /// False when the aggregate of an empty set has no value (no row).
    bool Finalize(exec::AggFunc func, bool is_float, double* out) const {
      const double n = static_cast<double>(count);
      switch (func) {
        case exec::AggFunc::kSum:
          *out = is_float ? fsum : static_cast<double>(isum);
          return true;
        case exec::AggFunc::kCount:
          *out = n;
          return true;
        case exec::AggFunc::kAvg:
          *out = is_float ? fsum / n : static_cast<double>(isum) / n;
          return count > 0;
        case exec::AggFunc::kMin:
          *out = is_float ? fmin : static_cast<double>(imin);
          return count > 0;
        case exec::AggFunc::kMax:
          *out = is_float ? fmax : static_cast<double>(imax);
          return count > 0;
        case exec::AggFunc::kVariance: {
          double mean = is_float ? fsum / n : static_cast<double>(isum) / n;
          double ex2 = is_float ? fsum_sq / n : static_cast<double>(isum_sq) / n;
          *out = ex2 - mean * mean;
          return count > 0;
        }
      }
      return false;
    }
  };

  void Add(int64_t t, int64_t iv, double fv) {
    if (t <= fence_) return;  // out-of-order buffer: invisible
    fence_ = t;
    times_.push_back(t);
    ivalues_.push_back(iv);
    fvalues_.push_back(fv);
  }

  bool Visible(int64_t t) const {
    for (const storage::TimeInterval& d : deletes_) {
      if (t >= d.lo && t <= d.hi) return false;
    }
    return ttl_ <= 0 || static_cast<__int128>(t) >
                            static_cast<__int128>(fence_) - ttl_;
  }

  /// Window index of point i (0 when unwindowed), 128-bit: with a small dT
  /// and an origin far below the data it exceeds int64.
  __int128 WindowOf(const exec::LogicalPlan& plan, size_t i) const {
    if (!plan.window.active) return 0;
    return (static_cast<__int128>(times_[i]) - plan.window.t_min) /
           plan.window.delta_t;
  }

  bool Qualifies(const exec::LogicalPlan& plan, size_t i) const {
    const int64_t t = times_[i];
    if (!Visible(t) || !plan.time_filter.Contains(t)) return false;
    if (plan.window.active && t < plan.window.t_min) return false;
    const exec::ValueRange& vr = plan.value_filter;
    if (!vr.active) return true;
    if (!is_float_) return ivalues_[i] >= vr.lo && ivalues_[i] <= vr.hi;
    // Float series compare against the SQL literals: a strict bound was
    // folded one step inward (`v > L` is lo = L + 1). A NaN passes, as in
    // every float drain.
    const double v = fvalues_[i];
    const double lo = static_cast<double>(vr.lo_strict ? vr.lo - 1 : vr.lo);
    const double hi = static_cast<double>(vr.hi_strict ? vr.hi + 1 : vr.hi);
    if (vr.lo_strict ? v <= lo : v < lo) return false;
    return !(vr.hi_strict ? v >= hi : v > hi);
  }

  bool is_float_;
  int64_t fence_ = kMin;
  std::vector<int64_t> times_;
  std::vector<int64_t> ivalues_;
  std::vector<double> fvalues_;
  std::vector<storage::TimeInterval> deletes_;
  int64_t ttl_ = 0;
};

/// The result columns the engine must return for a binary plan over two
/// integer series: projection, natural join, UNION or CORR. Both inputs see
/// the plan's time and value filters. The join pairs equal timestamps and
/// keeps the pairs that pass the inter-column filter (Eq. 3), in time
/// order; UNION merges by time with the left tuple first on equal
/// timestamps; CORR returns (corr, cov, n), no row when nothing pairs.
/// `overflow` is set when a projected value leaves int64.
inline std::vector<std::vector<double>> BinaryAnswer(
    const exec::LogicalPlan& plan, const SeriesOracle& left,
    const SeriesOracle& right, bool* overflow) {
  using Kind = exec::LogicalPlan::Kind;
  *overflow = false;
  const std::vector<std::pair<int64_t, int64_t>> l = left.Points(plan);
  const std::vector<std::pair<int64_t, int64_t>> r = right.Points(plan);
  std::vector<std::vector<double>> out;
  if (plan.kind == Kind::kUnion) {
    out.assign(2, {});
    size_t i = 0, j = 0;
    while (i < l.size() || j < r.size()) {
      const bool take_left =
          j == r.size() || (i < l.size() && l[i].first <= r[j].first);
      const std::pair<int64_t, int64_t>& p = take_left ? l[i++] : r[j++];
      out[0].push_back(static_cast<double>(p.first));
      out[1].push_back(static_cast<double>(p.second));
    }
    return out;
  }
  out.assign(plan.kind == Kind::kJoin || plan.kind == Kind::kCorrelate ? 3 : 2,
             {});
  __int128 sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  uint64_t n = 0;
  size_t i = 0, j = 0;
  while (i < l.size() && j < r.size()) {
    if (l[i].first < r[j].first) {
      ++i;
      continue;
    }
    if (r[j].first < l[i].first) {
      ++j;
      continue;
    }
    const int64_t t = l[i].first, a = l[i].second, b = r[j].second;
    ++i;
    ++j;
    if (plan.kind == Kind::kCorrelate) {
      sa += a;
      sb += b;
      saa += static_cast<__int128>(a) * a;
      sbb += static_cast<__int128>(b) * b;
      sab += static_cast<__int128>(a) * b;
      ++n;
      continue;
    }
    const bool keep = plan.inter_column_op == '<'   ? a < b
                      : plan.inter_column_op == '>' ? a > b
                      : plan.inter_column_op == '=' ? a == b
                                                    : true;
    if (!keep) continue;
    out[0].push_back(static_cast<double>(t));
    if (plan.kind == Kind::kJoin) {
      out[1].push_back(static_cast<double>(a));
      out[2].push_back(static_cast<double>(b));
      continue;
    }
    const __int128 v = plan.binary_op == '-'   ? __int128{a} - b
                       : plan.binary_op == '*' ? __int128{a} * b
                                               : __int128{a} + b;
    if (v < std::numeric_limits<int64_t>::min() ||
        v > std::numeric_limits<int64_t>::max()) {
      *overflow = true;
    }
    out[1].push_back(static_cast<double>(static_cast<int64_t>(v)));
  }
  if (plan.kind == Kind::kCorrelate && n > 0) {
    const double dn = static_cast<double>(n);
    const double ma = static_cast<double>(sa) / dn;
    const double mb = static_cast<double>(sb) / dn;
    const double cov = static_cast<double>(sab) / dn - ma * mb;
    const double va = static_cast<double>(saa) / dn - ma * ma;
    const double vb = static_cast<double>(sbb) / dn - mb * mb;
    const double denom = std::sqrt(va) * std::sqrt(vb);
    out[0].push_back(denom > 0 ? cov / denom : 0.0);
    out[1].push_back(cov);
    out[2].push_back(dn);
  }
  return out;
}

/// Column-wise equality of an engine result with the oracle's: exact for
/// integer series; for float series within 1e-9 relative (the engine sums
/// per page and merges partials, so the summation order differs), with NaN
/// equal to NaN. On mismatch `why` names the first differing cell.
inline bool SameColumns(const std::vector<std::vector<double>>& got,
                        const std::vector<std::vector<double>>& want,
                        bool is_float, std::string* why) {
  if (got.size() != want.size()) {
    *why = "column count " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
    return false;
  }
  for (size_t c = 0; c < got.size(); ++c) {
    if (got[c].size() != want[c].size()) {
      *why = "column " + std::to_string(c) + " rows " +
             std::to_string(got[c].size()) + " vs " +
             std::to_string(want[c].size());
      return false;
    }
    for (size_t r = 0; r < got[c].size(); ++r) {
      const double a = got[c][r], b = want[c][r];
      const bool same =
          (std::isnan(a) && std::isnan(b)) || a == b ||
          (is_float && std::fabs(a - b) <=
                           1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)}));
      if (!same) {
        *why = "cell (" + std::to_string(c) + ", " + std::to_string(r) +
               "): " + std::to_string(a) + " vs " + std::to_string(b);
        return false;
      }
    }
  }
  return true;
}

}  // namespace etsqp::oracle

#endif  // ETSQP_TESTS_SCALAR_ORACLE_H_
