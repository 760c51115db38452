#include "storage/pruning_index.h"

#include <cmath>
#include <cstring>

#include "common/metrics.h"

namespace etsqp::storage {

namespace {

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
constexpr size_t kNodeWidth = 64;

size_t PadToNode(size_t n) {
  return (n + kNodeWidth - 1) / kNodeWidth * kNodeWidth;
}

}  // namespace

bool HeaderValueKeys(const PageHeader& h, bool is_float, int64_t* lo,
                     int64_t* hi) {
  if (!is_float) {
    *lo = h.min_value;
    *hi = h.max_value;
    return true;
  }
  double mn, mx;
  std::memcpy(&mn, &h.min_value, sizeof(mn));
  std::memcpy(&mx, &h.max_value, sizeof(mx));
  if (std::isnan(mn) || std::isnan(mx)) {
    *lo = kInt64Min;
    *hi = kInt64Max;
    return false;
  }
  *lo = OrderedValueKey(mn);
  *hi = OrderedValueKey(mx);
  return true;
}

size_t PruningIndex::AddSeries(std::string name, bool is_float) {
  size_t slot = names_.size();
  names_.push_back(std::move(name));
  size_t padded = PadToNode(names_.size());
  time_min_.resize(padded, kInt64Max);
  time_max_.resize(padded, kInt64Min);
  value_min_.resize(padded, kInt64Max);
  value_max_.resize(padded, kInt64Min);
  float_words_.resize((padded + 63) / 64, 0);
  if (is_float) float_words_[slot >> 6] |= uint64_t{1} << (slot & 63);
  return slot;
}

void PruningIndex::WidenTime(size_t slot, int64_t t_min, int64_t t_max) {
  if (t_min < time_min_[slot]) time_min_[slot] = t_min;
  if (t_max > time_max_[slot]) time_max_[slot] = t_max;
}

void PruningIndex::WidenValue(size_t slot, int64_t k_min, int64_t k_max) {
  if (k_min < value_min_[slot]) value_min_[slot] = k_min;
  if (k_max > value_max_[slot]) value_max_[slot] = k_max;
}

void PruningIndex::InvalidateValue(size_t slot) {
  value_min_[slot] = kInt64Min;
  value_max_[slot] = kInt64Max;
}

SeriesSummary PruningIndex::GetSummary(size_t slot) const {
  SeriesSummary s;
  s.time_min = time_min_[slot];
  s.time_max = time_max_[slot];
  s.value_min_key = value_min_[slot];
  s.value_max_key = value_max_[slot];
  return s;
}

PruneProbeStats PruningIndex::CountMatching(
    const PruneProbe& probe, simd::PruneIsa isa,
    std::vector<size_t>* matched) const {
  PruneProbeStats out;
  out.series_total = names_.size();
  uint64_t t0 = metrics::NowNanos();
  size_t padded = time_min_.size();
  size_t words = (padded + 63) / 64;
  std::vector<uint64_t> mask(words == 0 ? 1 : words, 0);
  if (padded != 0) {
    if (!probe.value_active) {
      out.series_matched = simd::PruneScan(
          time_min_.data(), time_max_.data(), value_min_.data(),
          value_max_.data(), padded, probe.t_lo, probe.t_hi, false, 0, 0,
          mask.data(), isa);
    } else {
      // Integer and float series keep value envelopes in different key
      // domains, so the value-filtered sweep runs once per domain and the
      // per-slot float bit picks which verdict counts.
      std::vector<uint64_t> fmask(words, 0);
      simd::PruneScan(time_min_.data(), time_max_.data(), value_min_.data(),
                      value_max_.data(), padded, probe.t_lo, probe.t_hi, true,
                      probe.v_lo, probe.v_hi, mask.data(), isa);
      simd::PruneScan(time_min_.data(), time_max_.data(), value_min_.data(),
                      value_max_.data(), padded, probe.t_lo, probe.t_hi, true,
                      OrderedValueKey(static_cast<double>(probe.v_lo)),
                      OrderedValueKey(static_cast<double>(probe.v_hi)),
                      fmask.data(), isa);
      out.series_matched = 0;
      for (size_t w = 0; w < words; ++w) {
        mask[w] = (mask[w] & ~float_words_[w]) | (fmask[w] & float_words_[w]);
        out.series_matched +=
            static_cast<uint64_t>(__builtin_popcountll(mask[w]));
      }
    }
  }
  out.probe_nanos = metrics::NowNanos() - t0;
  if (matched != nullptr) {
    matched->clear();
    for (size_t i = 0; i < names_.size(); ++i) {
      if (mask[i >> 6] & (uint64_t{1} << (i & 63))) matched->push_back(i);
    }
  }
  return out;
}

}  // namespace etsqp::storage
