#ifndef SQLBENCH_STATS_H_
#define SQLBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sqlbench {

/// 1-based nearest rank of the p-th percentile over n samples:
/// ceil(p/100 * n), clamped to [1, n]. 0 when n == 0.
size_t PercentileRank(size_t n, double p);

/// Samples strictly above the p-th percentile's rank: n - rank. A p99 is
/// reported only with at least 10 of them (choosing-metrics rule).
size_t SamplesBeyond(size_t n, double p);

/// Nearest-rank percentile of `samples` (0 for an empty set). Takes a copy
/// because it partially sorts.
double Percentile(std::vector<double> samples, double p);

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

/// The p99 of every run of `chunk` consecutive samples (the last, partial
/// run is dropped), and the median of those. With chunk = 1000 each p99
/// has exactly 10 samples beyond it; the median keeps one rare stall from
/// deciding the figure. 0 when there is no full chunk.
double MedianChunkP99(const std::vector<double>& samples, size_t chunk);

/// The process's peak resident set (VmHWM) in MiB; 0 if unreadable.
double PeakRssMiB();

/// Seconds on the monotonic clock.
double NowSeconds();

/// 64-bit FNV-1a, extended over successive buffers: inputs are compared
/// by their hash when checking that one seed reproduces them.
uint64_t Fnv1a(const void* data, size_t bytes,
               uint64_t h = 1469598103934665603ull);

/// Deterministic 64-bit mix of a seed and a stream index (splitmix64), so
/// every generated input has its own seed derived from the run's.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

}  // namespace sqlbench

#endif  // SQLBENCH_STATS_H_
