#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace sqlbench {

size_t PercentileRank(size_t n, double p) {
  if (n == 0) return 0;
  // Integer ceiling of p*n/100 with p in hundredths of a percent, so p99 of
  // 1000 samples is rank 990 exactly (no floating-point round-up to 991).
  const uint64_t p100 = static_cast<uint64_t>(p * 100 + 0.5);
  uint64_t rank = (p100 * n + 9999) / 10000;
  return static_cast<size_t>(std::clamp<uint64_t>(rank, 1, n));
}

size_t SamplesBeyond(size_t n, double p) { return n - PercentileRank(n, p); }

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t k = PercentileRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double MedianChunkP99(const std::vector<double>& samples, size_t chunk) {
  std::vector<double> p99s;
  for (size_t at = 0; chunk > 0 && at + chunk <= samples.size(); at += chunk) {
    p99s.emplace_back(Percentile(
        std::vector<double>(samples.begin() + at, samples.begin() + at + chunk),
        99));
  }
  return Median(std::move(p99s));
}

double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace sqlbench
