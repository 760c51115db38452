#include "storage/codec_advisor.h"

#include <algorithm>
#include <vector>

#include "common/bit_util.h"
#include "storage/page_builder.h"

namespace etsqp::storage {

ColumnShape SummarizeInts(const int64_t* values, size_t n) {
  ColumnShape shape;
  shape.count = n;
  if (n == 0) return shape;
  uint64_t value_runs = 1, delta_runs = 0;
  uint64_t max_zz = 0;
  int64_t prev_delta = 0;
  for (size_t i = 1; i < n; ++i) {
    if (values[i] != values[i - 1]) ++value_runs;
    int64_t delta = WrapSub64(values[i], values[i - 1]);  // shape only
    max_zz = std::max(max_zz, ZigZagEncode64(delta));
    if (i == 1 || delta != prev_delta) ++delta_runs;
    prev_delta = delta;
  }
  shape.delta_bits = BitWidth(max_zz);
  shape.mean_run = static_cast<double>(n) / static_cast<double>(value_runs);
  shape.mean_delta_run =
      n < 2 ? 1.0
            : static_cast<double>(n - 1) / static_cast<double>(delta_runs);
  return shape;
}

namespace {

struct Trial {
  enc::ColumnEncoding encoding;
  size_t bytes;
};

/// Picks from trial results: smallest bytes (the first candidate on a
/// tie), then the min-gain damper against `current`.
CodecAdvisor::Advice Pick(const std::vector<Trial>& trials,
                          enc::ColumnEncoding current) {
  CodecAdvisor::Advice advice;
  advice.encoding = current;
  Trial winner{current, SIZE_MAX};
  for (const Trial& t : trials) {
    if (t.encoding == current) advice.current_bytes = t.bytes;
    if (t.bytes < winner.bytes) winner = t;
  }
  if (winner.bytes == SIZE_MAX) return advice;

  // Keep the current codec unless the winner's gain clears the damper.
  if (winner.encoding != current && advice.current_bytes > 0) {
    double kept = static_cast<double>(advice.current_bytes);
    if (static_cast<double>(winner.bytes) >
        kept * (1.0 - CodecAdvisor::kMinGain)) {
      advice.encoded_bytes = advice.current_bytes;
      return advice;
    }
  }
  advice.encoding = winner.encoding;
  advice.encoded_bytes = winner.bytes;
  return advice;
}

}  // namespace

CodecAdvisor::Advice CodecAdvisor::AdviseInt(const int64_t* values, size_t n,
                                             enc::ColumnEncoding current,
                                             uint32_t block_size) const {
  ColumnShape shape = SummarizeInts(values, n);
  std::vector<enc::ColumnEncoding> candidates = {
      current, enc::ColumnEncoding::kTs2Diff};
  if (shape.mean_run >= 1.5 || shape.mean_delta_run >= 1.5) {
    candidates.push_back(enc::ColumnEncoding::kRlbe);
    candidates.push_back(enc::ColumnEncoding::kDeltaRle);
  }
  if (shape.delta_bits <= 32) {
    candidates.push_back(enc::ColumnEncoding::kSprintz);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<Trial> trials;
  for (enc::ColumnEncoding e : candidates) {
    size_t bytes = EncodedColumnBytes(values, n, e, block_size);
    if (bytes > 0) trials.push_back({e, bytes});
  }
  Advice advice = Pick(trials, current);
  advice.shape = shape;
  return advice;
}

CodecAdvisor::Advice CodecAdvisor::AdviseFloat(
    const double* values, size_t n, enc::ColumnEncoding current) const {
  std::vector<Trial> trials;
  for (enc::ColumnEncoding e :
       {enc::ColumnEncoding::kGorillaValue, enc::ColumnEncoding::kChimpValue,
        enc::ColumnEncoding::kElfValue}) {
    size_t bytes = EncodedColumnBytesF64(values, n, e);
    if (bytes > 0) trials.push_back({e, bytes});
  }
  return Pick(trials, current);
}

}  // namespace etsqp::storage
