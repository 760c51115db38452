// Choosing an encoder for your data: encodes the same series with every
// integer encoder in the library and reports compression ratio plus decode
// speed under the ETSQP engine — the "evaluations could help to choose
// better existing encoders for IoT data" use case from the paper's
// conclusion.
//
//   build/examples/encoder_comparison

#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "exec/column_decoder.h"
#include "storage/page_builder.h"

namespace {

using namespace etsqp;

double DecodeMvps(const storage::Page& page, exec::DecodeStrategy strategy) {
  exec::DecodedColumn out;
  double best = 1e100;
  for (int r = 0; r < 5; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    if (!exec::DecodeColumn(page.value_data.data(), page.value_data.size(),
                            page.header.value_encoding, page.header.count,
                            strategy, &out)
             .ok()) {
      return 0;
    }
    double s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    best = std::min(best, s);
  }
  return page.header.count / best / 1e6;
}

void Compare(const char* label, const std::vector<int64_t>& values) {
  std::vector<int64_t> times(values.size());
  for (size_t i = 0; i < times.size(); ++i) {
    times[i] = 1000 + static_cast<int64_t>(i) * 50;
  }
  std::printf("\n%s (%zu values, raw %zu KB)\n", label, values.size(),
              values.size() * 8 / 1024);
  std::printf("  %-12s %10s %14s %14s\n", "encoding", "ratio", "ETSQP Mv/s",
              "Serial Mv/s");
  for (enc::ColumnEncoding e :
       {enc::ColumnEncoding::kTs2Diff, enc::ColumnEncoding::kDeltaRle,
        enc::ColumnEncoding::kSprintz, enc::ColumnEncoding::kRlbe,
        enc::ColumnEncoding::kFastLanes}) {
    storage::PageOptions opt;
    opt.value_encoding = e;
    auto page = storage::BuildPage(times.data(), values.data(), values.size(),
                                   opt);
    if (!page.ok()) continue;
    double ratio = static_cast<double>(page.value().header.value_bytes) /
                   (values.size() * 8.0);
    exec::DecodeStrategy fast = e == enc::ColumnEncoding::kFastLanes
                                    ? exec::DecodeStrategy::kFastLanes
                                    : exec::DecodeStrategy::kEtsqp;
    std::printf("  %-12s %9.1f%% %14.0f %14.0f\n", enc::ColumnEncodingName(e),
                100.0 * ratio, DecodeMvps(page.value(), fast),
                DecodeMvps(page.value(), exec::DecodeStrategy::kSerial));
  }
}

}  // namespace

int main() {
  std::mt19937_64 rng(7);
  size_t n = 500'000;

  // Smooth sensor drift: tiny deltas, no runs.
  std::vector<int64_t> smooth(n);
  int64_t v = 100'000;
  for (auto& x : smooth) x = (v += static_cast<int64_t>(rng() % 7) - 3);
  Compare("smooth sensor (temperature-like)", smooth);

  // Step-and-hold actuator: long constant runs.
  std::vector<int64_t> steppy;
  steppy.reserve(n);
  v = 0;
  while (steppy.size() < n) {
    int64_t level = static_cast<int64_t>(rng() % 4000);
    size_t hold = 200 + rng() % 2000;
    for (size_t k = 0; k < hold && steppy.size() < n; ++k) {
      steppy.push_back(level);
    }
  }
  Compare("step-and-hold actuator (setpoint-like)", steppy);

  // Spiky event counter: mostly small, occasionally huge deltas.
  std::vector<int64_t> spiky(n);
  v = 0;
  for (auto& x : spiky) {
    v += (rng() % 97 == 0) ? static_cast<int64_t>(rng() % 100000)
                           : static_cast<int64_t>(rng() % 3);
    x = v;
  }
  Compare("spiky event counter", spiky);

  std::printf(
      "\nRule of thumb (paper Table I / Section VIII): TS2DIFF for smooth"
      "\ndrift, DELTA_RLE/RLBE when runs dominate, Sprintz for spiky widths;"
      "\nFastLanes decodes fast but stores more bytes.\n");
  return 0;
}
