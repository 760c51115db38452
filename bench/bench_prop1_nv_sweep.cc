// Validates Proposition 1 and Theorem 2: sweeps the transposed-layout vector
// count n_v at several packing widths, comparing measured decode throughput
// against the cost model's T_AVG, and prints the model's acceleration
// estimates (Theorem 2).

#include <random>

#include "bench/bench_util.h"
#include "common/aligned_buffer.h"
#include "common/bitstream.h"
#include "encoding/bitpack.h"
#include "exec/cost_model.h"
#include "simd/transposed_unpack.h"

int main() {
  using namespace etsqp;
  using bench::EndRow;
  using bench::PrintCell;
  using bench::PrintHeader;

  size_t n = static_cast<size_t>(4'000'000 * bench::BenchScale());
  std::mt19937_64 rng(13);
  std::vector<int32_t> out(n);
  exec::CostConstants costs;

  for (int width : {5, 10, 17, 25}) {
    std::vector<uint64_t> residuals(n);
    for (auto& r : residuals) r = rng() & ((1ull << width) - 1) & 0xFFF;
    BitWriter w;
    enc::PackBE(residuals.data(), n, width, &w);
    auto bytes = w.TakeBuffer();
    AlignedBuffer buf;
    buf.Assign(bytes.data(), bytes.size());

    PrintHeader("Proposition 1 sweep, width=" + std::to_string(width) +
                    " (default n_v=" +
                    std::to_string(exec::OptimalNv(width)) + ", formula=" +
                    std::to_string(exec::OptimalNvReal(width, 32, costs)) +
                    ")",
                {"n_v", "Mvals/s", "model_T_AVG"});
    for (int n_v : {1, 2, 3, 4, 6, 8, 12, 16}) {
      // The order-insensitive form: what the pipeline operators consume
      // (register sharing); the natural-order variant adds an in-register
      // transpose orthogonal to the Proposition 1 cost structure.
      double secs = bench::TimeBest(
          [&] {
            simd::DeltaDecodeOffsetsAvx2Unordered(buf.data(), buf.size(), n,
                                                  width, 1, n_v, 0,
                                                  out.data());
          },
          0.05, 7);
      PrintCell(static_cast<double>(n_v));
      PrintCell(static_cast<double>(n) / secs / 1e6);
      PrintCell(exec::AverageDecodeTime(width, 32, n_v, costs));
      EndRow();
    }
  }

  PrintHeader("Theorem 2: estimated acceleration T_serial / T_parallel",
              {"Width", "1 thread", "4 threads", "16 threads"});
  for (int width : {5, 10, 17, 25, 32}) {
    PrintCell(static_cast<double>(width));
    for (int p : {1, 4, 16}) {
      PrintCell(exec::EstimatedSpeedup(width, 32, p, costs));
      if (p == 16) EndRow();
    }
  }

  std::printf(
      "\nExpected shape (Prop. 1 / Thm. 2): measured throughput peaks near"
      "\nthe model's optimal n_v (interior optimum: too few vectors pay the"
      "\nprefix permute per few values, too many thrash registers); the"
      "\npaper's example width 10 -> n_v 6; ~15x at 16 threads for 10-bit"
      "\nTS2DIFF (Theorem 2 remark).\n");
  return 0;
}
