// Reproduces paper Table I: the combined-encoder taxonomy, extended with
// measured compression ratios (encoded bytes / raw bytes) of every encoder on
// a smooth IoT series, a run-heavy series, and float sensor readings — the
// evidence behind "IoT encoders combine Delta-Repeat-Packing for space
// efficiency".

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "encoding/chimp.h"
#include "encoding/delta_rle.h"
#include "encoding/elf.h"
#include "encoding/fastlanes.h"
#include "encoding/gorilla.h"
#include "encoding/rlbe.h"
#include "encoding/sprintz.h"
#include "encoding/ts2diff.h"

namespace etsqp {
namespace {

using bench::EndRow;
using bench::PrintCell;
using bench::PrintHeader;

std::vector<int64_t> SmoothSeries(size_t n) {
  std::mt19937_64 rng(1);
  std::vector<int64_t> v(n);
  int64_t x = 1'000'000;
  for (auto& y : v) {
    x += static_cast<int64_t>(rng() % 9) - 4;
    y = x;
  }
  return v;
}

std::vector<int64_t> RunnySeries(size_t n) {
  std::mt19937_64 rng(2);
  std::vector<int64_t> v;
  v.reserve(n);
  int64_t x = 0;
  while (v.size() < n) {
    int64_t d = static_cast<int64_t>(rng() % 5);
    size_t run = 50 + rng() % 500;
    for (size_t k = 0; k < run && v.size() < n; ++k) v.push_back(x += d);
  }
  return v;
}

std::vector<double> FloatSeries(size_t n) {
  std::mt19937_64 rng(3);
  std::vector<double> v(n);
  double x = 21.5;
  for (auto& y : v) {
    x += (static_cast<double>(rng() % 100) - 50.0) / 100.0;
    y = std::round(x * 100.0) / 100.0;  // 2-decimal sensor readings
  }
  return v;
}

double Ratio(size_t encoded, size_t n) {
  return static_cast<double>(encoded) / (n * 8.0);
}

}  // namespace
}  // namespace etsqp

int main() {
  using namespace etsqp;
  const size_t n = static_cast<size_t>(200'000 * bench::BenchScale());

  std::printf("Table I: combined encoders for IoT data\n");
  PrintHeader("encoder taxonomy (Delta / Repeat / Packing)",
              {"Method", "Delta", "Repeat", "Packing"});
  auto row = [](const char* m, const char* d, const char* r, const char* p) {
    PrintCell(m);
    PrintCell(d);
    PrintCell(r);
    PrintCell(p);
    EndRow();
  };
  row("RLBE", "+-", "Run-length", "Fibonacci");
  row("TS_2DIFF", "+-", "None", "Bitpack");
  row("DELTA_RLE", "+-", "Run-length", "Bitpack");
  row("Sprintz", "+-", "None", "ZigZag+Bitpack");
  row("Chimp", "XOR", "None", "Pattern");
  row("Gorilla", "+-,XOR", "Flag", "Pattern");
  row("Elf", "XOR", "None", "Erase+Pattern");
  row("FastLanes", "+- (lane)", "None", "Bitpack/1024");

  std::vector<int64_t> smooth = SmoothSeries(n);
  std::vector<int64_t> runny = RunnySeries(n);
  std::vector<double> floats = FloatSeries(n);
  std::vector<uint64_t> float_words(n);
  std::memcpy(float_words.data(), floats.data(), n * 8);

  PrintHeader("measured compression ratio (encoded/raw, lower is better)",
              {"Method", "smooth-int", "runny-int", "float-2dp"});

  auto int_row = [&](const char* name, auto encode) {
    PrintCell(name);
    PrintCell(Ratio(encode(smooth), n));
    PrintCell(Ratio(encode(runny), n));
    PrintCell("-");
    EndRow();
  };
  int_row("TS_2DIFF", [](const std::vector<int64_t>& v) {
    return enc::Ts2DiffEncoder().Encode(v.data(), v.size()).bytes.size();
  });
  int_row("DELTA_RLE", [](const std::vector<int64_t>& v) {
    return enc::DeltaRleEncoder().Encode(v.data(), v.size()).bytes.size();
  });
  int_row("RLBE", [](const std::vector<int64_t>& v) {
    return enc::RlbeEncoder().Encode(v.data(), v.size()).bytes.size();
  });
  int_row("Sprintz", [](const std::vector<int64_t>& v) {
    return enc::SprintzEncoder().Encode(v.data(), v.size()).bytes.size();
  });
  int_row("FastLanes", [](const std::vector<int64_t>& v) {
    return enc::FastLanesEncoder().Encode(v.data(), v.size()).bytes.size();
  });
  int_row("Gorilla-ts", [](const std::vector<int64_t>& v) {
    return enc::GorillaTimestampEncoder()
        .Encode(v.data(), v.size())
        .bytes.size();
  });

  auto float_cell = [&](const char* name, size_t bytes) {
    PrintCell(name);
    PrintCell("-");
    PrintCell("-");
    PrintCell(Ratio(bytes, n));
    EndRow();
  };
  float_cell("Gorilla-val", enc::GorillaValueEncoder()
                                .Encode(float_words.data(), n)
                                .bytes.size());
  float_cell("Chimp",
             enc::ChimpEncoder().Encode(float_words.data(), n).bytes.size());
  float_cell("Elf",
             enc::ElfEncoder().EncodeDoubles(floats.data(), n).bytes.size());

  // Ingest-side cost of the default timestamp codec.
  PrintHeader("timestamp encode throughput (Mvalues/s, higher is better)",
              {"Method", "smooth-int", "runny-int", ""});
  auto tput_row = [&](const char* name, auto encode) {
    PrintCell(name);
    PrintCell(static_cast<double>(n) / bench::TimeBest([&] { encode(smooth); }) /
              1e6);
    PrintCell(static_cast<double>(n) / bench::TimeBest([&] { encode(runny); }) /
              1e6);
    PrintCell("-");
    EndRow();
  };
  tput_row("TS_2DIFF", [](const std::vector<int64_t>& v) {
    enc::Ts2DiffEncoder().Encode(v.data(), v.size());
  });

  std::printf(
      "\nExpected shape (paper Section I/VIII): combined Delta-Repeat-Packing"
      "\nencoders compress far below raw; run-heavy data favours the Repeat"
      "\nstage (DELTA_RLE/RLBE); Elf < Chimp <= Gorilla on decimal floats;"
      "\nFastLanes trails the IoT encoders (raw base rows, block padding).\n");
  return 0;
}
