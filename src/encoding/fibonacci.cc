#include "encoding/fibonacci.h"

namespace etsqp::enc {

const std::vector<uint64_t>& FibonacciTable() {
  static const std::vector<uint64_t>* table = [] {
    auto* t = new std::vector<uint64_t>{1, 2};
    while (true) {
      uint64_t n = t->end()[-1] + t->end()[-2];
      if (n < t->back()) break;  // overflow
      t->push_back(n);
      if (t->size() >= 92) break;
    }
    return t;
  }();
  return *table;
}

void FibonacciEncode(uint64_t x, BitWriter* writer) {
  // Fibonacci codes cover positive integers only; x = 2^64 - 1 codes 2^64.
  unsigned __int128 v = static_cast<unsigned __int128>(x) + 1;
  const std::vector<uint64_t>& fib = FibonacciTable();
  // Greedy: find the largest Fibonacci number <= v, mark bits high to low.
  int hi = 0;
  for (int i = static_cast<int>(fib.size()) - 1; i >= 0; --i) {
    if (fib[i] <= v) {
      hi = i;
      break;
    }
  }
  // Collect which indices participate.
  uint8_t bits[128] = {};
  for (int i = hi; i >= 0; --i) {
    if (fib[i] <= v) {
      bits[i] = 1;
      v -= fib[i];
    }
  }
  // Emit lowest-order first, then the terminating 1 (forming "11").
  for (int i = 0; i <= hi; ++i) writer->WriteBit(bits[i]);
  writer->WriteBit(1);
}

bool FibonacciDecode(BitReader* reader, uint64_t* out) {
  const std::vector<uint64_t>& fib = FibonacciTable();
  unsigned __int128 v = 0;  // up to 2^64, the code of 2^64 - 1
  uint32_t prev = 0;
  for (size_t i = 0;; ++i) {
    if (reader->remaining_bits() == 0) return false;
    uint32_t b = reader->ReadBit();
    if (b && prev) {
      // Terminator: the previous 1 was the last data bit.
      *out = static_cast<uint64_t>(v - 1);
      return v >= 1 && v <= static_cast<unsigned __int128>(UINT64_MAX) + 1;
    }
    if (i >= fib.size()) return false;
    if (b) v += fib[i];
    prev = b;
  }
}

}  // namespace etsqp::enc
