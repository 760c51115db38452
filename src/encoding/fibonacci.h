#ifndef ETSQP_ENCODING_FIBONACCI_H_
#define ETSQP_ENCODING_FIBONACCI_H_

#include <cstdint>
#include <vector>

#include "common/bitstream.h"
#include "common/status.h"

namespace etsqp::enc {

/// Fibonacci coding: the variable-width Packing operator used by RLBE
/// (paper Table I, Figure 7). A positive integer is written as the sum of
/// non-consecutive Fibonacci numbers, emitted lowest-order first, terminated
/// by an extra 1 bit — so every codeword ends in the unique pattern "11".
///
/// We code x >= 0 as Fib(x + 1), so zero is representable.

/// Appends the Fibonacci codeword of `x` (>= 0) to `writer`.
void FibonacciEncode(uint64_t x, BitWriter* writer);

/// Reads one codeword from `reader`. Returns false on malformed/truncated
/// input.
bool FibonacciDecode(BitReader* reader, uint64_t* out);

/// The Fibonacci numbers used by the coder (F[0]=1, F[1]=2, 1,2,3,5,...).
const std::vector<uint64_t>& FibonacciTable();

}  // namespace etsqp::enc

#endif  // ETSQP_ENCODING_FIBONACCI_H_
