#ifndef ETSQP_ENCODING_FORMAT_H_
#define ETSQP_ENCODING_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace etsqp::enc {

/// Column encodings a page column may hold (IsPageEncoding). The first
/// group are the combined IoT encoders of paper Table I; kFastLanes is the
/// FLMM1024 baseline layout; kPlain stores raw 64-bit values
/// (debug/reference). Ids 6, 7 and 12 are retired: no page holds them.
enum class ColumnEncoding : uint8_t {
  kPlain = 0,
  kTs2Diff = 1,    // Delta(+-, min-base) + BitPack       [TS_2DIFF]
  kDeltaRle = 2,   // Delta + Repeat + BitPack             [Section IV format]
  kRlbe = 3,       // Delta + Run-length + Fibonacci       [RLBE]
  kSprintz = 4,    // Delta + ZigZag + BitPack             [Sprintz]
  kGorilla = 5,    // Delta-of-delta + pattern             [Gorilla]
  kFastLanes = 8,  // FLMM1024 transposed Delta + BitPack  [FastLanes]
  // Float (double) value encodings — XOR/pattern family of Table I.
  kGorillaValue = 9,   // XOR + flag + pattern             [Gorilla]
  kChimpValue = 10,    // XOR + pattern                    [Chimp]
  kElfValue = 11,      // erase + XOR + pattern            [Elf]
};

/// True for the double-typed value encodings.
inline bool IsFloatEncoding(ColumnEncoding e) {
  return e == ColumnEncoding::kGorillaValue ||
         e == ColumnEncoding::kChimpValue || e == ColumnEncoding::kElfValue;
}

/// The one rule for what a page column may hold. A time column holds an
/// integer encoding: Plain, TS2DIFF, Delta-RLE, RLBE, Sprintz, Gorilla or
/// FastLanes. A value column holds one of those or a float encoding. Series
/// creation (InvalidArgument), page build (InvalidArgument) and page parse
/// (Corruption) all check it, so no page outside it is ever made or read.
inline bool IsPageEncoding(ColumnEncoding e, bool time_column) {
  switch (e) {
    case ColumnEncoding::kPlain:
    case ColumnEncoding::kTs2Diff:
    case ColumnEncoding::kDeltaRle:
    case ColumnEncoding::kRlbe:
    case ColumnEncoding::kSprintz:
    case ColumnEncoding::kGorilla:
    case ColumnEncoding::kFastLanes:
      return true;
    case ColumnEncoding::kGorillaValue:
    case ColumnEncoding::kChimpValue:
    case ColumnEncoding::kElfValue:
      return !time_column;
  }
  return false;  // a byte no enumerator names
}

inline const char* ColumnEncodingName(ColumnEncoding e) {
  switch (e) {
    case ColumnEncoding::kPlain:
      return "PLAIN";
    case ColumnEncoding::kTs2Diff:
      return "TS2DIFF";
    case ColumnEncoding::kDeltaRle:
      return "DELTA_RLE";
    case ColumnEncoding::kRlbe:
      return "RLBE";
    case ColumnEncoding::kSprintz:
      return "SPRINTZ";
    case ColumnEncoding::kGorilla:
      return "GORILLA";
    case ColumnEncoding::kFastLanes:
      return "FASTLANES";
    case ColumnEncoding::kGorillaValue:
      return "GORILLA_VALUE";
    case ColumnEncoding::kChimpValue:
      return "CHIMP";
    case ColumnEncoding::kElfValue:
      return "ELF";
  }
  return "UNKNOWN";
}

/// A serialized encoded column: `count` logical values in `bytes`.
struct EncodedColumn {
  ColumnEncoding encoding = ColumnEncoding::kPlain;
  uint32_t count = 0;
  std::vector<uint8_t> bytes;
};

}  // namespace etsqp::enc

#endif  // ETSQP_ENCODING_FORMAT_H_
