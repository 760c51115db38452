// The page set, read off the one predicate that defines it, for tests that
// must cover every encoding a page column may hold.

#ifndef ETSQP_TESTS_PAGE_ENCODINGS_H_
#define ETSQP_TESTS_PAGE_ENCODINGS_H_

#include <vector>

#include "encoding/format.h"

namespace etsqp {

/// Every encoding enc::IsPageEncoding admits for a time column (the integer
/// codecs) or a value column (those and the float codecs), in id order.
inline std::vector<enc::ColumnEncoding> PageEncodings(bool time_column) {
  std::vector<enc::ColumnEncoding> out;
  for (int id = 0; id < 256; ++id) {
    const auto e = static_cast<enc::ColumnEncoding>(id);
    if (enc::IsPageEncoding(e, time_column)) out.push_back(e);
  }
  return out;
}

}  // namespace etsqp

#endif  // ETSQP_TESTS_PAGE_ENCODINGS_H_
