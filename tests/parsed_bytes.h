// Raw encoded bytes handed to the exec decoders the way a page column is:
// copied into a slack-padded buffer and parsed once by
// storage::ParseColumn.

#ifndef ETSQP_TESTS_PARSED_BYTES_H_
#define ETSQP_TESTS_PARSED_BYTES_H_

#include <cstdint>
#include <utility>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "encoding/format.h"
#include "storage/page.h"

namespace etsqp {

/// The buffer and its parsed view (valid when `status` is OK). Moving it
/// keeps the view valid: the view points into the buffer's heap storage.
struct ParsedBytes {
  AlignedBuffer buf;
  storage::ParsedColumn col;
  Status status;
};

/// Parses data[size] as `count` values of `encoding`.
inline ParsedBytes ParseBytes(const uint8_t* data, size_t size,
                              enc::ColumnEncoding encoding, uint32_t count) {
  ParsedBytes p;
  p.buf.Assign(data, size);
  Result<storage::ParsedColumn> col =
      storage::ParseColumn(p.buf.data(), p.buf.size(), encoding, count);
  p.status = col.status();
  if (col.ok()) p.col = std::move(col).value();
  return p;
}

/// Parses an encoder's output as the column it says it is.
inline ParsedBytes ParseBytes(const enc::EncodedColumn& c) {
  return ParseBytes(c.bytes.data(), c.bytes.size(), c.encoding, c.count);
}

}  // namespace etsqp

#endif  // ETSQP_TESTS_PARSED_BYTES_H_
