#ifndef ETSQP_STORAGE_PAGE_H_
#define ETSQP_STORAGE_PAGE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "encoding/format.h"

namespace etsqp::storage {

/// Page header (paper Sections III-C and V-A): each page is a separately
/// encoded bit array with a private header carrying the first element, the
/// packing parameters, per-column sizes, and min/max statistics. The header
/// is what the pruning rules (Propositions 4-5) consult without touching the
/// encoded payload.
struct PageHeader {
  uint32_t count = 0;
  enc::ColumnEncoding time_encoding = enc::ColumnEncoding::kTs2Diff;
  enc::ColumnEncoding value_encoding = enc::ColumnEncoding::kTs2Diff;
  int64_t min_time = 0;
  int64_t max_time = 0;
  int64_t min_value = 0;
  int64_t max_value = 0;
  uint32_t time_bytes = 0;
  uint32_t value_bytes = 0;
  /// Compaction placement. Not part of the serialized page blob (old readers
  /// stay compatible); persisted by the TsFile v2 per-page prefix. `level` 0
  /// means sealed straight from the ingest buffer; a compaction rewrite sets
  /// max(input levels)+1. `tier` 0 = hot (ingest order), 1 = compacted.
  uint8_t level = 0;
  uint8_t tier = 0;
};

/// Order-preserving int64 key for a non-NaN double: key(a) < key(b) iff
/// a < b, with negative zero canonicalized to +0.0 so -0.0 == 0.0 survives
/// range boundaries. Float page headers carry bit-cast doubles, so the
/// page walk compares their bounds in this key domain; integer headers
/// compare raw. Callers must handle NaN themselves.
inline int64_t OrderedValueKey(double v) {
  if (v == 0.0) v = 0.0;  // -0.0 -> +0.0
  int64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double is 8 bytes");
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits >= 0 ? bits : bits ^ std::numeric_limits<int64_t>::max();
}

/// The value bounds of `h` in the key domain above. Returns false (and
/// writes the full-range never-prune sentinel) when the bounds are unusable
/// — a float header whose min/max bit-cast to NaN: a NaN says nothing
/// about where a page's values lie.
bool HeaderValueKeys(const PageHeader& h, bool is_float, int64_t* lo,
                     int64_t* hi);

/// One storage page: header plus the two encoded columns. Column buffers are
/// slack-padded (AlignedBuffer) so SIMD decoders can over-read safely.
struct Page {
  PageHeader header;
  AlignedBuffer time_data;
  AlignedBuffer value_data;

  Page() = default;
  Page(Page&&) = default;
  Page& operator=(Page&&) = default;

  /// Total encoded payload bytes (the "I/O" a query pays to load this page).
  size_t encoded_bytes() const {
    return header.time_bytes + header.value_bytes;
  }
};

/// Serializes `page` into `out` (header fields Big-Endian + both columns).
void SerializePage(const Page& page, std::vector<uint8_t>* out);

/// Parses one page starting at data[pos]; advances *pos past it.
Status DeserializePage(const uint8_t* data, size_t size, size_t* pos,
                       Page* page);

}  // namespace etsqp::storage

#endif  // ETSQP_STORAGE_PAGE_H_
