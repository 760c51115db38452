#include "storage/page_builder.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/bitstream.h"
#include "encoding/delta_rle.h"
#include "encoding/fastlanes.h"
#include "encoding/chimp.h"
#include "encoding/elf.h"
#include "encoding/gorilla.h"
#include "encoding/rlbe.h"
#include "encoding/sprintz.h"
#include "encoding/streamvbyte.h"
#include "encoding/ts2diff.h"

namespace etsqp::storage {

namespace {

enc::EncodedColumn EncodeColumn(const int64_t* values, size_t n,
                                enc::ColumnEncoding encoding,
                                uint32_t block_size) {
  switch (encoding) {
    case enc::ColumnEncoding::kTs2Diff:
      return enc::Ts2DiffEncoder(block_size).Encode(values, n);
    case enc::ColumnEncoding::kDeltaRle:
      return enc::DeltaRleEncoder().Encode(values, n);
    case enc::ColumnEncoding::kRlbe:
      return enc::RlbeEncoder().Encode(values, n);
    case enc::ColumnEncoding::kSprintz:
      return enc::SprintzEncoder().Encode(values, n);
    case enc::ColumnEncoding::kFastLanes:
      return enc::FastLanesEncoder().Encode(values, n);
    case enc::ColumnEncoding::kStreamVByte:
      return enc::StreamVByteEncoder().Encode(values, n);
    case enc::ColumnEncoding::kGorilla:
      // Delta-of-delta with prefix classes — Gorilla's time dimension
      // (Table I: +-, Flag, Pattern), a natural fit for timestamp columns.
      return enc::GorillaTimestampEncoder().Encode(values, n);
    default: {
      // kPlain fallback: raw Big-Endian i64.
      enc::EncodedColumn col;
      col.encoding = enc::ColumnEncoding::kPlain;
      col.count = static_cast<uint32_t>(n);
      col.bytes.reserve(n * 8);
      for (size_t i = 0; i < n; ++i) {
        PutFixed64BE(&col.bytes, static_cast<uint64_t>(values[i]));
      }
      return col;
    }
  }
}

}  // namespace

Result<Page> BuildPage(const int64_t* times, const int64_t* values, size_t n,
                       const PageOptions& options) {
  if (n == 0) return Status::InvalidArgument("page: empty input");
  for (size_t i = 1; i < n; ++i) {
    if (times[i] <= times[i - 1]) {
      return Status::InvalidArgument("page: times not strictly increasing");
    }
  }
  Page page;
  PageHeader& h = page.header;
  h.count = static_cast<uint32_t>(n);
  h.time_encoding = options.time_encoding;
  h.value_encoding = options.value_encoding;
  h.min_time = times[0];
  h.max_time = times[n - 1];
  h.min_value = *std::min_element(values, values + n);
  h.max_value = *std::max_element(values, values + n);

  enc::EncodedColumn tc =
      EncodeColumn(times, n, options.time_encoding, options.block_size);
  enc::EncodedColumn vc =
      EncodeColumn(values, n, options.value_encoding, options.block_size);
  h.time_bytes = static_cast<uint32_t>(tc.bytes.size());
  h.value_bytes = static_cast<uint32_t>(vc.bytes.size());
  page.time_data.Assign(tc.bytes.data(), tc.bytes.size());
  page.value_data.Assign(vc.bytes.data(), vc.bytes.size());
  return page;
}

Result<Page> BuildPageF64(const int64_t* times, const double* values,
                          size_t n, const PageOptions& options) {
  if (n == 0) return Status::InvalidArgument("page: empty input");
  if (!enc::IsFloatEncoding(options.value_encoding)) {
    return Status::InvalidArgument("page: float build needs float encoding");
  }
  for (size_t i = 1; i < n; ++i) {
    if (times[i] <= times[i - 1]) {
      return Status::InvalidArgument("page: times not strictly increasing");
    }
  }
  Page page;
  PageHeader& h = page.header;
  h.count = static_cast<uint32_t>(n);
  h.time_encoding = options.time_encoding;
  h.value_encoding = options.value_encoding;
  h.min_time = times[0];
  h.max_time = times[n - 1];
  // NaN anywhere in the page poisons both bounds explicitly: finite bounds
  // over the remaining values would let value pruning drop a page whose
  // NaN tuples pass every filter compare. NaN bounds are the "never
  // value-prune this page" signal (HeaderValueKeys, storage/page.h).
  bool has_nan = false;
  double mn = 0, mx = 0;
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(values[i])) {
      has_nan = true;
      continue;
    }
    if (!any) {
      mn = mx = values[i];
      any = true;
    } else {
      mn = std::min(mn, values[i]);
      mx = std::max(mx, values[i]);
    }
  }
  if (has_nan) mn = mx = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(&h.min_value, &mn, 8);
  std::memcpy(&h.max_value, &mx, 8);

  enc::EncodedColumn tc =
      EncodeColumn(times, n, options.time_encoding, options.block_size);
  enc::EncodedColumn vc;
  switch (options.value_encoding) {
    case enc::ColumnEncoding::kGorillaValue:
      vc = enc::GorillaValueEncoder().EncodeDoubles(values, n);
      break;
    case enc::ColumnEncoding::kChimpValue:
      vc = enc::ChimpEncoder().EncodeDoubles(values, n);
      break;
    default:
      vc = enc::ElfEncoder().EncodeDoubles(values, n);
      break;
  }
  h.time_bytes = static_cast<uint32_t>(tc.bytes.size());
  h.value_bytes = static_cast<uint32_t>(vc.bytes.size());
  page.time_data.Assign(tc.bytes.data(), tc.bytes.size());
  page.value_data.Assign(vc.bytes.data(), vc.bytes.size());
  return page;
}

size_t EncodedColumnBytes(const int64_t* values, size_t n,
                          enc::ColumnEncoding encoding, uint32_t block_size) {
  if (n == 0 || enc::IsFloatEncoding(encoding)) return 0;
  switch (encoding) {
    case enc::ColumnEncoding::kTs2Diff:
    case enc::ColumnEncoding::kDeltaRle:
    case enc::ColumnEncoding::kRlbe:
    case enc::ColumnEncoding::kSprintz:
    case enc::ColumnEncoding::kFastLanes:
    case enc::ColumnEncoding::kStreamVByte:
    case enc::ColumnEncoding::kGorilla:
    case enc::ColumnEncoding::kPlain:
      return EncodeColumn(values, n, encoding, block_size).bytes.size();
    default:
      return 0;
  }
}

size_t EncodedColumnBytesF64(const double* values, size_t n,
                             enc::ColumnEncoding encoding) {
  if (n == 0) return 0;
  switch (encoding) {
    case enc::ColumnEncoding::kGorillaValue:
      return enc::GorillaValueEncoder().EncodeDoubles(values, n).bytes.size();
    case enc::ColumnEncoding::kChimpValue:
      return enc::ChimpEncoder().EncodeDoubles(values, n).bytes.size();
    case enc::ColumnEncoding::kElfValue:
      return enc::ElfEncoder().EncodeDoubles(values, n).bytes.size();
    default:
      return 0;
  }
}

Status DecodePageColumnF64(const uint8_t* data, size_t size,
                           enc::ColumnEncoding encoding, uint32_t count,
                           double* out) {
  enc::EncodedColumn col;
  col.count = count;
  col.bytes.assign(data, data + size);
  switch (encoding) {
    case enc::ColumnEncoding::kGorillaValue:
      return enc::GorillaValueDecodeDoubles(col, out);
    case enc::ColumnEncoding::kChimpValue:
      return enc::ChimpDecodeDoubles(col, out);
    case enc::ColumnEncoding::kElfValue:
      return enc::ElfDecodeDoubles(col, out);
    default:
      return Status::NotSupported("not a float encoding");
  }
}

namespace {

/// Parses a `Column` and decodes all of it into out[count]. A column that
/// holds another count is corrupt: decoding it would overrun `out`.
template <typename Column>
Status DecodeParsed(const uint8_t* data, size_t size, uint32_t count,
                    int64_t* out) {
  Result<Column> col = Column::Parse(data, size);
  if (!col.ok()) return col.status();
  if (col.value().count() != count) {
    return Status::Corruption("page column: count mismatch");
  }
  return col.value().DecodeAll(out);
}

}  // namespace

Status DecodePageColumn(const uint8_t* data, size_t size,
                        enc::ColumnEncoding encoding, uint32_t count,
                        int64_t* out) {
  switch (encoding) {
    case enc::ColumnEncoding::kTs2Diff:
      return DecodeParsed<enc::Ts2DiffColumn>(data, size, count, out);
    case enc::ColumnEncoding::kDeltaRle:
      return DecodeParsed<enc::DeltaRleColumn>(data, size, count, out);
    case enc::ColumnEncoding::kRlbe:
      return DecodeParsed<enc::RlbeColumn>(data, size, count, out);
    case enc::ColumnEncoding::kSprintz:
      return DecodeParsed<enc::SprintzColumn>(data, size, count, out);
    case enc::ColumnEncoding::kFastLanes:
      return DecodeParsed<enc::FastLanesColumn>(data, size, count, out);
    case enc::ColumnEncoding::kStreamVByte:
      return DecodeParsed<enc::StreamVByteColumn>(data, size, count, out);
    case enc::ColumnEncoding::kGorilla: {
      enc::EncodedColumn col;
      col.encoding = enc::ColumnEncoding::kGorilla;
      col.count = count;
      col.bytes.assign(data, data + size);
      return enc::GorillaTimestampDecode(col, out);
    }
    case enc::ColumnEncoding::kPlain: {
      if (size < static_cast<size_t>(count) * 8) {
        return Status::Corruption("plain: truncated");
      }
      for (uint32_t i = 0; i < count; ++i) {
        out[i] = static_cast<int64_t>(GetFixed64BE(data + i * 8));
      }
      return Status::Ok();
    }
    default:
      return Status::NotSupported("decode for this encoding");
  }
}

bool PageDecodeSupported(enc::ColumnEncoding encoding) {
  switch (encoding) {
    case enc::ColumnEncoding::kTs2Diff:
    case enc::ColumnEncoding::kDeltaRle:
    case enc::ColumnEncoding::kRlbe:
    case enc::ColumnEncoding::kSprintz:
    case enc::ColumnEncoding::kFastLanes:
    case enc::ColumnEncoding::kStreamVByte:
    case enc::ColumnEncoding::kGorilla:
    case enc::ColumnEncoding::kPlain:
    case enc::ColumnEncoding::kGorillaValue:
    case enc::ColumnEncoding::kChimpValue:
    case enc::ColumnEncoding::kElfValue:
      return true;
    default:
      return false;
  }
}

}  // namespace etsqp::storage
