#include "storage/page_builder.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <variant>

#include "common/bitstream.h"
#include "encoding/delta_rle.h"
#include "encoding/fastlanes.h"
#include "encoding/chimp.h"
#include "encoding/elf.h"
#include "encoding/gorilla.h"
#include "encoding/rlbe.h"
#include "encoding/sprintz.h"
#include "encoding/ts2diff.h"

namespace etsqp::storage {

namespace {

/// Encodes an integer column. `encoding` is one a time column may hold:
/// BuildPage rejects every other id before it gets here.
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
    case enc::ColumnEncoding::kGorilla:
      // Delta-of-delta with prefix classes — Gorilla's time dimension
      // (Table I: +-, Flag, Pattern), a natural fit for timestamp columns.
      return enc::GorillaTimestampEncoder().Encode(values, n);
    default: {
      // kPlain: raw Big-Endian i64.
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

/// Encodes a double column under one of the XOR float encodings.
enc::EncodedColumn EncodeColumnF64(const double* values, size_t n,
                                   enc::ColumnEncoding encoding) {
  switch (encoding) {
    case enc::ColumnEncoding::kGorillaValue:
      return enc::GorillaValueEncoder().EncodeDoubles(values, n);
    case enc::ColumnEncoding::kChimpValue:
      return enc::ChimpEncoder().EncodeDoubles(values, n);
    default:
      return enc::ElfEncoder().EncodeDoubles(values, n);
  }
}

/// InvalidArgument unless the page set holds both encodings and the value
/// encoding is a float one exactly when `float_values`.
Status CheckEncodings(const PageOptions& options, bool float_values) {
  if (!enc::IsPageEncoding(options.time_encoding, /*time_column=*/true) ||
      !enc::IsPageEncoding(options.value_encoding, /*time_column=*/false) ||
      enc::IsFloatEncoding(options.value_encoding) != float_values) {
    return Status::InvalidArgument(
        "page: encodings " +
        std::to_string(static_cast<int>(options.time_encoding)) + "/" +
        std::to_string(static_cast<int>(options.value_encoding)) +
        (float_values ? " for double values" : " for int64 values"));
  }
  return Status::Ok();
}

}  // namespace

Result<Page> BuildPage(const int64_t* times, const int64_t* values, size_t n,
                       const PageOptions& options) {
  if (n == 0) return Status::InvalidArgument("page: empty input");
  ETSQP_RETURN_IF_ERROR(CheckEncodings(options, /*float_values=*/false));
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
  ETSQP_RETURN_IF_ERROR(ParsePage(&page));
  return page;
}

Result<Page> BuildPageF64(const int64_t* times, const double* values,
                          size_t n, const PageOptions& options) {
  if (n == 0) return Status::InvalidArgument("page: empty input");
  ETSQP_RETURN_IF_ERROR(CheckEncodings(options, /*float_values=*/true));
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
  enc::EncodedColumn vc = EncodeColumnF64(values, n, options.value_encoding);
  h.time_bytes = static_cast<uint32_t>(tc.bytes.size());
  h.value_bytes = static_cast<uint32_t>(vc.bytes.size());
  page.time_data.Assign(tc.bytes.data(), tc.bytes.size());
  page.value_data.Assign(vc.bytes.data(), vc.bytes.size());
  ETSQP_RETURN_IF_ERROR(ParsePage(&page));
  return page;
}

Result<Page> BuildPageFromWords(const int64_t* times, const int64_t* values,
                                size_t n, const PageOptions& options) {
  if (!enc::IsFloatEncoding(options.value_encoding)) {
    return BuildPage(times, values, n, options);
  }
  std::vector<double> doubles(n);
  std::memcpy(doubles.data(), values, n * sizeof(double));
  return BuildPageF64(times, doubles.data(), n, options);
}

Status DecodePageValueWords(const Page& page, int64_t* out) {
  if (!enc::IsFloatEncoding(page.header.value_encoding)) {
    return DecodePageColumn(page.value_col, out);
  }
  std::vector<double> doubles(page.header.count);
  ETSQP_RETURN_IF_ERROR(DecodePageColumnF64(page.value_col, doubles.data()));
  std::memcpy(out, doubles.data(), doubles.size() * sizeof(double));
  return Status::Ok();
}

size_t EncodedColumnBytes(const int64_t* values, size_t n,
                          enc::ColumnEncoding encoding, uint32_t block_size) {
  if (n == 0) return 0;
  return EncodeColumn(values, n, encoding, block_size).bytes.size();
}

size_t EncodedColumnBytesF64(const double* values, size_t n,
                             enc::ColumnEncoding encoding) {
  if (n == 0) return 0;
  return EncodeColumnF64(values, n, encoding).bytes.size();
}

Status DecodePageColumnF64(const ParsedColumn& col, double* out) {
  switch (col.encoding) {
    case enc::ColumnEncoding::kGorillaValue:
      return enc::GorillaValueDecodeDoubles(col.data, col.size, col.count, out);
    case enc::ColumnEncoding::kChimpValue:
      return enc::ChimpDecodeDoubles(col.data, col.size, col.count, out);
    case enc::ColumnEncoding::kElfValue:
      return enc::ElfDecodeDoubles(col.data, col.size, col.count, out);
    default:
      return Status::NotSupported("not a float encoding");
  }
}

Status DecodePageColumn(const ParsedColumn& col, int64_t* out) {
  switch (col.encoding) {
    case enc::ColumnEncoding::kGorilla:
      return enc::GorillaTimestampDecode(col.data, col.size, col.count, out);
    case enc::ColumnEncoding::kPlain:
      for (uint32_t i = 0; i < col.count; ++i) {
        out[i] = static_cast<int64_t>(GetFixed64BE(col.data + i * 8));
      }
      return Status::Ok();
    default:
      return std::visit(
          [out](const auto& view) -> Status {
            if constexpr (std::is_same_v<std::decay_t<decltype(view)>,
                                         std::monostate>) {
              return Status::NotSupported("decode for this encoding");
            } else {
              return view.DecodeAll(out);
            }
          },
          col.view);
  }
}

}  // namespace etsqp::storage
