#ifndef ETSQP_STORAGE_PAGE_BUILDER_H_
#define ETSQP_STORAGE_PAGE_BUILDER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace etsqp::storage {

/// Encoding configuration for building pages.
struct PageOptions {
  enc::ColumnEncoding time_encoding = enc::ColumnEncoding::kTs2Diff;
  enc::ColumnEncoding value_encoding = enc::ColumnEncoding::kTs2Diff;
  uint32_t block_size = 1024;  // TS2DIFF block size within the page
};

/// Encodes one page from parallel (times, values) arrays of length n (>= 1).
/// Times must be strictly increasing (Definition 1). InvalidArgument when a
/// page column may not hold the chosen encoding (enc::IsPageEncoding) or the
/// value encoding is a float one.
Result<Page> BuildPage(const int64_t* times, const int64_t* values, size_t n,
                       const PageOptions& options);

/// Float-series variant: values are doubles compressed with one of the XOR/
/// pattern encoders (kGorillaValue / kChimpValue / kElfValue). The page
/// header's min/max value fields hold the doubles bit-cast for diagnostics.
Result<Page> BuildPageF64(const int64_t* times, const double* values,
                          size_t n, const PageOptions& options);

/// Encodes one page from value words: the int64 values, or under a float
/// value encoding the doubles' bit patterns.
Result<Page> BuildPageFromWords(const int64_t* times, const int64_t* values,
                                size_t n, const PageOptions& options);

/// Decodes a page's value column into value words (see BuildPageFromWords).
Status DecodePageValueWords(const Page& page, int64_t* out);

/// Full decode of a parsed float value column into out[col.count].
Status DecodePageColumnF64(const ParsedColumn& col, double* out);

/// Reference full decode of a parsed column (any supported encoding) into
/// out[col.count].
Status DecodePageColumn(const ParsedColumn& col, int64_t* out);

/// Trial encode for the codec advisor: the encoded byte size `values` would
/// take under `encoding`, without building a page. `encoding` is an integer
/// encoding of the page set (enc::IsPageEncoding).
size_t EncodedColumnBytes(const int64_t* values, size_t n,
                          enc::ColumnEncoding encoding, uint32_t block_size);

/// Float-column variant (kGorillaValue / kChimpValue / kElfValue only).
size_t EncodedColumnBytesF64(const double* values, size_t n,
                             enc::ColumnEncoding encoding);

}  // namespace etsqp::storage

#endif  // ETSQP_STORAGE_PAGE_BUILDER_H_
