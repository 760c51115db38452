#include "storage/page.h"

#include <cmath>
#include <cstring>
#include <string>

#include "common/bitstream.h"

namespace etsqp::storage {

bool HeaderValueKeys(const PageHeader& h, bool is_float, int64_t* lo,
                     int64_t* hi) {
  if (!is_float) {
    *lo = h.min_value;
    *hi = h.max_value;
    return true;
  }
  double mn, mx;
  std::memcpy(&mn, &h.min_value, sizeof(mn));
  std::memcpy(&mx, &h.max_value, sizeof(mx));
  if (std::isnan(mn) || std::isnan(mx)) {
    *lo = std::numeric_limits<int64_t>::min();
    *hi = std::numeric_limits<int64_t>::max();
    return false;
  }
  *lo = OrderedValueKey(mn);
  *hi = OrderedValueKey(mx);
  return true;
}

namespace {

/// `col` with the Column view of its bytes, checked against its count.
template <typename Column>
Result<ParsedColumn> WithView(ParsedColumn col) {
  Result<Column> view = Column::Parse(col.data, col.size);
  if (!view.ok()) return view.status();
  if (view.value().count() != col.count) {
    return Status::Corruption("page column: count mismatch");
  }
  col.view = std::move(view).value();
  return col;
}

}  // namespace

Result<ParsedColumn> ParseColumn(const uint8_t* data, size_t size,
                                 enc::ColumnEncoding encoding,
                                 uint32_t count) {
  ParsedColumn col;
  col.encoding = encoding;
  col.count = count;
  col.data = data;
  col.size = size;
  if (!enc::IsPageEncoding(encoding, /*time_column=*/false)) {
    return Status::Corruption("page column: encoding " +
                              std::to_string(static_cast<int>(encoding)));
  }
  switch (encoding) {
    case enc::ColumnEncoding::kTs2Diff:
      return WithView<enc::Ts2DiffColumn>(std::move(col));
    case enc::ColumnEncoding::kDeltaRle:
      return WithView<enc::DeltaRleColumn>(std::move(col));
    case enc::ColumnEncoding::kRlbe:
      return WithView<enc::RlbeColumn>(std::move(col));
    case enc::ColumnEncoding::kSprintz:
      return WithView<enc::SprintzColumn>(std::move(col));
    case enc::ColumnEncoding::kFastLanes:
      return WithView<enc::FastLanesColumn>(std::move(col));
    case enc::ColumnEncoding::kPlain:
      if (size < static_cast<size_t>(count) * 8) {
        return Status::Corruption("plain: truncated");
      }
      return col;
    default:
      // Gorilla and the XOR float codecs check their count as they decode.
      return col;
  }
}

Status ParsePage(Page* page) {
  const PageHeader& h = page->header;
  // ParseColumn checks the value-column rule; a time column may not hold a
  // float encoding either.
  if (!enc::IsPageEncoding(h.time_encoding, /*time_column=*/true)) {
    return Status::Corruption(
        "page: time column encoding " +
        std::to_string(static_cast<int>(h.time_encoding)));
  }
  Result<ParsedColumn> time = ParseColumn(
      page->time_data.data(), page->time_data.size(), h.time_encoding, h.count);
  if (!time.ok()) return time.status();
  Result<ParsedColumn> value =
      ParseColumn(page->value_data.data(), page->value_data.size(),
                  h.value_encoding, h.count);
  if (!value.ok()) return value.status();
  page->time_col = std::move(time).value();
  page->value_col = std::move(value).value();
  return Status::Ok();
}

void SerializePage(const Page& page, std::vector<uint8_t>* out) {
  const PageHeader& h = page.header;
  PutFixed32BE(out, h.count);
  out->push_back(static_cast<uint8_t>(h.time_encoding));
  out->push_back(static_cast<uint8_t>(h.value_encoding));
  PutFixed64BE(out, static_cast<uint64_t>(h.min_time));
  PutFixed64BE(out, static_cast<uint64_t>(h.max_time));
  PutFixed64BE(out, static_cast<uint64_t>(h.min_value));
  PutFixed64BE(out, static_cast<uint64_t>(h.max_value));
  PutFixed32BE(out, h.time_bytes);
  PutFixed32BE(out, h.value_bytes);
  out->insert(out->end(), page.time_data.data(),
              page.time_data.data() + h.time_bytes);
  out->insert(out->end(), page.value_data.data(),
              page.value_data.data() + h.value_bytes);
}

void ParsePageHeader(const uint8_t* p, PageHeader* h) {
  h->count = GetFixed32BE(p);
  h->time_encoding = static_cast<enc::ColumnEncoding>(p[4]);
  h->value_encoding = static_cast<enc::ColumnEncoding>(p[5]);
  h->min_time = static_cast<int64_t>(GetFixed64BE(p + 6));
  h->max_time = static_cast<int64_t>(GetFixed64BE(p + 14));
  h->min_value = static_cast<int64_t>(GetFixed64BE(p + 22));
  h->max_value = static_cast<int64_t>(GetFixed64BE(p + 30));
  h->time_bytes = GetFixed32BE(p + 38);
  h->value_bytes = GetFixed32BE(p + 42);
}

Status DeserializePage(const uint8_t* data, size_t size, size_t* pos,
                       Page* page) {
  if (*pos + kPageHeaderBytes > size) {
    return Status::Corruption("page: header truncated");
  }
  ParsePageHeader(data + *pos, &page->header);
  const PageHeader& h = page->header;
  *pos += kPageHeaderBytes;
  if (*pos + h.time_bytes + h.value_bytes > size) {
    return Status::Corruption("page: payload truncated");
  }
  page->time_data.Assign(data + *pos, h.time_bytes);
  *pos += h.time_bytes;
  page->value_data.Assign(data + *pos, h.value_bytes);
  *pos += h.value_bytes;
  return ParsePage(page);
}

}  // namespace etsqp::storage
