#include "storage/page.h"

#include <cmath>
#include <cstring>

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

Status DeserializePage(const uint8_t* data, size_t size, size_t* pos,
                       Page* page) {
  constexpr size_t kHeaderBytes = 4 + 2 + 32 + 8;
  if (*pos + kHeaderBytes > size) {
    return Status::Corruption("page: header truncated");
  }
  const uint8_t* p = data + *pos;
  PageHeader& h = page->header;
  h.count = GetFixed32BE(p);
  h.time_encoding = static_cast<enc::ColumnEncoding>(p[4]);
  h.value_encoding = static_cast<enc::ColumnEncoding>(p[5]);
  h.min_time = static_cast<int64_t>(GetFixed64BE(p + 6));
  h.max_time = static_cast<int64_t>(GetFixed64BE(p + 14));
  h.min_value = static_cast<int64_t>(GetFixed64BE(p + 22));
  h.max_value = static_cast<int64_t>(GetFixed64BE(p + 30));
  h.time_bytes = GetFixed32BE(p + 38);
  h.value_bytes = GetFixed32BE(p + 42);
  *pos += kHeaderBytes;
  if (*pos + h.time_bytes + h.value_bytes > size) {
    return Status::Corruption("page: payload truncated");
  }
  page->time_data.Assign(data + *pos, h.time_bytes);
  *pos += h.time_bytes;
  page->value_data.Assign(data + *pos, h.value_bytes);
  *pos += h.value_bytes;
  return Status::Ok();
}

}  // namespace etsqp::storage
