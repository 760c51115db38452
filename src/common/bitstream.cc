#include "common/bitstream.h"

namespace etsqp {

void PutFixed64BE(std::vector<uint8_t>* dst, uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    dst->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutFixed32BE(std::vector<uint8_t>* dst, uint32_t v) {
  for (int i = 3; i >= 0; --i) {
    dst->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

}  // namespace etsqp
