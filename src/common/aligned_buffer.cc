#include "common/aligned_buffer.h"

#include <cstdlib>
#include <cstring>
#include <new>

namespace etsqp {

void AlignedBuffer::Resize(size_t size) {
  Free();
  size_ = size;
  size_t alloc = size + kSlackBytes;
  alloc = (alloc + kAlignment - 1) / kAlignment * kAlignment;
  data_ = static_cast<uint8_t*>(std::aligned_alloc(kAlignment, alloc));
  if (data_ == nullptr) throw std::bad_alloc();
  std::memset(data_, 0, alloc);
}

void AlignedBuffer::Assign(const uint8_t* src, size_t size) {
  Resize(size);
  if (size != 0) std::memcpy(data_, src, size);
}

void AlignedBuffer::Free() {
  std::free(data_);
  data_ = nullptr;
  size_ = 0;
}

}  // namespace etsqp
