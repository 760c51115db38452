#include "simd/unpack.h"

#include <immintrin.h>

#include "common/cpu.h"
#include "encoding/bitpack.h"
#include "simd/transposed_unpack_avx512.h"
#include "simd/unpack_avx2.h"
#include "simd/unpack_plan.h"

namespace etsqp::simd {

void UnpackBE32Scalar(const uint8_t* data, size_t data_size, size_t n,
                      int width, uint32_t* out) {
  enc::UnpackBE32(data, data_size, 0, n, width, out);
}

void UnpackBE32Avx2(const uint8_t* data, size_t data_size, size_t n,
                    int width, uint32_t* out) {
  if (width == 0) {
    for (size_t i = 0; i < n; ++i) out[i] = 0;
    return;
  }
  const UnpackPlan& plan = GetUnpackPlan(width);
  size_t iters = n / 8;
  const uint8_t* src = data;
  if (plan.wide) {
    for (size_t k = 0; k < iters; ++k) {
      __m256i v = UnpackIterWide(src, plan);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k * 8), v);
      src += plan.bytes_per_iter;
    }
  } else {
    for (size_t k = 0; k < iters; ++k) {
      __m256i v = UnpackIterFast(src, plan);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k * 8), v);
      src += plan.bytes_per_iter;
    }
  }
  size_t done = iters * 8;
  if (done < n) {
    enc::UnpackBE32(data, data_size, done * static_cast<size_t>(width),
                    n - done, width, out + done);
  }
}

void UnpackBE32(const uint8_t* data, size_t data_size, size_t n, int width,
                uint32_t* out) {
  // The AVX2 path wins over the vpermb-based 512-bit unpack on this
  // microarchitecture (two cheap in-lane shuffles beat one cross-lane
  // permute per 8/16 values — see bench_kernels BM_UnpackAvx2 vs
  // BM_UnpackAvx512), so natural-order unpacking stays on AVX2. The
  // transposed Delta decode is where 512-bit registers pay off.
  if (UseAvx2()) {
    UnpackBE32Avx2(data, data_size, n, width, out);
  } else {
    UnpackBE32Scalar(data, data_size, n, width, out);
  }
}

}  // namespace etsqp::simd
