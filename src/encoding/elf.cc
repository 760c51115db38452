#include "encoding/elf.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "common/bitstream.h"
#include "encoding/chimp.h"

namespace etsqp::enc {

namespace {

/// 10^p. The powers a double holds exactly come from a table, equal to
/// what std::pow returns for them, without its cost on every value.
double Pow10(int p) {
  static constexpr double kExact[] = {
      1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
      1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
  return p >= 0 && p <= 22 ? kExact[p] : std::pow(10.0, p);
}

double RoundToPrecision(double v, int precision) {
  double scale = Pow10(precision);
  return std::nearbyint(v * scale) / scale;
}

/// Zeroes the lowest `bits` mantissa bits of `v`.
double EraseLowBits(double v, int bits) {
  uint64_t w;
  std::memcpy(&w, &v, 8);
  w &= ~((bits >= 64 ? ~0ull : ((1ull << bits) - 1)));
  double out;
  std::memcpy(&out, &w, 8);
  return out;
}

}  // namespace

int ElfDecimalPrecision(double v, int max_precision) {
  if (!std::isfinite(v)) return -1;
  for (int p = 0; p <= max_precision; ++p) {
    if (RoundToPrecision(v, p) == v) return p;
  }
  return -1;
}

EncodedColumn ElfEncoder::EncodeDoubles(const double* values,
                                        size_t n) const {
  // Pass 1: erase what is erasable and build the side channel.
  std::vector<uint64_t> erased(n);
  BitWriter side;
  for (size_t i = 0; i < n; ++i) {
    double v = values[i];
    int prec = ElfDecimalPrecision(v, max_precision_);
    double best = v;
    if (prec >= 0 && prec < 16) {
      // Find the largest erasure that rounds back exactly.
      for (int bits = 48; bits >= 1; --bits) {
        double cand = EraseLowBits(v, bits);
        if (cand == v) break;  // nothing to erase at/below this level
        if (RoundToPrecision(cand, prec) == v) {
          best = cand;
          break;
        }
      }
    }
    if (best != v && prec >= 0 && prec < 16) {
      side.WriteBit(1);
      side.WriteBits(static_cast<uint64_t>(prec), 4);
    } else {
      side.WriteBit(0);
      best = v;
    }
    std::memcpy(&erased[i], &best, 8);
  }
  // Pass 2: XOR-compress the erased words with the Chimp backend.
  ChimpEncoder backend;
  EncodedColumn inner = backend.Encode(erased.data(), n);

  EncodedColumn col;
  col.encoding = ColumnEncoding::kElfValue;
  col.count = static_cast<uint32_t>(n);
  std::vector<uint8_t> side_bytes = side.TakeBuffer();
  PutFixed32BE(&col.bytes, static_cast<uint32_t>(side_bytes.size()));
  col.bytes.insert(col.bytes.end(), side_bytes.begin(), side_bytes.end());
  col.bytes.insert(col.bytes.end(), inner.bytes.begin(), inner.bytes.end());
  return col;
}

Status ElfDecodeDoubles(const uint8_t* data, size_t size, uint32_t count,
                        double* out) {
  if (size < 4) return Status::Corruption("elf: header truncated");
  uint32_t side_bytes = GetFixed32BE(data);
  if (side_bytes > size - 4) return Status::Corruption("elf: side truncated");
  ETSQP_RETURN_IF_ERROR(ChimpDecodeDoubles(
      data + 4 + side_bytes, size - 4 - side_bytes, count, out));

  BitReader side(data + 4, side_bytes);
  for (uint32_t i = 0; i < count; ++i) {
    if (side.ReadBit()) {
      int prec = static_cast<int>(side.ReadBits(4));
      out[i] = RoundToPrecision(out[i], prec);
    }
    if (side.exhausted()) return Status::Corruption("elf: side truncated");
  }
  return Status::Ok();
}

}  // namespace etsqp::enc
