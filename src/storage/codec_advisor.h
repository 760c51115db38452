#ifndef ETSQP_STORAGE_CODEC_ADVISOR_H_
#define ETSQP_STORAGE_CODEC_ADVISOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "encoding/format.h"

namespace etsqp::storage {

/// Cheap single-pass statistics over a decoded value column: the advisor's
/// shortlisting inputs. These are the observed analogues of the data-shape
/// axes the paper's Table I encoders are specialized for — delta bounds
/// (TS2DIFF bit width), run structure (RLE/RLBE), and float XOR patterns
/// (the Gorilla/Chimp/Elf family).
struct ColumnShape {
  uint64_t count = 0;
  // Integer columns.
  int delta_bits = 0;         // bit width of the widest zigzag(delta)
  double mean_run = 0;        // mean run length of equal values
  double mean_delta_run = 0;  // mean run length of equal deltas
  // Float columns.
  double xor_zero_ratio = 0;     // consecutive pairs whose XOR is zero
  double xor_mean_sig_bits = 0;  // mean significant bits of nonzero XORs
};

ColumnShape SummarizeInts(const int64_t* values, size_t n);
ColumnShape SummarizeFloats(const double* values, size_t n);

/// Picks the value encoding a rewritten page should use: shape statistics
/// shortlist the candidates, a trial encode of each shortlisted codec
/// measures real bytes (pages are at most a few thousand points, so trial
/// encoding costs microseconds on the background executor), and the smallest
/// result wins. The winner must beat the page's current codec by
/// `min_gain` (fraction of bytes) or the page keeps its codec — no churn on
/// noise.
class CodecAdvisor {
 public:
  /// Whether the serving path can decode `encoding`. The advisor never
  /// proposes a codec this rejects — re-encoding into an undecodable format
  /// would brick the series — and falls back to the incumbent instead.
  using DecodeSupportHook = std::function<bool(enc::ColumnEncoding)>;

  struct Options {
    double min_gain = 0.05;
    /// Defaults to storage::PageDecodeSupported when unset (a test seam:
    /// the serving path schedules every codec that decodes).
    DecodeSupportHook decode_support;
  };

  struct Advice {
    enc::ColumnEncoding encoding;  // chosen value codec
    size_t encoded_bytes = 0;      // trial size of the winner
    size_t current_bytes = 0;      // trial size of the current codec
    ColumnShape shape;

    bool changed(enc::ColumnEncoding current) const {
      return encoding != current;
    }
  };

  CodecAdvisor() = default;
  explicit CodecAdvisor(Options options) : options_(std::move(options)) {}

  /// Integer column. Candidates: the current codec, TS2DIFF and StreamVByte
  /// always (the latter the fast-ingest byte-aligned alternative), and
  /// RLBE / DeltaRle / Sprintz when the run / delta-width shape suggests
  /// them. `block_size` parameterizes the TS2DIFF trial.
  Advice AdviseInt(const int64_t* values, size_t n,
                   enc::ColumnEncoding current, uint32_t block_size) const;

  /// Float column: the whole XOR family (Gorilla / Chimp / Elf) is trialed.
  Advice AdviseFloat(const double* values, size_t n,
                     enc::ColumnEncoding current) const;

  const Options& options() const { return options_; }

 private:
  bool DecodeSupported(enc::ColumnEncoding e) const;
  Options options_;
};

}  // namespace etsqp::storage

#endif  // ETSQP_STORAGE_CODEC_ADVISOR_H_
