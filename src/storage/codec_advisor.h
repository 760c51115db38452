#ifndef ETSQP_STORAGE_CODEC_ADVISOR_H_
#define ETSQP_STORAGE_CODEC_ADVISOR_H_

#include <cstddef>
#include <cstdint>

#include "encoding/format.h"

namespace etsqp::storage {

/// Cheap single-pass statistics over a decoded integer value column: the
/// advisor's shortlisting inputs. These are the observed analogues of the
/// data-shape axes the paper's Table I encoders are specialized for — delta
/// bounds (TS2DIFF bit width) and run structure (RLE/RLBE).
struct ColumnShape {
  uint64_t count = 0;
  int delta_bits = 0;         // bit width of the widest zigzag(delta)
  double mean_run = 0;        // mean run length of equal values
  double mean_delta_run = 0;  // mean run length of equal deltas
};

ColumnShape SummarizeInts(const int64_t* values, size_t n);

/// Picks the value encoding a rewritten page should use: shape statistics
/// shortlist the candidates, a trial encode of each shortlisted codec
/// measures real bytes (pages are at most a few thousand points, so trial
/// encoding costs microseconds on the background executor), and the smallest
/// result wins. The winner must beat the page's current codec by kMinGain
/// (fraction of bytes) or the page keeps its codec — no churn on noise.
/// Every candidate is in the page set (enc::IsPageEncoding), so every pick
/// decodes.
class CodecAdvisor {
 public:
  static constexpr double kMinGain = 0.05;

  struct Advice {
    enc::ColumnEncoding encoding;  // chosen value codec
    size_t encoded_bytes = 0;      // trial size of the winner
    size_t current_bytes = 0;      // trial size of the current codec
    ColumnShape shape;             // integer columns only

    bool changed(enc::ColumnEncoding current) const {
      return encoding != current;
    }
  };

  /// Integer column. Candidates: the current codec and TS2DIFF always, and
  /// RLBE / DeltaRle / Sprintz when the run / delta-width shape suggests
  /// them. `block_size` parameterizes the TS2DIFF trial.
  Advice AdviseInt(const int64_t* values, size_t n,
                   enc::ColumnEncoding current, uint32_t block_size) const;

  /// Float column: the whole XOR family (Gorilla / Chimp / Elf) is trialed.
  Advice AdviseFloat(const double* values, size_t n,
                     enc::ColumnEncoding current) const;
};

}  // namespace etsqp::storage

#endif  // ETSQP_STORAGE_CODEC_ADVISOR_H_
