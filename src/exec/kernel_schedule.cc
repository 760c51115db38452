#include "exec/kernel_schedule.h"

#include <algorithm>

#include "common/cpu.h"
#include "exec/cost_model.h"
#include "exec/pipeline.h"
#include "simd/transposed_unpack_avx512.h"

namespace etsqp::exec {

namespace {

/// Width grid the classifier rounds up to. Coarse on purpose: one decision
/// covers many pages, and decode cost moves slowly with width.
constexpr int kWidthBuckets[] = {1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 25, 32, 64};

int WidthBucket(double bits_per_value) {
  for (int b : kWidthBuckets) {
    if (bits_per_value <= b) return b;
  }
  return 64;
}

/// The transposed kernels take 4-byte windows: packing widths above 25 fall
/// back to the wide/scalar path (see simd/transposed_unpack.h).
constexpr int kTransposedMaxWidth = 25;

/// Serial per-tuple cost (the T_serial numerator of Theorem 2).
double SerialTupleCost(const CostConstants& c) {
  return 2.0 * c.t_vis_mem + c.t_shift + c.t_and + c.t_op + c.t_reg_save;
}

}  // namespace

std::string PageClass::Key() const {
  if (merge) return "merge/2way";
  if (!sealed) return is_float ? "tail/f64" : "tail";
  std::string key = enc::ColumnEncodingName(value_encoding);
  if (is_float) {
    key += "/f64";
  } else {
    key += "/w" + std::to_string(width_bucket);
  }
  return key;
}

PageClass ClassifyPage(const storage::PageHeader& header) {
  PageClass cls;
  cls.value_encoding = header.value_encoding;
  cls.time_encoding = header.time_encoding;
  cls.sealed = true;
  cls.is_float = enc::IsFloatEncoding(header.value_encoding);
  if (!cls.is_float && header.count > 0) {
    // Average encoded bits per value (block framing included): the header
    // does not carry the packing width, but encoded density tracks it.
    cls.width_bucket = WidthBucket(8.0 * header.value_bytes / header.count);
  }
  return cls;
}

PageClass ClassifyTail(const storage::SeriesSnapshot& snap) {
  PageClass cls;
  cls.sealed = false;
  cls.is_float = snap.is_float;
  cls.width_bucket = 64;  // raw int64/double arrays
  cls.value_encoding = enc::ColumnEncoding::kPlain;
  cls.time_encoding = enc::ColumnEncoding::kPlain;
  return cls;
}

PageClass ClassifyMerge() {
  PageClass cls;
  cls.merge = true;
  cls.sealed = true;
  cls.width_bucket = 64;  // materialized int64 streams
  cls.value_encoding = enc::ColumnEncoding::kPlain;
  cls.time_encoding = enc::ColumnEncoding::kPlain;
  return cls;
}

simd::MergeIsa MergeIsaFor(DecodeStrategy strategy) {
  return strategy == DecodeStrategy::kSerial ? simd::MergeIsa::kScalar
                                             : simd::BestMergeIsa();
}

PlanContext MakePlanContext(const LogicalPlan& plan) {
  PlanContext ctx;
  ctx.aggregate = plan.kind == LogicalPlan::Kind::kAggregate;
  ctx.func = plan.func;
  ctx.value_filter = plan.value_filter.active;
  return ctx;
}

ScheduleDecision Schedule(const PageClass& cls, const PlanContext& ctx) {
  const CostConstants c;
  ScheduleDecision d;
  d.class_key = cls.Key();
  // Candidates are offered in rank order; a later one wins only when
  // strictly cheaper.
  auto offer = [&d](bool feasible, const char* label, DecodeStrategy strategy,
                    double cost) {
    if (!feasible || (d.label != nullptr && cost >= d.predicted_ns_per_tuple)) {
      return;
    }
    d.label = label;
    d.strategy = strategy;
    d.predicted_ns_per_tuple = cost;
  };
  if (cls.merge) {
    // The two-way timestamp merge/intersection of binary, correlate and
    // concatenation plans (simd/merge_simd.h): the kernels run scalar
    // two-pointer steps in blocks of 16 on every ISA (vector compares only
    // skip runs), so the stage costs one scalar step per tuple. On a scalar
    // host it runs the kSerial reference kernels.
    offer(true, "etsqp.merge",
          simd::BestMergeIsa() == simd::MergeIsa::kScalar
              ? DecodeStrategy::kSerial
              : DecodeStrategy::kEtsqp,
          c.t_vis_mem + c.t_op + c.t_add);
    return d;
  }
  if (!cls.sealed) {
    // The unsealed in-memory tail: raw arrays through the raw-array drain.
    offer(true, "tail.scalar", DecodeStrategy::kEtsqp,
          c.t_vis_mem + c.t_op + c.t_add);
    return d;
  }
  if (cls.is_float) {
    // XOR-pattern float columns (Gorilla/Chimp/Elf): serial bit streams.
    offer(true, "xor.float", DecodeStrategy::kEtsqp,
          2.0 * c.t_vis_mem + 2.0 * c.t_op);
    return d;
  }
  // COUNT without a value filter fuses down to positions whatever the
  // codec: AggValues never opens the value column, so no value kernel runs
  // and the model predicts no per-tuple work — such jobs stay unscored.
  if (ctx.aggregate && ctx.func == AggFunc::kCount && !ctx.value_filter) {
    offer(true, "etsqp.fused", DecodeStrategy::kEtsqp, 0.0);
    return d;
  }
  const int w = std::max(cls.width_bucket, 1);
  const int wt = std::min(w, kTransposedMaxWidth);
  const bool avx2 = UseAvx2();
  // Section IV operator fusion: block-closed-form aggregation straight over
  // the encoded form, exactly where AggValues opens a fused reader. The
  // readers skip recovery and scatter: modeled as half the decode.
  const enc::ColumnEncoding venc = cls.value_encoding;
  offer(ctx.aggregate && FusedAggregate(ctx.func, venc, ctx.value_filter) &&
            (venc != enc::ColumnEncoding::kTs2Diff ||
             cls.width_bucket <= kTransposedMaxWidth),
        "etsqp.fused", DecodeStrategy::kEtsqp,
        0.5 * AverageDecodeTime(wt, 32, OptimalNv(wt), c));
  // Algorithm 1: transposed unpack + Delta recovery, costed for the
  // datapath the kernels take: the 512-bit formula (n_v = 2, two ZMM
  // vectors per chunk) on AVX-512 inside the transposed domain, else the
  // AVX2 formula with n_v from Proposition 1. Past the domain the kernels
  // run the widened path, modeled as serial minus the vectorized delta
  // recovery.
  double transposed = w > kTransposedMaxWidth
                          ? 0.8 * SerialTupleCost(c)
                          : AverageDecodeTime(w, 32, OptimalNv(w), c) +
                                c.t_add / 8.0;
  if (simd::Avx512Available() && cls.width_bucket <= kTransposedMaxWidth) {
    CostConstants wide = c;
    wide.simd_bits = 512;
    transposed = AverageDecodeTime(w, 32, 2, wide) + c.t_add / 16.0;
  }
  offer(avx2, "etsqp.transposed", DecodeStrategy::kEtsqp, transposed);
  // SBoost: natural-order SIMD unpack + log-step prefix sum. The linear
  // layout pays the full prefix network per vector — n_v = 1.
  offer(avx2 && venc != enc::ColumnEncoding::kFastLanes, "sboost.linear",
        DecodeStrategy::kSboost,
        w > 32 ? SerialTupleCost(c)
               : AverageDecodeTime(w, 32, 1, c) + c.t_add / 8.0);
  // The value-at-a-time scalar pipeline: always feasible.
  offer(true, "serial.scalar", DecodeStrategy::kSerial, SerialTupleCost(c));
  return d;
}

void NoteDecisionOutcome(const ScheduleDecision& d, uint64_t tuples,
                         uint64_t measured_nanos, ExecStats* stats) {
  if (stats == nullptr) return;
  SchedDecisionStats& s = stats->scheduler[d.class_key];
  if (s.entry.empty()) s.entry = d.label;
  ++s.jobs;
  s.tuples += tuples;
  s.measured_nanos += measured_nanos;
  double predicted = d.predicted_ns_per_tuple * static_cast<double>(tuples);
  s.predicted_nanos += predicted;
  // Noise floor: only jobs big enough for the clock to mean something can
  // count as mispredictions.
  constexpr uint64_t kMinTuples = 4096;
  if (tuples >= kMinTuples && predicted > 0 &&
      (static_cast<double>(measured_nanos) > 2.0 * predicted ||
       2.0 * static_cast<double>(measured_nanos) < predicted)) {
    ++s.mispredictions;
    ++stats->mispredictions;
  }
}

}  // namespace etsqp::exec
