#include "exec/scheduler_registry.h"

#include <algorithm>

#include "common/cpu.h"
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

/// Transposed-decode cost for one tuple at this width bucket, clamped to
/// the model's SIMD domain; above it the kernels run the widened path,
/// modeled as serial minus the vectorized delta recovery.
double TransposedCost(int width, int n_v, const CostConstants& c) {
  if (width > kTransposedMaxWidth) return 0.8 * SerialTupleCost(c);
  return AverageDecodeTime(width, 32, n_v, c) + c.t_add / 8.0;
}

bool FusableFunc(AggFunc func, enc::ColumnEncoding venc) {
  return func == AggFunc::kSum || func == AggFunc::kAvg ||
         func == AggFunc::kCount ||
         (func == AggFunc::kVariance && venc == enc::ColumnEncoding::kDeltaRle);
}

bool IntSealed(const PageClass& cls) {
  return cls.sealed && !cls.is_float && !cls.merge;
}

/// --- Concrete entries ----------------------------------------------------

/// Section IV operator fusion: block-closed-form aggregation straight over
/// the encoded form (Ts2DiffFusedReader::SumRange / FusedAggDeltaRle). No
/// unpack, no delta recovery — the cheapest plan whenever it applies.
class FusedAggEntry : public SchedulerEntry {
 public:
  const char* name() const override { return "etsqp.fused"; }
  int priority() const override { return 100; }
  bool CanSchedule(const PageClass& cls, const PlanContext& ctx) const override {
    if (!IntSealed(cls) || !ctx.aggregate || !ctx.fusion || ctx.value_filter) {
      return false;
    }
    if (!FusableFunc(ctx.func, cls.value_encoding)) return false;
    if (cls.value_encoding == enc::ColumnEncoding::kTs2Diff) {
      return cls.width_bucket <= kTransposedMaxWidth;
    }
    return cls.value_encoding == enc::ColumnEncoding::kDeltaRle;
  }
  HeuristicParams Params(const PageClass& cls,
                         const PlanContext&) const override {
    return {DecodeStrategy::kEtsqp, OptimalNv(std::min(
                cls.width_bucket, kTransposedMaxWidth)),
            /*fusion=*/true, /*transposed=*/true};
  }
  double PredictCost(const PageClass& cls, const PlanContext&,
                     const CostConstants& c) const override {
    // Fused readers skip recovery and scatter: model as half the decode.
    int w = std::min(std::max(cls.width_bucket, 1), kTransposedMaxWidth);
    return 0.5 * AverageDecodeTime(w, 32, OptimalNv(w), c);
  }
};

/// Algorithm 1: transposed unpack + Delta recovery. The kernels take the
/// 512-bit or the 256-bit datapath from CPU detection, so the entry costs
/// the one the host runs: the 512-bit formula (n_v = 2, two ZMM vectors per
/// chunk) when AVX-512 is available and the width is inside the transposed
/// domain, else the AVX2 formula with n_v from Proposition 1. Also covers
/// widths past the transposed domain via the widened path, so ETSQP keeps
/// its strategy on mixed-width series.
class EtsqpTransposedEntry : public SchedulerEntry {
 public:
  const char* name() const override { return "etsqp.transposed"; }
  int priority() const override { return 90; }
  bool CanSchedule(const PageClass& cls, const PlanContext&) const override {
    return IntSealed(cls) && UseAvx2();
  }
  HeuristicParams Params(const PageClass& cls,
                         const PlanContext& ctx) const override {
    if (Wide(cls)) {
      return {DecodeStrategy::kEtsqp, 2, ctx.fusion, /*transposed=*/true};
    }
    int w = std::min(std::max(cls.width_bucket, 1), kTransposedMaxWidth);
    return {DecodeStrategy::kEtsqp, OptimalNv(w), ctx.fusion,
            cls.width_bucket <= kTransposedMaxWidth};
  }
  double PredictCost(const PageClass& cls, const PlanContext&,
                     const CostConstants& c) const override {
    int w = std::max(cls.width_bucket, 1);
    if (Wide(cls)) {
      CostConstants wide = c;
      wide.simd_bits = 512;
      return AverageDecodeTime(w, 32, 2, wide) + c.t_add / 16.0;
    }
    return TransposedCost(w, OptimalNv(std::min(w, kTransposedMaxWidth)), c);
  }

 private:
  static bool Wide(const PageClass& cls) {
    return simd::Avx512Available() && cls.width_bucket <= kTransposedMaxWidth;
  }
};

/// SBoost baseline: natural-order SIMD unpack + log-step prefix sum. The
/// linear layout pays the full prefix network per vector — n_v = 1 in the
/// Proposition 1 formula.
class SboostEntry : public SchedulerEntry {
 public:
  const char* name() const override { return "sboost.linear"; }
  int priority() const override { return 60; }
  bool CanSchedule(const PageClass& cls, const PlanContext&) const override {
    return IntSealed(cls) && UseAvx2() &&
           cls.value_encoding != enc::ColumnEncoding::kFastLanes;
  }
  HeuristicParams Params(const PageClass&, const PlanContext&) const override {
    return {DecodeStrategy::kSboost, 1, false, /*transposed=*/false};
  }
  double PredictCost(const PageClass& cls, const PlanContext&,
                     const CostConstants& c) const override {
    int w = std::max(cls.width_bucket, 1);
    if (w > 32) return SerialTupleCost(c);
    return AverageDecodeTime(std::min(w, 32), 32, 1, c) + c.t_add / 8.0;
  }
};

/// XOR-pattern float columns (Gorilla/Chimp/Elf): inherently serial bit
/// streams; one entry covers them so float classes still get a cost row.
class XorFloatEntry : public SchedulerEntry {
 public:
  const char* name() const override { return "xor.float"; }
  int priority() const override { return 50; }
  bool CanSchedule(const PageClass& cls, const PlanContext&) const override {
    return cls.sealed && cls.is_float && !cls.merge;
  }
  HeuristicParams Params(const PageClass&, const PlanContext&) const override {
    return {DecodeStrategy::kEtsqp, 0, false, false};
  }
  double PredictCost(const PageClass&, const PlanContext&,
                     const CostConstants& c) const override {
    return 2.0 * c.t_vis_mem + 2.0 * c.t_op;
  }
};

/// The unsealed in-memory tail: raw arrays drained by the engine's scalar
/// raw-array drain. Only entry for unsealed classes.
class TailScalarEntry : public SchedulerEntry {
 public:
  const char* name() const override { return "tail.scalar"; }
  int priority() const override { return 40; }
  bool CanSchedule(const PageClass& cls, const PlanContext&) const override {
    return !cls.sealed;
  }
  HeuristicParams Params(const PageClass&, const PlanContext&) const override {
    return {DecodeStrategy::kEtsqp, 0, false, false};
  }
  double PredictCost(const PageClass&, const PlanContext&,
                     const CostConstants& c) const override {
    return c.t_vis_mem + c.t_op + c.t_add;
  }
};

/// Value-at-a-time scalar pipeline: always feasible on sealed integer pages
/// — the guaranteed fallback when SIMD is unavailable. Floats go through
/// xor.float.
class SerialEntry : public SchedulerEntry {
 public:
  const char* name() const override { return "serial.scalar"; }
  int priority() const override { return 10; }
  bool CanSchedule(const PageClass& cls, const PlanContext&) const override {
    return IntSealed(cls);
  }
  HeuristicParams Params(const PageClass&, const PlanContext&) const override {
    return {DecodeStrategy::kSerial, 0, false, false};
  }
  double PredictCost(const PageClass&, const PlanContext&,
                     const CostConstants& c) const override {
    return SerialTupleCost(c);
  }
};

/// The N-way timestamp merge/intersection stage of binary, correlate and
/// concatenation plans (simd/merge_simd.h): a per-tuple stream operation,
/// not a page decode, so it has its own classes ("merge/2way",
/// "merge/nway"). The kernels run BestMergeIsa(), and the entry costs that
/// datapath: block-skip compares amortize over 8 lanes on AVX-512 and 4 on
/// AVX2. On a scalar host the stage runs the kSerial reference kernels.
class MergeEntry : public SchedulerEntry {
 public:
  const char* name() const override { return "etsqp.merge"; }
  int priority() const override { return 88; }
  bool CanSchedule(const PageClass& cls, const PlanContext&) const override {
    return cls.merge;
  }
  HeuristicParams Params(const PageClass&, const PlanContext&) const override {
    DecodeStrategy s = simd::BestMergeIsa() == simd::MergeIsa::kScalar
                           ? DecodeStrategy::kSerial
                           : DecodeStrategy::kEtsqp;
    return {s, 0, false, false};
  }
  double PredictCost(const PageClass&, const PlanContext&,
                     const CostConstants& c) const override {
    switch (simd::BestMergeIsa()) {
      case simd::MergeIsa::kAvx512:
        return (c.t_vis_mem + c.t_op) / 8.0 + c.t_add / 8.0;
      case simd::MergeIsa::kAvx2:
        return (c.t_vis_mem + c.t_op) / 4.0 + c.t_add / 4.0;
      default:
        return c.t_vis_mem + c.t_op + c.t_add;
    }
  }
};

}  // namespace

std::string PageClass::Key() const {
  if (merge) return merge_ways <= 2 ? "merge/2way" : "merge/nway";
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

PageClass ClassifyMerge(int ways) {
  PageClass cls;
  cls.merge = true;
  cls.merge_ways = ways;
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

PlanContext MakePlanContext(const LogicalPlan& plan,
                            const PipelineOptions& options) {
  PlanContext ctx;
  ctx.aggregate = plan.kind == LogicalPlan::Kind::kAggregate;
  ctx.func = plan.func;
  ctx.value_filter = plan.value_filter.active;
  ctx.fusion = options.fusion;
  return ctx;
}

std::string HeuristicParams::ToString() const {
  std::string out = "n_v=" + std::to_string(n_v);
  out += transposed ? " transposed" : " linear";
  if (fusion) out += " fused";
  return out;
}

SchedulerRegistry::SchedulerRegistry() {
  entries_.push_back(std::make_unique<FusedAggEntry>());
  entries_.push_back(std::make_unique<EtsqpTransposedEntry>());
  entries_.push_back(std::make_unique<SboostEntry>());
  entries_.push_back(std::make_unique<XorFloatEntry>());
  entries_.push_back(std::make_unique<TailScalarEntry>());
  entries_.push_back(std::make_unique<SerialEntry>());
  entries_.push_back(std::make_unique<MergeEntry>());
}

const SchedulerRegistry& SchedulerRegistry::Global() {
  static const SchedulerRegistry* registry = new SchedulerRegistry();
  return *registry;
}

const SchedulerEntry* SchedulerRegistry::Find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (name == e->name()) return e.get();
  }
  return nullptr;
}

ScheduleDecision SchedulerRegistry::Propose(const PageClass& cls,
                                            const PlanContext& ctx) const {
  const CostConstants constants;
  ScheduleDecision best;
  best.class_key = cls.Key();
  for (const auto& e : entries_) {
    if (!e->CanSchedule(cls, ctx)) continue;
    double cost = e->PredictCost(cls, ctx, constants);
    bool better =
        best.entry == nullptr || cost < best.predicted_ns_per_tuple ||
        (cost == best.predicted_ns_per_tuple &&
         e->priority() > best.entry->priority());
    if (better) {
      best.entry = e.get();
      best.params = e->Params(cls, ctx);
      best.predicted_ns_per_tuple = cost;
    }
  }
  return best;
}

PipelineOptions ApplyDecision(const PipelineOptions& base,
                              const ScheduleDecision& d) {
  PipelineOptions o = base;
  if (d.entry == nullptr) return o;
  o.strategy = d.params.strategy;
  o.fusion = d.params.fusion;
  // base.n_v > 0 is a user pin and stays; 0 keeps the kernels' per-block
  // Proposition 1 default (d.params.n_v is the bucket-level model value).
  return o;
}

void NoteDecisionOutcome(const ScheduleDecision& d, uint64_t tuples,
                         uint64_t measured_nanos, ExecStats* stats) {
  if (stats == nullptr || d.entry == nullptr) return;
  SchedDecisionStats& s = stats->scheduler[d.class_key];
  if (s.entry.empty()) {
    s.entry = d.entry->name();
    s.params = d.params.ToString();
  }
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
