#include "exec/scheduler_registry.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "common/cpu.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "simd/transposed_unpack_avx512.h"
#include "storage/page_builder.h"

namespace etsqp::exec {

namespace {

/// Width grid the classifier rounds up to. Coarse on purpose: calibration
/// and planning must land real pages and synthetic probe pages in the same
/// bucket, and decode cost moves slowly with width.
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

/// Algorithm 1 on 512-bit vectors (simd/transposed_unpack_avx512). Same
/// kernels as the AVX2 entry underneath — this entry exists so the wider
/// datapath gets its own cost row and calibration bucket.
class EtsqpAvx512Entry : public SchedulerEntry {
 public:
  const char* name() const override { return "etsqp.avx512"; }
  int priority() const override { return 90; }
  bool CanSchedule(const PageClass& cls, const PlanContext&) const override {
    return IntSealed(cls) && UseAvx2() && simd::Avx512Available() &&
           cls.width_bucket <= kTransposedMaxWidth;
  }
  HeuristicParams Params(const PageClass&, const PlanContext& ctx)
      const override {
    // The 512-bit kernels default to n_v = 2 (two ZMM vectors per chunk).
    return {DecodeStrategy::kEtsqp, 2, ctx.fusion, /*transposed=*/true};
  }
  double PredictCost(const PageClass& cls, const PlanContext&,
                     const CostConstants& c) const override {
    CostConstants wide = c;
    wide.simd_bits = 512;
    return AverageDecodeTime(std::max(cls.width_bucket, 1), 32, 2, wide) +
           c.t_add / 16.0;
  }
};

/// Algorithm 1 on AVX2: transposed unpack + Delta recovery, n_v from
/// Proposition 1. Also covers widths past the transposed domain via the
/// widened path, so ETSQP keeps its strategy on mixed-width series.
class EtsqpAvx2Entry : public SchedulerEntry {
 public:
  const char* name() const override { return "etsqp.avx2"; }
  int priority() const override { return 80; }
  bool CanSchedule(const PageClass& cls, const PlanContext&) const override {
    return IntSealed(cls) && UseAvx2();
  }
  HeuristicParams Params(const PageClass& cls,
                         const PlanContext& ctx) const override {
    int w = std::min(std::max(cls.width_bucket, 1), kTransposedMaxWidth);
    return {DecodeStrategy::kEtsqp, OptimalNv(w), ctx.fusion,
            cls.width_bucket <= kTransposedMaxWidth};
  }
  double PredictCost(const PageClass& cls, const PlanContext&,
                     const CostConstants& c) const override {
    int w = std::max(cls.width_bucket, 1);
    return TransposedCost(w, OptimalNv(std::min(w, kTransposedMaxWidth)), c);
  }
};

/// FastLanes FLMM1024 tile decode — only meaningful for pages encoded in
/// the FastLanes layout.
class FastLanesEntry : public SchedulerEntry {
 public:
  const char* name() const override { return "fastlanes.flmm"; }
  int priority() const override { return 70; }
  bool CanSchedule(const PageClass& cls, const PlanContext&) const override {
    return IntSealed(cls) && UseAvx2() &&
           cls.value_encoding == enc::ColumnEncoding::kFastLanes;
  }
  HeuristicParams Params(const PageClass& cls,
                         const PlanContext&) const override {
    int w = std::min(std::max(cls.width_bucket, 1), kTransposedMaxWidth);
    return {DecodeStrategy::kFastLanes, OptimalNv(w), false,
            /*transposed=*/true};
  }
  double PredictCost(const PageClass& cls, const PlanContext&,
                     const CostConstants& c) const override {
    int w = std::max(cls.width_bucket, 1);
    // 1024-value tiles add transpose bookkeeping over the dynamic layout.
    return 1.05 * TransposedCost(w, OptimalNv(std::min(w, 25)), c);
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

/// The unsealed in-memory tail: raw arrays drained by the scalar tail
/// kernels (exec/tail_kernel.h). Only entry for unsealed classes.
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
/// — the guaranteed fallback when SIMD is unavailable, and the baseline
/// every calibration sweep measures against. Floats go through xor.float.
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

/// --- Merge-stage entries (simd/merge_simd.h kernel family) ----------------
/// These schedule the N-way timestamp merge/intersection stage of binary,
/// correlate, and concatenation plans — a per-tuple stream operation, not a
/// page decode, so they get their own class ("merge/2way", "merge/nway")
/// and their own calibration rows.

class MergeAvx512Entry : public SchedulerEntry {
 public:
  const char* name() const override { return "etsqp.merge.avx512"; }
  int priority() const override { return 88; }
  bool CanSchedule(const PageClass& cls, const PlanContext&) const override {
    return cls.merge && UseAvx2() && simd::Avx512Available();
  }
  HeuristicParams Params(const PageClass&, const PlanContext&) const override {
    return {DecodeStrategy::kEtsqp, 0, false, false};
  }
  double PredictCost(const PageClass&, const PlanContext&,
                     const CostConstants& c) const override {
    // Block-skip compares amortize over 8 lanes.
    return (c.t_vis_mem + c.t_op) / 8.0 + c.t_add / 8.0;
  }
};

class MergeAvx2Entry : public SchedulerEntry {
 public:
  const char* name() const override { return "etsqp.merge.avx2"; }
  int priority() const override { return 86; }
  bool CanSchedule(const PageClass& cls, const PlanContext&) const override {
    return cls.merge && UseAvx2();
  }
  HeuristicParams Params(const PageClass&, const PlanContext&) const override {
    return {DecodeStrategy::kEtsqp, 0, false, false};
  }
  double PredictCost(const PageClass&, const PlanContext&,
                     const CostConstants& c) const override {
    return (c.t_vis_mem + c.t_op) / 4.0 + c.t_add / 4.0;
  }
};

class MergeScalarEntry : public SchedulerEntry {
 public:
  const char* name() const override { return "etsqp.merge.scalar"; }
  int priority() const override { return 12; }
  bool CanSchedule(const PageClass& cls, const PlanContext&) const override {
    return cls.merge;
  }
  HeuristicParams Params(const PageClass&, const PlanContext&) const override {
    return {DecodeStrategy::kSerial, 0, false, false};
  }
  double PredictCost(const PageClass&, const PlanContext&,
                     const CostConstants& c) const override {
    return c.t_vis_mem + c.t_op + c.t_add;
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

simd::MergeIsa MergeEntryIsa(const std::string& entry_name) {
  if (entry_name == "etsqp.merge.avx512") return simd::MergeIsa::kAvx512;
  if (entry_name == "etsqp.merge.avx2") return simd::MergeIsa::kAvx2;
  if (entry_name == "etsqp.merge.scalar") return simd::MergeIsa::kScalar;
  return simd::BestMergeIsa();
}

PlanContext MakePlanContext(const LogicalPlan& plan,
                            const PipelineOptions& options) {
  PlanContext ctx;
  ctx.aggregate = plan.kind == LogicalPlan::Kind::kAggregate;
  ctx.func = plan.func;
  ctx.value_filter = plan.value_filter.active;
  ctx.windowed = plan.window.active;
  ctx.fusion = options.fusion;
  ctx.prune = options.prune;
  ctx.threads = options.threads;
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
  entries_.push_back(std::make_unique<EtsqpAvx512Entry>());
  entries_.push_back(std::make_unique<EtsqpAvx2Entry>());
  entries_.push_back(std::make_unique<FastLanesEntry>());
  entries_.push_back(std::make_unique<SboostEntry>());
  entries_.push_back(std::make_unique<XorFloatEntry>());
  entries_.push_back(std::make_unique<TailScalarEntry>());
  entries_.push_back(std::make_unique<SerialEntry>());
  entries_.push_back(std::make_unique<MergeAvx512Entry>());
  entries_.push_back(std::make_unique<MergeAvx2Entry>());
  entries_.push_back(std::make_unique<MergeScalarEntry>());
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

ScheduleDecision SchedulerRegistry::Propose(
    const PageClass& cls, const PlanContext& ctx,
    const CostCalibration* calibration, const CostConstants& constants) const {
  ScheduleDecision best;
  best.class_key = cls.Key();
  for (const auto& e : entries_) {
    if (!e->CanSchedule(cls, ctx)) continue;
    double cost = 0;
    bool calibrated =
        calibration != nullptr &&
        calibration->Lookup(e->name(), best.class_key, &cost);
    if (!calibrated) cost = e->PredictCost(cls, ctx, constants);
    bool better =
        best.entry == nullptr || cost < best.predicted_ns_per_tuple ||
        (cost == best.predicted_ns_per_tuple &&
         e->priority() > best.entry->priority());
    if (better) {
      best.entry = e.get();
      best.params = e->Params(cls, ctx);
      best.predicted_ns_per_tuple = cost;
      best.calibrated = calibrated;
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
    s.calibrated = d.calibrated;
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

// --- Calibration ----------------------------------------------------------

bool CostCalibration::Lookup(const std::string& entry,
                             const std::string& class_key,
                             double* ns_per_tuple) const {
  auto it = costs_.find(MapKey(entry, class_key));
  if (it == costs_.end()) return false;
  *ns_per_tuple = it->second;
  return true;
}

void CostCalibration::Set(const std::string& entry,
                          const std::string& class_key, double ns_per_tuple) {
  costs_[MapKey(entry, class_key)] = ns_per_tuple;
}

namespace {

constexpr char kCalibMagic[8] = {'E', 'T', 'S', 'Q', 'P', 'C', 'A', 'L'};
constexpr uint32_t kCalibVersion = 1;

void PutU16BE(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v));
}

void PutU32BE(std::vector<uint8_t>* out, uint32_t v) {
  for (int s = 24; s >= 0; s -= 8) {
    out->push_back(static_cast<uint8_t>(v >> s));
  }
}

void PutU64BE(std::vector<uint8_t>* out, uint64_t v) {
  for (int s = 56; s >= 0; s -= 8) {
    out->push_back(static_cast<uint8_t>(v >> s));
  }
}

uint32_t GetU32BE(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | p[3];
}

uint64_t GetU64BE(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

/// A synthetic probe page for one (width, codec) bucket: deltas alternate
/// between -ceil(2^w/2) and +floor(2^w/2) so the residual packing width is
/// exactly w while values stay bounded (the narrow int32 form applies, as
/// it does for real IoT series).
Result<storage::Page> MakeProbePage(int width, enc::ColumnEncoding venc,
                                    uint32_t n) {
  int64_t range = width >= 62 ? (int64_t{1} << 40) : (int64_t{1} << width) - 1;
  int64_t down = range / 2;
  int64_t up = range - down;
  std::vector<int64_t> times(n);
  std::vector<int64_t> values(n);
  int64_t v = range;  // headroom so values never go negative
  for (uint32_t i = 0; i < n; ++i) {
    times[i] = static_cast<int64_t>(i);
    v += (i % 2 == 0) ? up : -down;
    values[i] = v;
  }
  storage::PageOptions options;
  options.value_encoding = venc;
  return storage::BuildPage(times.data(), values.data(), n, options);
}

/// Best-of-k wall time for one entry's aggregation over a probe page, in
/// ns per tuple; negative when the configuration fails.
double MeasureEntry(const storage::Page& page, const PipelineOptions& opt,
                    bool is_float, uint32_t n) {
  constexpr int kReps = 7;
  uint64_t best = UINT64_MAX;
  for (int rep = 0; rep <= kReps; ++rep) {  // rep 0 is warm-up
    uint64_t t0 = metrics::NowNanos();
    Status st;
    if (is_float) {
      FloatAggAccum acc;
      st = AggregateFloatSlice(page, 0, n, TimeRange{}, ValueRange{},
                               AggFunc::kSum, opt, &acc, nullptr);
    } else {
      AggAccum acc;
      st = AggregateSlice(page, 0, n, TimeRange{}, ValueRange{},
                          AggFunc::kSum, opt, &acc, nullptr);
    }
    uint64_t dt = metrics::NowNanos() - t0;
    if (!st.ok()) return -1.0;
    if (rep > 0 && dt < best) best = dt;
  }
  return static_cast<double>(best) / n;
}

}  // namespace

CostCalibration CostCalibration::Measure() {
  CostCalibration cal;
  const SchedulerRegistry& reg = SchedulerRegistry::Global();
  PlanContext ctx;  // canonical probe shape: SUM, no filters, fusion allowed
  const uint32_t n = 4096;

  struct Probe {
    int width;
    enc::ColumnEncoding venc;
  };
  // Packing widths are swept densely because the cache is keyed by the
  // *classified* bucket (encoded bits per value, framing included), which
  // sits above the packing width: a sparse sweep leaves holes real pages
  // land in, and a Lookup miss silently degrades to the static model.
  // Probes that classify into an already-measured bucket are skipped.
  std::vector<Probe> probes;
  for (int w : {1, 2, 3, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24}) {
    probes.push_back({w, enc::ColumnEncoding::kTs2Diff});
  }
  for (int w : {2, 8, 16}) {
    probes.push_back({w, enc::ColumnEncoding::kDeltaRle});
    probes.push_back({w, enc::ColumnEncoding::kFastLanes});
  }

  PipelineOptions base = PipelineOptions::Etsqp(1).WithRegistry(false);
  std::set<std::string> measured;
  for (const Probe& p : probes) {
    Result<storage::Page> page = MakeProbePage(p.width, p.venc, n);
    if (!page.ok()) continue;
    PageClass cls = ClassifyPage(page.value().header);
    if (!measured.insert(cls.Key()).second) continue;
    for (const auto& entry : reg.entries()) {
      if (!entry->CanSchedule(cls, ctx)) continue;
      ScheduleDecision d;
      d.entry = entry.get();
      d.params = entry->Params(cls, ctx);
      double ns = MeasureEntry(page.value(), ApplyDecision(base, d),
                               /*is_float=*/false, n);
      if (ns >= 0) cal.Set(entry->name(), cls.Key(), ns);
    }
  }

  // One float probe so XOR-stream classes get measured rows too.
  {
    std::vector<int64_t> times(n);
    std::vector<double> values(n);
    for (uint32_t i = 0; i < n; ++i) {
      times[i] = static_cast<int64_t>(i);
      values[i] = 20.0 + 0.25 * (i % 64);
    }
    storage::PageOptions options;
    options.value_encoding = enc::ColumnEncoding::kGorillaValue;
    Result<storage::Page> page =
        storage::BuildPageF64(times.data(), values.data(), n, options);
    if (page.ok()) {
      PageClass cls = ClassifyPage(page.value().header);
      for (const auto& entry : reg.entries()) {
        if (!entry->CanSchedule(cls, ctx)) continue;
        ScheduleDecision d;
        d.entry = entry.get();
        d.params = entry->Params(cls, ctx);
        double ns = MeasureEntry(page.value(), ApplyDecision(base, d),
                                 /*is_float=*/true, n);
        if (ns >= 0) cal.Set(entry->name(), cls.Key(), ns);
      }
    }
  }

  // Merge-stage probe: two 4096-element sorted streams with ~50% overlap,
  // timed through intersection + union per schedulable merge entry.
  {
    const size_t mn = n;
    std::vector<int64_t> lt(mn), rt(mn), lv(mn, 0), rv(mn, 0);
    for (size_t i = 0; i < mn; ++i) {
      lt[i] = static_cast<int64_t>(2 * i);
      rt[i] = static_cast<int64_t>(i % 2 == 0 ? 2 * i : 2 * i + 1);
    }
    std::vector<uint32_t> il(mn), ir(mn);
    std::vector<int64_t> out_t(2 * mn), out_v(2 * mn);
    PageClass cls = ClassifyMerge(2);
    for (const auto& entry : reg.entries()) {
      if (!entry->CanSchedule(cls, ctx)) continue;
      simd::MergeIsa isa = MergeEntryIsa(entry->name());
      constexpr int kReps = 7;
      uint64_t best = UINT64_MAX;
      for (int rep = 0; rep <= kReps; ++rep) {  // rep 0 is warm-up
        uint64_t t0 = metrics::NowNanos();
        simd::IntersectIndicesInt64(lt.data(), mn, rt.data(), mn, il.data(),
                                    ir.data(), isa);
        simd::MergeUnionInt64(lt.data(), lv.data(), mn, rt.data(), rv.data(),
                              mn, out_t.data(), out_v.data(), isa);
        uint64_t dt = metrics::NowNanos() - t0;
        if (rep > 0 && dt < best) best = dt;
      }
      cal.Set(entry->name(), cls.Key(),
              static_cast<double>(best) / static_cast<double>(2 * mn));
    }
  }

  return cal;
}

Status CostCalibration::SaveToFile(const std::string& path) const {
  std::vector<uint8_t> records;
  for (const auto& [key, ns] : costs_) {
    if (key.size() > UINT16_MAX) continue;
    PutU16BE(&records, static_cast<uint16_t>(key.size()));
    records.insert(records.end(), key.begin(), key.end());
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(ns));
    std::memcpy(&bits, &ns, sizeof(bits));
    PutU64BE(&records, bits);
  }

  std::vector<uint8_t> out;
  out.insert(out.end(), kCalibMagic, kCalibMagic + sizeof(kCalibMagic));
  PutU32BE(&out, kCalibVersion);
  PutU32BE(&out, static_cast<uint32_t>(costs_.size()));
  out.insert(out.end(), records.begin(), records.end());
  PutU32BE(&out, MaskCrc(Crc32c(records.data(), records.size())));

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("open for write: " + path);
  size_t written = std::fwrite(out.data(), 1, out.size(), f);
  int rc = std::fclose(f);
  if (written != out.size() || rc != 0) {
    return Status::IoError("short write: " + path);
  }
  return Status::Ok();
}

Result<CostCalibration> CostCalibration::LoadFromFile(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no calibration at " + path);
  std::vector<uint8_t> data;
  uint8_t buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + got);
  }
  std::fclose(f);

  constexpr size_t kHeader = sizeof(kCalibMagic) + 8;  // magic + ver + count
  if (data.size() < kHeader + 4 ||
      std::memcmp(data.data(), kCalibMagic, sizeof(kCalibMagic)) != 0) {
    return Status::Corruption("calibration header mismatch");
  }
  if (GetU32BE(data.data() + sizeof(kCalibMagic)) != kCalibVersion) {
    return Status::Corruption("calibration version mismatch");
  }
  uint32_t count = GetU32BE(data.data() + sizeof(kCalibMagic) + 4);
  const uint8_t* records = data.data() + kHeader;
  size_t records_size = data.size() - kHeader - 4;
  uint32_t crc = GetU32BE(data.data() + data.size() - 4);
  if (UnmaskCrc(crc) != Crc32c(records, records_size)) {
    return Status::Corruption("calibration checksum mismatch");
  }

  CostCalibration cal;
  size_t pos = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if (pos + 2 > records_size) {
      return Status::Corruption("calibration truncated record");
    }
    uint16_t len = static_cast<uint16_t>((records[pos] << 8) | records[pos + 1]);
    pos += 2;
    if (pos + len + 8 > records_size) {
      return Status::Corruption("calibration truncated record");
    }
    std::string key(reinterpret_cast<const char*>(records + pos), len);
    pos += len;
    uint64_t bits = GetU64BE(records + pos);
    pos += 8;
    double ns;
    std::memcpy(&ns, &bits, sizeof(ns));
    cal.costs_[key] = ns;
  }
  if (pos != records_size) {
    return Status::Corruption("calibration trailing bytes");
  }
  return cal;
}

Result<std::shared_ptr<const CostCalibration>> CostCalibration::LoadOrMeasure(
    const std::string& path, bool* measured) {
  if (measured != nullptr) *measured = false;
  Result<CostCalibration> loaded = LoadFromFile(path);
  if (loaded.ok()) {
    return std::make_shared<const CostCalibration>(std::move(loaded).value());
  }
  CostCalibration cal = Measure();
  ETSQP_RETURN_IF_ERROR(cal.SaveToFile(path));
  if (measured != nullptr) *measured = true;
  return std::make_shared<const CostCalibration>(std::move(cal));
}

}  // namespace etsqp::exec
