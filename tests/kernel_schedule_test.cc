// Tests for the per-page-class kernel choice (exec/kernel_schedule.h): page
// classification, the feasibility contracts of Schedule(), the static
// picks against a reference Proposition 1 model (natively and with SIMD
// disabled), and the EXPLAIN surfaces of kernel decisions.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "exec/cost_model.h"
#include "exec/engine.h"
#include "exec/kernel_schedule.h"
#include "page_encodings.h"
#include "simd/transposed_unpack_avx512.h"
#include "storage/page_builder.h"
#include "storage/series_store.h"

namespace etsqp::exec {
namespace {

storage::Page MakePage(enc::ColumnEncoding venc, int64_t step, uint32_t n) {
  std::vector<int64_t> times(n);
  std::vector<int64_t> values(n);
  int64_t v = 1000;
  for (uint32_t i = 0; i < n; ++i) {
    times[i] = static_cast<int64_t>(i);
    v += (i % 2 == 0) ? step : -step / 2;
    values[i] = v;
  }
  storage::PageOptions options;
  options.value_encoding = venc;
  auto page = storage::BuildPage(times.data(), values.data(), n, options);
  EXPECT_TRUE(page.ok()) << page.status().ToString();
  return std::move(page).value();
}

PageClass SealedIntClass(int width_bucket,
                         enc::ColumnEncoding venc = enc::ColumnEncoding::kTs2Diff) {
  PageClass cls;
  cls.value_encoding = venc;
  cls.width_bucket = width_bucket;
  cls.sealed = true;
  cls.is_float = false;
  return cls;
}

// ------------------------------------------------------- Classification

TEST(PageClassTest, KeyFormats) {
  EXPECT_EQ(SealedIntClass(8).Key(), "TS2DIFF/w8");
  PageClass fl = SealedIntClass(0, enc::ColumnEncoding::kGorillaValue);
  fl.is_float = true;
  EXPECT_EQ(fl.Key(), "GORILLA_VALUE/f64");
  PageClass tail;
  tail.sealed = false;
  EXPECT_EQ(tail.Key(), "tail");
  tail.is_float = true;
  EXPECT_EQ(tail.Key(), "tail/f64");
}

TEST(PageClassTest, ClassifyPageDerivesWidthBucketFromDensity) {
  // Narrow deltas pack narrow; wide deltas land in a wider bucket. The
  // bucket is average encoded bits per value rounded up on a fixed grid,
  // so it must be monotone in delta magnitude.
  storage::Page narrow = MakePage(enc::ColumnEncoding::kTs2Diff, 3, 4096);
  storage::Page wide =
      MakePage(enc::ColumnEncoding::kTs2Diff, int64_t{1} << 19, 4096);
  PageClass cn = ClassifyPage(narrow.header);
  PageClass cw = ClassifyPage(wide.header);
  EXPECT_TRUE(cn.sealed);
  EXPECT_FALSE(cn.is_float);
  EXPECT_GT(cn.width_bucket, 0);
  EXPECT_LT(cn.width_bucket, cw.width_bucket);
}

TEST(PageClassTest, ProbePagesAndRealPagesShareBuckets) {
  // Classification is a pure function of the header: the same page
  // classified twice gives the identical key.
  storage::Page page = MakePage(enc::ColumnEncoding::kTs2Diff, 100, 4096);
  EXPECT_EQ(ClassifyPage(page.header).Key(), ClassifyPage(page.header).Key());
}

// ------------------------------------------------- Feasibility contracts

PlanContext AggCtx() {
  PlanContext ctx;
  ctx.aggregate = true;
  ctx.func = AggFunc::kSum;
  return ctx;
}

std::string LabelOf(const PageClass& cls, const PlanContext& ctx) {
  ScheduleDecision d = Schedule(cls, ctx);
  EXPECT_NE(d.label, nullptr) << cls.Key();
  return d.label == nullptr ? "" : d.label;
}

/// Runs `body` natively, then again with the SIMD kernels disabled.
template <typename Body>
void ForEachIsaMode(Body body) {
  for (bool disabled : {false, true}) {
    SetSimdDisabledForTesting(disabled);
    body(disabled);
  }
  SetSimdDisabledForTesting(false);
}

TEST(SchedulerEntryTest, FusedRequiresFusableAggregateShape) {
  // etsqp.fused is the pick exactly where AggValues opens a fused reader,
  // on every datapath: the readers need no SIMD.
  ForEachIsaMode([](bool) {
    PlanContext ctx = AggCtx();
    for (AggFunc f : {AggFunc::kSum, AggFunc::kAvg, AggFunc::kCount}) {
      ctx.func = f;
      EXPECT_EQ(LabelOf(SealedIntClass(8), ctx), "etsqp.fused");
      EXPECT_EQ(LabelOf(SealedIntClass(8, enc::ColumnEncoding::kDeltaRle), ctx),
                "etsqp.fused");
    }

    // A value filter decodes: AggValues rejects fusion under a filter.
    PlanContext filtered = AggCtx();
    filtered.value_filter = true;
    EXPECT_NE(LabelOf(SealedIntClass(8), filtered), "etsqp.fused");

    PlanContext decode = AggCtx();
    decode.aggregate = false;
    EXPECT_NE(LabelOf(SealedIntClass(8), decode), "etsqp.fused");

    // VAR is only fusable over Delta-RLE (closed-form sum of squares).
    PlanContext var = AggCtx();
    var.func = AggFunc::kVariance;
    EXPECT_NE(LabelOf(SealedIntClass(8), var), "etsqp.fused");
    EXPECT_EQ(LabelOf(SealedIntClass(8, enc::ColumnEncoding::kDeltaRle), var),
              "etsqp.fused");

    // MIN decodes every value: no fused reader.
    PlanContext min = AggCtx();
    min.func = AggFunc::kMin;
    EXPECT_NE(LabelOf(SealedIntClass(8), min), "etsqp.fused");

    // Past the transposed width domain the TS2DIFF fused reader is out, and
    // codecs without a fused reader never get one.
    EXPECT_NE(LabelOf(SealedIntClass(32), AggCtx()), "etsqp.fused");
    EXPECT_NE(LabelOf(SealedIntClass(8, enc::ColumnEncoding::kRlbe), AggCtx()),
              "etsqp.fused");
  });
}

TEST(SchedulerEntryTest, UnfilteredCountReadsPositionsOnly) {
  // AggValues answers an unfiltered COUNT from positions on every codec:
  // no value kernel runs, so the pick predicts no per-tuple work and is
  // never scored. A value filter reads values again.
  ForEachIsaMode([](bool) {
    PlanContext count = AggCtx();
    count.func = AggFunc::kCount;
    for (const PageClass& cls :
         {SealedIntClass(8), SealedIntClass(32), SealedIntClass(64),
          SealedIntClass(8, enc::ColumnEncoding::kDeltaRle),
          SealedIntClass(8, enc::ColumnEncoding::kRlbe)}) {
      ScheduleDecision d = Schedule(cls, count);
      ASSERT_NE(d.label, nullptr) << cls.Key();
      EXPECT_STREQ(d.label, "etsqp.fused") << cls.Key();
      EXPECT_EQ(d.strategy, DecodeStrategy::kEtsqp) << cls.Key();
      EXPECT_EQ(d.predicted_ns_per_tuple, 0) << cls.Key();
      ExecStats stats;
      NoteDecisionOutcome(d, 8192, 1000000, &stats);
      EXPECT_EQ(stats.mispredictions, 0u) << cls.Key();
    }
    count.value_filter = true;
    EXPECT_GT(Schedule(SealedIntClass(8), count).predicted_ns_per_tuple, 0);
  });
}

PlanContext FilteredCtx() {
  PlanContext ctx = AggCtx();
  ctx.value_filter = true;
  return ctx;
}

PlanContext SelectCtx() {
  PlanContext ctx = AggCtx();
  ctx.aggregate = false;
  return ctx;
}

TEST(SchedulerEntryTest, IntKernelsRejectFloatAndTailClasses) {
  // No integer kernel is ever the pick for a float page or the tail,
  // whatever the plan shape or datapath.
  PageClass fl = SealedIntClass(0, enc::ColumnEncoding::kGorillaValue);
  fl.is_float = true;
  PageClass tail;
  tail.sealed = false;
  const std::set<std::string> int_kernels = {
      "etsqp.fused", "etsqp.transposed", "sboost.linear", "serial.scalar"};
  ForEachIsaMode([&](bool) {
    for (const PlanContext& ctx : {AggCtx(), FilteredCtx(), SelectCtx()}) {
      EXPECT_EQ(int_kernels.count(LabelOf(fl, ctx)), 0u) << fl.Key();
      EXPECT_EQ(int_kernels.count(LabelOf(tail, ctx)), 0u) << tail.Key();
    }
  });
}

TEST(SchedulerEntryTest, FloatAndTailHaveDedicatedEntries) {
  // xor.float is picked only for sealed float pages and tail.scalar only
  // for the unsealed tail.
  PageClass fl = SealedIntClass(0, enc::ColumnEncoding::kGorillaValue);
  fl.is_float = true;
  PageClass tail;
  tail.sealed = false;
  PlanContext ctx = AggCtx();
  ForEachIsaMode([&](bool) {
    EXPECT_EQ(LabelOf(fl, ctx), "xor.float");
    EXPECT_EQ(LabelOf(tail, ctx), "tail.scalar");
    EXPECT_NE(LabelOf(SealedIntClass(8), ctx), "xor.float");
    EXPECT_NE(LabelOf(SealedIntClass(8), ctx), "tail.scalar");
    EXPECT_NE(LabelOf(tail, ctx), "xor.float");
    EXPECT_NE(LabelOf(fl, ctx), "tail.scalar");
  });
}

TEST(SchedulerEntryTest, EveryClassHasAtLeastOneFeasibleEntry) {
  // Schedule() must never strand a page: serial.scalar covers any sealed
  // int class, tail.scalar any unsealed one, xor.float sealed floats.
  PlanContext ctx = FilteredCtx();  // hardest shape: fusion ruled out
  std::vector<PageClass> classes;
  for (int w : {1, 8, 32, 64}) classes.push_back(SealedIntClass(w));
  classes.push_back(SealedIntClass(8, enc::ColumnEncoding::kFastLanes));
  PageClass fl = SealedIntClass(0, enc::ColumnEncoding::kChimpValue);
  fl.is_float = true;
  classes.push_back(fl);
  PageClass tail;
  tail.sealed = false;
  classes.push_back(tail);
  tail.is_float = true;
  classes.push_back(tail);
  ForEachIsaMode([&](bool) {
    for (const PageClass& cls : classes) {
      ScheduleDecision d = Schedule(cls, ctx);
      ASSERT_NE(d.label, nullptr) << cls.Key();
      EXPECT_GT(d.predicted_ns_per_tuple, 0) << cls.Key();
    }
  });
}

TEST(SchedulerRegistryTest, SelectionIsDeterministicPerClass) {
  PlanContext ctx = AggCtx();
  for (int w : {2, 8, 20, 32, 64}) {
    ScheduleDecision a = Schedule(SealedIntClass(w), ctx);
    ScheduleDecision b = Schedule(SealedIntClass(w), ctx);
    ASSERT_NE(a.label, nullptr);
    EXPECT_EQ(a.label, b.label) << w;
    EXPECT_EQ(a.class_key, b.class_key);
    EXPECT_EQ(a.strategy, b.strategy);
    EXPECT_EQ(a.predicted_ns_per_tuple, b.predicted_ns_per_tuple);
  }
}

TEST(SchedulerRegistryTest, StaticModelPrefersFusedForFusableAggregates) {
  ForEachIsaMode([](bool) {
    ScheduleDecision d = Schedule(SealedIntClass(8), AggCtx());
    ASSERT_NE(d.label, nullptr);
    EXPECT_STREQ(d.label, "etsqp.fused");
    EXPECT_EQ(d.strategy, DecodeStrategy::kEtsqp);
  });
}

TEST(SchedulerRegistryTest, FilteredPlansFallBackToUnfusedDecode) {
  // The decode still runs ETSQP's transposed kernels where SIMD exists.
  ScheduleDecision d = Schedule(SealedIntClass(8), FilteredCtx());
  ASSERT_NE(d.label, nullptr);
  EXPECT_STRNE(d.label, "etsqp.fused");
  EXPECT_EQ(d.strategy, UseAvx2() ? DecodeStrategy::kEtsqp
                                  : DecodeStrategy::kSerial);
}

TEST(SchedulerRegistryTest, FloatAndTailClassesPickTheirOnlyKernels) {
  // Float pages and the tail never reach an integer kernel, whatever the
  // plan shape or datapath.
  PageClass fl = SealedIntClass(0, enc::ColumnEncoding::kGorillaValue);
  fl.is_float = true;
  PageClass tail;
  tail.sealed = false;
  PageClass float_tail = tail;
  float_tail.is_float = true;
  ForEachIsaMode([&](bool) {
    for (const PlanContext& ctx : {AggCtx(), FilteredCtx(), SelectCtx()}) {
      EXPECT_EQ(LabelOf(fl, ctx), "xor.float");
      EXPECT_EQ(LabelOf(tail, ctx), "tail.scalar");
      EXPECT_EQ(LabelOf(float_tail, ctx), "tail.scalar");
    }
  });
}

TEST(SchedulerRegistryTest, NoteDecisionOutcomeCountsMispredictions) {
  ScheduleDecision d = Schedule(SealedIntClass(8), AggCtx());
  ExecStats stats;
  uint64_t in_band = static_cast<uint64_t>(d.predicted_ns_per_tuple * 8192);
  NoteDecisionOutcome(d, 8192, in_band, &stats);
  EXPECT_EQ(stats.mispredictions, 0u);
  // 10x the prediction on a large job is a misprediction...
  NoteDecisionOutcome(d, 8192, in_band * 10, &stats);
  EXPECT_EQ(stats.mispredictions, 1u);
  // ...but tiny jobs stay under the noise floor.
  NoteDecisionOutcome(d, 100, in_band * 10, &stats);
  EXPECT_EQ(stats.mispredictions, 1u);
  const SchedDecisionStats& s = stats.scheduler.at(d.class_key);
  EXPECT_EQ(s.jobs, 3u);
  EXPECT_EQ(s.tuples, 8192u + 8192u + 100u);
  EXPECT_EQ(s.entry, d.label);
}

// ---------------------------------- Static picks and the kernels they run

/// What a kernel decision changes at run time: the strategy the jobs run
/// (fusion follows from kEtsqp), the prediction EXPLAIN compares against,
/// and (merge classes only) the merge datapath.
struct Execution {
  DecodeStrategy strategy = DecodeStrategy::kEtsqp;
  double ns_per_tuple = 0;
  simd::MergeIsa merge_isa = simd::MergeIsa::kScalar;
};

/// The static Proposition 1 choice written out candidate by candidate,
/// independently of how Schedule() groups its candidates: the cheapest
/// feasible execution, cost ties broken by the higher rank. FLMM1024 tiles
/// are not listed: they cost 1.05x the AVX2 transposed decode under the
/// same feasibility, so they never win.
Execution ReferencePick(const PageClass& cls, const PlanContext& ctx) {
  struct Candidate {
    bool feasible;
    int rank;
    Execution exec;
  };
  const CostConstants c;
  CostConstants wide = c;
  wide.simd_bits = 512;
  const bool avx2 = UseAvx2();
  const bool avx512 = avx2 && simd::Avx512Available();
  const bool int_sealed = cls.sealed && !cls.is_float && !cls.merge;
  const enc::ColumnEncoding venc = cls.value_encoding;
  const int w = std::max(cls.width_bucket, 1);
  const int wt = std::min(w, 25);
  const double serial =
      2.0 * c.t_vis_mem + c.t_shift + c.t_and + c.t_op + c.t_reg_save;
  const double transposed =
      w > 25 ? 0.8 * serial
             : AverageDecodeTime(w, 32, OptimalNv(w), c) + c.t_add / 8.0;
  const bool fusable_func =
      ctx.func == AggFunc::kSum || ctx.func == AggFunc::kAvg ||
      ctx.func == AggFunc::kCount ||
      (ctx.func == AggFunc::kVariance &&
       venc == enc::ColumnEncoding::kDeltaRle);
  const bool fused_ok =
      int_sealed && ctx.aggregate && !ctx.value_filter && fusable_func &&
      (venc == enc::ColumnEncoding::kTs2Diff
           ? cls.width_bucket <= 25
           : venc == enc::ColumnEncoding::kDeltaRle);
  // The merge kernels run scalar two-pointer steps in blocks of 16 on
  // every datapath: one scalar step per tuple.
  const double merge_step = c.t_vis_mem + c.t_op + c.t_add;
  using simd::MergeIsa;
  const DecodeStrategy kE = DecodeStrategy::kEtsqp;
  const std::vector<Candidate> candidates = {
      {fused_ok, 100,
       {kE, 0.5 * AverageDecodeTime(wt, 32, OptimalNv(wt), c)}},
      {int_sealed && avx512 && cls.width_bucket <= 25, 90,
       {kE, AverageDecodeTime(w, 32, 2, wide) + c.t_add / 16.0}},
      {int_sealed && avx2, 80, {kE, transposed}},
      {int_sealed && avx2 && venc != enc::ColumnEncoding::kFastLanes, 60,
       {DecodeStrategy::kSboost,
        w > 32 ? serial : AverageDecodeTime(w, 32, 1, c) + c.t_add / 8.0}},
      {cls.sealed && cls.is_float && !cls.merge, 50,
       {kE, 2.0 * c.t_vis_mem + 2.0 * c.t_op}},
      {!cls.sealed, 40, {kE, c.t_vis_mem + c.t_op + c.t_add}},
      {int_sealed, 10, {DecodeStrategy::kSerial, serial}},
      {cls.merge && avx512, 88, {kE, merge_step, MergeIsa::kAvx512}},
      {cls.merge && avx2, 86, {kE, merge_step, MergeIsa::kAvx2}},
      {cls.merge, 12, {DecodeStrategy::kSerial, merge_step, MergeIsa::kScalar}},
  };
  const Candidate* best = nullptr;
  for (const Candidate& k : candidates) {
    if (!k.feasible) continue;
    if (best == nullptr || k.exec.ns_per_tuple < best->exec.ns_per_tuple ||
        (k.exec.ns_per_tuple == best->exec.ns_per_tuple &&
         k.rank > best->rank)) {
      best = &k;
    }
  }
  EXPECT_NE(best, nullptr) << cls.Key();
  return best == nullptr ? Execution{} : best->exec;
}

/// One (page class, plan shape) point of the equivalence grid.
struct GridCase {
  PageClass cls;
  PlanContext ctx;
  std::string label;
};

/// Every value encoding x every width bucket x the plan shapes the planner
/// produces x {sealed, tail, float}, plus 2- and 8-way merge classes.
std::vector<GridCase> ScheduleGrid() {
  struct Shape {
    const char* name;
    PlanContext ctx;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"sum", AggCtx()});
  PlanContext filtered = AggCtx();
  filtered.value_filter = true;
  shapes.push_back({"filtered-sum", filtered});
  PlanContext select = AggCtx();
  select.aggregate = false;
  shapes.push_back({"select", select});
  PlanContext var = AggCtx();
  var.func = AggFunc::kVariance;
  shapes.push_back({"var", var});
  PlanContext min = AggCtx();
  min.func = AggFunc::kMin;
  shapes.push_back({"min", min});

  std::vector<GridCase> grid;
  for (enc::ColumnEncoding e : PageEncodings(/*time_column=*/false)) {
    for (int w : {0, 1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 25, 32, 64}) {
      for (const Shape& s : shapes) {
        for (const char* state : {"sealed", "tail", "float"}) {
          PageClass cls = SealedIntClass(w, e);
          cls.sealed = std::string(state) != "tail";
          cls.is_float = std::string(state) == "float";
          grid.push_back({cls, s.ctx,
                          cls.Key() + "/" + state + "/w" + std::to_string(w) +
                              "/" + s.name});
        }
      }
    }
  }
  for (const Shape& s : shapes) {
    grid.push_back({ClassifyMerge(), s.ctx, std::string("merge/2/") + s.name});
  }
  return grid;
}

TEST(SchedulerRegistryTest, StaticPicksRunTheSameKernels) {
  ForEachIsaMode([](bool simd_disabled) {
    for (const GridCase& g : ScheduleGrid()) {
      SCOPED_TRACE(g.label + (simd_disabled ? " (SIMD off)" : " (native)"));
      ScheduleDecision d = Schedule(g.cls, g.ctx);
      ASSERT_NE(d.label, nullptr);
      EXPECT_EQ(d.class_key, g.cls.Key());
      const Execution want = ReferencePick(g.cls, g.ctx);
      EXPECT_EQ(d.strategy, want.strategy);
      EXPECT_DOUBLE_EQ(d.predicted_ns_per_tuple, want.ns_per_tuple);
      if (g.cls.merge) {
        EXPECT_EQ(MergeIsaFor(d.strategy), want.merge_isa);
      }
    }
  });
}

TEST(SchedulerRegistryTest, EveryEntryIsPickedSomewhere) {
  // A kernel stays only if it wins somewhere: each label is the static pick
  // for some grid point, natively or with SIMD disabled.
  std::set<std::string> picked;
  ForEachIsaMode([&picked](bool) {
    for (const GridCase& g : ScheduleGrid()) {
      picked.insert(LabelOf(g.cls, g.ctx));
    }
  });
  const std::set<std::string> labels = {
      "etsqp.fused", "etsqp.transposed", "sboost.linear", "serial.scalar",
      "xor.float",   "tail.scalar",      "etsqp.merge"};
  EXPECT_EQ(picked, labels);
}

// ------------------------------------------------------ EXPLAIN surfaces

TEST(SchedulerExplainTest, ExplainShowsChosenEntryPerPageClass) {
  storage::SeriesStore store;
  storage::SeriesStore::SeriesOptions opt;
  opt.page_size = 1024;
  ASSERT_TRUE(store.CreateSeries("ts", opt).ok());
  std::vector<int64_t> times(4096), values(4096);
  for (int i = 0; i < 4096; ++i) {
    times[i] = i;
    values[i] = 100 + (i % 50);
  }
  ASSERT_TRUE(store.AppendBatch("ts", times.data(), values.data(), 4096).ok());
  ASSERT_TRUE(store.Flush().ok());

  Engine engine(PipelineOptions::Etsqp(2));
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  plan.explain = LogicalPlan::ExplainMode::kPlan;
  Result<QueryResult> r = engine.Execute(plan, store);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& text = r.value().explain_text;
  EXPECT_NE(text.find("sched TS2DIFF/w"), std::string::npos) << text;
  EXPECT_NE(text.find("entry=etsqp.fused"), std::string::npos) << text;
  EXPECT_NE(text.find("est="), std::string::npos) << text;

  plan.explain = LogicalPlan::ExplainMode::kAnalyze;
  Result<QueryResult> a = engine.Execute(plan, store);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  const std::string& atext = a.value().explain_text;
  EXPECT_NE(atext.find("scheduler: mispredictions="), std::string::npos)
      << atext;
  EXPECT_NE(atext.find("meas="), std::string::npos) << atext;
  EXPECT_GT(a.value().stats.scheduler.size(), 0u);
}

TEST(SchedulerExplainTest, PinnedStrategyBypassesRegistry) {
  // A pinned baseline strategy skips Schedule(): no kernel decisions.
  storage::SeriesStore store;
  ASSERT_TRUE(
      store.CreateSeries("ts", storage::SeriesStore::SeriesOptions{}).ok());
  std::vector<int64_t> times(2048), values(2048);
  for (int i = 0; i < 2048; ++i) {
    times[i] = i;
    values[i] = i % 7;
  }
  ASSERT_TRUE(store.AppendBatch("ts", times.data(), values.data(), 2048).ok());
  ASSERT_TRUE(store.Flush().ok());

  Engine engine(PipelineOptions::Serial());
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  plan.explain = LogicalPlan::ExplainMode::kPlan;
  Result<QueryResult> r = engine.Execute(plan, store);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // A baseline strategy is a pin: no kernel decisions in the plan.
  EXPECT_EQ(r.value().explain_text.find("sched "), std::string::npos)
      << r.value().explain_text;
}

/// Four sealed 4096-point pages of `name`, times from 0 in steps of 1.
void FillSeries(storage::SeriesStore* store, const std::string& name) {
  ASSERT_TRUE(
      store->CreateSeries(name, storage::SeriesStore::SeriesOptions{}).ok());
  std::vector<int64_t> times(4 * 4096), values(4 * 4096);
  for (size_t i = 0; i < times.size(); ++i) {
    times[i] = static_cast<int64_t>(i);
    values[i] = static_cast<int64_t>(i % 91) - 45;
  }
  ASSERT_TRUE(
      store->AppendBatch(name, times.data(), values.data(), times.size())
          .ok());
  ASSERT_TRUE(store->Flush().ok());
}

TEST(SchedulerExplainTest, MergeDecisionCoversSurvivingTuples) {
  // The merge stage sees the tuples of the pages that survive pruning,
  // not every page of both inputs.
  storage::SeriesStore store;
  FillSeries(&store, "a");
  FillSeries(&store, "b");
  LogicalPlan plan;
  plan.kind = LogicalPlan::Kind::kJoin;
  plan.series = "a";
  plan.series_right = "b";
  const PipelineOptions options = PipelineOptions::EtsqpPrune(1);

  plan.time_filter.hi = -1;  // every page pruned
  Result<PipelineSpec> none = BuildPipeline(plan, store, options);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  ASSERT_GE(none.value().merge_decision, 0);
  EXPECT_EQ(none.value().plan_stats.pages_pruned, 8u);
  EXPECT_EQ(none.value().decisions[none.value().merge_decision].tuples, 0u);

  plan.time_filter.hi = 5000;  // two pages of each input survive
  Result<PipelineSpec> some = BuildPipeline(plan, store, options);
  ASSERT_TRUE(some.ok()) << some.status().ToString();
  uint64_t surviving = 0;
  for (const PipeJob& job : some.value().jobs) surviving += job.end - job.begin;
  EXPECT_EQ(surviving, 4u * 4096);
  EXPECT_EQ(some.value().decisions[some.value().merge_decision].tuples,
            surviving);

  plan.explain = LogicalPlan::ExplainMode::kPlan;
  plan.time_filter.hi = -1;
  Result<QueryResult> r = Engine(options).Execute(plan, store);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& text = r.value().explain_text;
  EXPECT_NE(text.find("0/8 pages after pruning"), std::string::npos) << text;
  EXPECT_NE(text.find("sched merge/2way: entry=etsqp.merge"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pages=0 tuples=0"), std::string::npos) << text;
}

TEST(SchedulerExplainTest, UnfilteredCountIsNeverAMisprediction) {
  // EXPLAIN ANALYZE of an unfiltered COUNT: its jobs run, are recorded
  // against their decision, and never count as mispredictions, plain or
  // windowed.
  storage::SeriesStore store;
  FillSeries(&store, "ts");
  for (bool windowed : {false, true}) {
    LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kCount);
    plan.explain = LogicalPlan::ExplainMode::kAnalyze;
    plan.window.active = windowed;
    plan.window.delta_t = 1000;
    Result<QueryResult> r =
        Engine(PipelineOptions::EtsqpPrune(1)).Execute(plan, store);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const ExecStats& stats = r.value().stats;
    EXPECT_EQ(stats.mispredictions, 0u) << r.value().explain_text;
    ASSERT_EQ(stats.scheduler.size(), 1u) << r.value().explain_text;
    EXPECT_EQ(stats.scheduler.begin()->second.entry, "etsqp.fused");
    EXPECT_EQ(stats.scheduler.begin()->second.jobs, 4u);
    EXPECT_NE(r.value().explain_text.find("mispredictions=0"),
              std::string::npos)
        << r.value().explain_text;
  }
}

}  // namespace
}  // namespace etsqp::exec
