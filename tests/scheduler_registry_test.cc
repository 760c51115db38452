// Tests for the kernel-strategy SchedulerRegistry (exec/scheduler_registry.h):
// page classification, every entry's CanSchedule contract, deterministic
// registry selection, the calibration cache round-trip (save / load /
// corrupt-fallback), and the EXPLAIN surfaces of scheduler decisions.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "exec/engine.h"
#include "exec/scheduler_registry.h"
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
  // The calibration sweep keys must match planner keys: a page built from
  // the same data classified twice gives the identical key.
  storage::Page page = MakePage(enc::ColumnEncoding::kTs2Diff, 100, 4096);
  EXPECT_EQ(ClassifyPage(page.header).Key(), ClassifyPage(page.header).Key());
}

// ------------------------------------------------ CanSchedule contracts

PlanContext AggCtx() {
  PlanContext ctx;
  ctx.aggregate = true;
  ctx.func = AggFunc::kSum;
  ctx.fusion = true;
  return ctx;
}

const SchedulerEntry* Entry(const char* name) {
  const SchedulerEntry* e = SchedulerRegistry::Global().Find(name);
  EXPECT_NE(e, nullptr) << name;
  return e;
}

TEST(SchedulerEntryTest, FusedRequiresFusableAggregateShape) {
  const SchedulerEntry* fused = Entry("etsqp.fused");
  PlanContext ctx = AggCtx();
  EXPECT_TRUE(fused->CanSchedule(SealedIntClass(8), ctx));

  PlanContext no_fusion = ctx;
  no_fusion.fusion = false;
  EXPECT_FALSE(fused->CanSchedule(SealedIntClass(8), no_fusion));

  PlanContext filtered = ctx;
  filtered.value_filter = true;  // AggValues rejects fusion under a filter
  EXPECT_FALSE(fused->CanSchedule(SealedIntClass(8), filtered));

  PlanContext decode = ctx;
  decode.aggregate = false;
  EXPECT_FALSE(fused->CanSchedule(SealedIntClass(8), decode));

  // VAR is only fusable over Delta-RLE (closed-form sum of squares).
  PlanContext var = ctx;
  var.func = AggFunc::kVariance;
  EXPECT_FALSE(fused->CanSchedule(SealedIntClass(8), var));
  EXPECT_TRUE(fused->CanSchedule(
      SealedIntClass(8, enc::ColumnEncoding::kDeltaRle), var));

  // MIN decodes every value: no fused reader.
  PlanContext min = ctx;
  min.func = AggFunc::kMin;
  EXPECT_FALSE(fused->CanSchedule(SealedIntClass(8), min));

  // Past the transposed width domain the TS2DIFF fused reader is out.
  EXPECT_FALSE(fused->CanSchedule(SealedIntClass(32), ctx));
}

TEST(SchedulerEntryTest, IntKernelsRejectFloatAndTailClasses) {
  PlanContext ctx = AggCtx();
  PageClass fl = SealedIntClass(0, enc::ColumnEncoding::kGorillaValue);
  fl.is_float = true;
  PageClass tail;
  tail.sealed = false;
  for (const char* name :
       {"etsqp.fused", "etsqp.avx512", "etsqp.avx2", "fastlanes.flmm",
        "sboost.linear", "serial.scalar"}) {
    const SchedulerEntry* e = Entry(name);
    EXPECT_FALSE(e->CanSchedule(fl, ctx)) << name;
    EXPECT_FALSE(e->CanSchedule(tail, ctx)) << name;
  }
}

TEST(SchedulerEntryTest, FastLanesOnlySchedulesItsOwnLayout) {
  const SchedulerEntry* fl = Entry("fastlanes.flmm");
  const SchedulerEntry* sboost = Entry("sboost.linear");
  PlanContext ctx = AggCtx();
  PageClass flmm = SealedIntClass(8, enc::ColumnEncoding::kFastLanes);
  if (UseAvx2()) {
    EXPECT_TRUE(fl->CanSchedule(flmm, ctx));
  }
  EXPECT_FALSE(fl->CanSchedule(SealedIntClass(8), ctx));
  // SBoost reads every layout except the FLMM1024 tiles.
  EXPECT_FALSE(sboost->CanSchedule(flmm, ctx));
}

TEST(SchedulerEntryTest, FloatAndTailHaveDedicatedEntries) {
  PlanContext ctx = AggCtx();
  PageClass fl = SealedIntClass(0, enc::ColumnEncoding::kGorillaValue);
  fl.is_float = true;
  PageClass tail;
  tail.sealed = false;
  EXPECT_TRUE(Entry("xor.float")->CanSchedule(fl, ctx));
  EXPECT_FALSE(Entry("xor.float")->CanSchedule(SealedIntClass(8), ctx));
  EXPECT_FALSE(Entry("xor.float")->CanSchedule(tail, ctx));
  EXPECT_TRUE(Entry("tail.scalar")->CanSchedule(tail, ctx));
  EXPECT_FALSE(Entry("tail.scalar")->CanSchedule(SealedIntClass(8), ctx));
}

TEST(SchedulerEntryTest, EveryClassHasAtLeastOneFeasibleEntry) {
  // The registry must never strand a page: serial.scalar covers any sealed
  // class, tail.scalar any unsealed one, xor.float sealed floats.
  PlanContext ctx = AggCtx();
  ctx.value_filter = true;  // hardest shape: fusion ruled out
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
  for (const PageClass& cls : classes) {
    bool any = false;
    for (const auto& e : SchedulerRegistry::Global().entries()) {
      any = any || e->CanSchedule(cls, ctx);
    }
    EXPECT_TRUE(any) << cls.Key();
    ScheduleDecision d = SchedulerRegistry::Global().Propose(
        cls, ctx, nullptr, CostConstants{});
    ASSERT_NE(d.entry, nullptr) << cls.Key();
    EXPECT_GT(d.predicted_ns_per_tuple, 0) << cls.Key();
  }
}

// ---------------------------------------------------- Registry proposals

TEST(SchedulerRegistryTest, SelectionIsDeterministicPerClass) {
  PlanContext ctx = AggCtx();
  for (int w : {2, 8, 20, 32, 64}) {
    ScheduleDecision a = SchedulerRegistry::Global().Propose(
        SealedIntClass(w), ctx, nullptr, CostConstants{});
    ScheduleDecision b = SchedulerRegistry::Global().Propose(
        SealedIntClass(w), ctx, nullptr, CostConstants{});
    ASSERT_NE(a.entry, nullptr);
    EXPECT_EQ(a.entry, b.entry) << w;
    EXPECT_EQ(a.params.ToString(), b.params.ToString());
    EXPECT_EQ(a.predicted_ns_per_tuple, b.predicted_ns_per_tuple);
    EXPECT_FALSE(a.calibrated);
  }
}

TEST(SchedulerRegistryTest, StaticModelPrefersFusedForFusableAggregates) {
  ScheduleDecision d = SchedulerRegistry::Global().Propose(
      SealedIntClass(8), AggCtx(), nullptr, CostConstants{});
  ASSERT_NE(d.entry, nullptr);
  EXPECT_STREQ(d.entry->name(), "etsqp.fused");
  EXPECT_TRUE(d.params.fusion);
  EXPECT_EQ(d.params.strategy, DecodeStrategy::kEtsqp);
}

TEST(SchedulerRegistryTest, FilteredPlansFallBackToUnfusedDecode) {
  PlanContext ctx = AggCtx();
  ctx.value_filter = true;
  ScheduleDecision d = SchedulerRegistry::Global().Propose(
      SealedIntClass(8), ctx, nullptr, CostConstants{});
  ASSERT_NE(d.entry, nullptr);
  EXPECT_STRNE(d.entry->name(), "etsqp.fused");
  EXPECT_EQ(d.params.strategy, DecodeStrategy::kEtsqp);
}

TEST(SchedulerRegistryTest, FloatAndTailClassesPickTheirOnlyKernels) {
  PageClass fl = SealedIntClass(0, enc::ColumnEncoding::kGorillaValue);
  fl.is_float = true;
  ScheduleDecision df = SchedulerRegistry::Global().Propose(
      fl, AggCtx(), nullptr, CostConstants{});
  ASSERT_NE(df.entry, nullptr);
  EXPECT_STREQ(df.entry->name(), "xor.float");

  PageClass tail;
  tail.sealed = false;
  ScheduleDecision dt = SchedulerRegistry::Global().Propose(
      tail, AggCtx(), nullptr, CostConstants{});
  ASSERT_NE(dt.entry, nullptr);
  EXPECT_STREQ(dt.entry->name(), "tail.scalar");
}

TEST(SchedulerRegistryTest, CalibrationOverridesStaticOrdering) {
  // A cache that prices serial.scalar at ~0 must beat every static
  // prediction — selection follows the measured numbers, not the model.
  CostCalibration cal;
  PageClass cls = SealedIntClass(8);
  cal.Set("serial.scalar", cls.Key(), 0.01);
  ScheduleDecision d = SchedulerRegistry::Global().Propose(
      cls, AggCtx(), &cal, CostConstants{});
  ASSERT_NE(d.entry, nullptr);
  EXPECT_STREQ(d.entry->name(), "serial.scalar");
  EXPECT_TRUE(d.calibrated);
  EXPECT_DOUBLE_EQ(d.predicted_ns_per_tuple, 0.01);
}

TEST(SchedulerRegistryTest, ApplyDecisionKeepsUserPinnedVectors) {
  ScheduleDecision d = SchedulerRegistry::Global().Propose(
      SealedIntClass(8), AggCtx(), nullptr, CostConstants{});
  ASSERT_NE(d.entry, nullptr);
  PipelineOptions base = PipelineOptions::Etsqp(4).WithVectors(3);
  PipelineOptions applied = ApplyDecision(base, d);
  EXPECT_EQ(applied.n_v, 3);  // user pin survives
  EXPECT_EQ(applied.strategy, d.params.strategy);
  EXPECT_EQ(applied.threads, 4);
  PipelineOptions auto_nv = ApplyDecision(PipelineOptions::Etsqp(1), d);
  EXPECT_EQ(auto_nv.n_v, 0);  // kernels keep the per-block Prop 1 default
}

TEST(SchedulerRegistryTest, NoteDecisionOutcomeCountsMispredictions) {
  ScheduleDecision d = SchedulerRegistry::Global().Propose(
      SealedIntClass(8), AggCtx(), nullptr, CostConstants{});
  ASSERT_NE(d.entry, nullptr);
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
  EXPECT_EQ(s.entry, d.entry->name());
}

// -------------------------------------------------- Calibration cache IO

TEST(CostCalibrationTest, SaveLoadRoundTrip) {
  std::string path = ::testing::TempDir() + "/etsqp_roundtrip.calib";
  CostCalibration cal;
  cal.Set("etsqp.avx2", "TS2DIFF/w8", 0.625);
  cal.Set("serial.scalar", "TS2DIFF/w8", 6.5);
  cal.Set("xor.float", "GORILLA_VALUE/f64", 3.25);
  ASSERT_TRUE(cal.SaveToFile(path).ok());

  Result<CostCalibration> loaded = CostCalibration::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), 3u);
  double ns = 0;
  EXPECT_TRUE(loaded.value().Lookup("etsqp.avx2", "TS2DIFF/w8", &ns));
  EXPECT_DOUBLE_EQ(ns, 0.625);
  EXPECT_TRUE(loaded.value().Lookup("xor.float", "GORILLA_VALUE/f64", &ns));
  EXPECT_DOUBLE_EQ(ns, 3.25);
  EXPECT_FALSE(loaded.value().Lookup("etsqp.avx2", "TS2DIFF/w16", &ns));
  std::remove(path.c_str());
}

// Calibration files written before the pruning index lost its leaf level
// still carry rows for the removed prune-scan entries (class key "prune").
// They must load (no Corruption), and no registry decision may read them:
// no entry or page class answers to those keys any more, so every proposal
// matches the file without them.
TEST(CostCalibrationTest, LegacyPruneRowsLoadAndAreNeverRead) {
  std::string path = ::testing::TempDir() + "/etsqp_legacy_prune.calib";
  const std::string legacy_prefix = std::string("etsqp.") + "prune.";
  CostCalibration current;
  current.Set("etsqp.avx2", "TS2DIFF/w8", 0.625);
  current.Set("serial.scalar", "TS2DIFF/w8", 6.5);
  current.Set("etsqp.merge.scalar", "merge/2way", 1.5);
  CostCalibration legacy = current;
  for (const char* isa : {"avx512", "avx2", "scalar"}) {
    legacy.Set(legacy_prefix + isa, "prune", 1e-6);  // would win any class
  }
  ASSERT_TRUE(legacy.SaveToFile(path).ok());
  Result<CostCalibration> loaded = CostCalibration::LoadFromFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), current.size() + 3);

  for (const auto& e : SchedulerRegistry::Global().entries()) {
    EXPECT_NE(std::string(e->name()).rfind(legacy_prefix, 0), 0u)
        << e->name();
  }
  PageClass fl = SealedIntClass(0, enc::ColumnEncoding::kGorillaValue);
  fl.is_float = true;
  PageClass tail;
  tail.sealed = false;
  std::vector<PageClass> classes = {
      SealedIntClass(1), SealedIntClass(8),
      SealedIntClass(8, enc::ColumnEncoding::kFastLanes),
      fl, tail, ClassifyMerge(2), ClassifyMerge(8)};
  for (bool filtered : {false, true}) {
    PlanContext ctx = AggCtx();
    ctx.value_filter = filtered;
    for (const PageClass& cls : classes) {
      EXPECT_NE(cls.Key(), "prune");
      ScheduleDecision with = SchedulerRegistry::Global().Propose(
          cls, ctx, &loaded.value(), CostConstants{});
      ScheduleDecision without = SchedulerRegistry::Global().Propose(
          cls, ctx, &current, CostConstants{});
      ASSERT_NE(with.entry, nullptr) << cls.Key();
      EXPECT_EQ(with.entry, without.entry) << cls.Key();
      EXPECT_EQ(with.predicted_ns_per_tuple, without.predicted_ns_per_tuple)
          << cls.Key();
      EXPECT_EQ(with.calibrated, without.calibrated) << cls.Key();
    }
  }

  // A fresh sweep no longer times a prune class.
  const CostCalibration measured = CostCalibration::Measure();
  for (const auto& [key, ns] : measured.costs()) {
    EXPECT_EQ(key.find("prune"), std::string::npos) << key;
  }
}

TEST(CostCalibrationTest, MissingFileIsNotFound) {
  Result<CostCalibration> r =
      CostCalibration::LoadFromFile(::testing::TempDir() + "/nope.calib");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CostCalibrationTest, CorruptFileFailsAndFallbackStillSchedules) {
  std::string path = ::testing::TempDir() + "/etsqp_corrupt.calib";
  CostCalibration cal;
  cal.Set("etsqp.avx2", "TS2DIFF/w8", 1.0);
  ASSERT_TRUE(cal.SaveToFile(path).ok());

  // Flip one payload byte: the CRC must catch it.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 20, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, 20, SEEK_SET);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
  Result<CostCalibration> r = CostCalibration::LoadFromFile(path);
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);

  // The registry still proposes from CostConstants with no cache at all.
  ScheduleDecision d = SchedulerRegistry::Global().Propose(
      SealedIntClass(8), AggCtx(), nullptr, CostConstants{});
  EXPECT_NE(d.entry, nullptr);
  EXPECT_FALSE(d.calibrated);
  std::remove(path.c_str());
}

TEST(CostCalibrationTest, TruncatedAndBadMagicFilesAreCorruption) {
  std::string path = ::testing::TempDir() + "/etsqp_trunc.calib";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("ETSQPCA", 1, 7, f);  // shorter than any valid header
  std::fclose(f);
  EXPECT_EQ(CostCalibration::LoadFromFile(path).status().code(),
            StatusCode::kCorruption);

  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("NOTACALIBRATIONFILE_____", 1, 24, f);
  std::fclose(f);
  EXPECT_EQ(CostCalibration::LoadFromFile(path).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(CostCalibrationTest, LoadOrMeasureSweepsOnceThenHitsTheCache) {
  std::string path = ::testing::TempDir() + "/etsqp_sweep.calib";
  std::remove(path.c_str());
  bool measured = false;
  Result<std::shared_ptr<const CostCalibration>> first =
      CostCalibration::LoadOrMeasure(path, &measured);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(measured);
  EXPECT_GT(first.value()->size(), 0u);
  // Every measured cost is a sane positive ns/tuple figure.
  for (const auto& [key, ns] : first.value()->costs()) {
    EXPECT_GT(ns, 0.0) << key;
    EXPECT_LT(ns, 1e6) << key;
  }

  Result<std::shared_ptr<const CostCalibration>> second =
      CostCalibration::LoadOrMeasure(path, &measured);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(measured);  // pure cache hit
  EXPECT_EQ(second.value()->size(), first.value()->size());
  std::remove(path.c_str());
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
  EXPECT_NE(text.find("(model)"), std::string::npos) << text;

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

  Engine engine(
      PipelineOptions::Etsqp(1).WithStrategy(DecodeStrategy::kSerial));
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  plan.explain = LogicalPlan::ExplainMode::kPlan;
  Result<QueryResult> r = engine.Execute(plan, store);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // WithStrategy is a pin: no registry lines in the plan.
  EXPECT_EQ(r.value().explain_text.find("sched "), std::string::npos)
      << r.value().explain_text;
}

}  // namespace
}  // namespace etsqp::exec
