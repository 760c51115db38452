#ifndef ETSQP_EXEC_SCHEDULER_REGISTRY_H_
#define ETSQP_EXEC_SCHEDULER_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/cost_model.h"
#include "exec/expr.h"
#include "exec/pipeline.h"
#include "simd/merge_simd.h"
#include "storage/page.h"
#include "storage/series_store.h"

namespace etsqp::exec {

/// Kernel-strategy scheduler registry: every distinct execution the engine
/// can select per page (fused aggregation, Algorithm 1's transposed decode,
/// SBoost's linear layout, the scalar pipelines, the merge stage) is a
/// registered SchedulerEntry, and Pipe asks the registry which entry to run
/// per *page class* at plan time instead of switching on a hand-set enum.
///
/// Costs come from the paper's Proposition 1 instruction-count model
/// (exec/cost_model.h). The kernel ISA (AVX-512, AVX2, scalar) is not a
/// registry choice: the kernels dispatch on CPU detection, and the entries
/// that depend on it cost themselves for the host's datapath.

/// Plan-time bucket of one page (or of the unsealed tail): everything the
/// registry needs to choose a kernel without touching the encoded payload.
/// The width bucket is derived from the header as average encoded bits per
/// value (value_bytes * 8 / count, block framing included) rounded up to a
/// fixed grid — the packing width itself is not in the header, but average
/// encoded density is what drives decode cost.
struct PageClass {
  enc::ColumnEncoding value_encoding = enc::ColumnEncoding::kTs2Diff;
  enc::ColumnEncoding time_encoding = enc::ColumnEncoding::kTs2Diff;
  int width_bucket = 0;  // 0 for float columns (XOR streams have no width)
  bool sealed = true;    // false = unsealed in-memory tail
  bool is_float = false;
  // Merge-stage classes: not a page at all but the N-way timestamp
  // merge/intersection work of a binary/correlate/concat plan. Only the
  // etsqp.merge entry schedules these.
  bool merge = false;
  int merge_ways = 0;

  /// Stable cache/display key, e.g. "TS2DIFF/w8", "GORILLA_VALUE/f64",
  /// "tail", "tail/f64", "merge/2way".
  std::string Key() const;
};

/// Header-only page classification: everything a plan-time decision needs,
/// read from the page header without touching the payload.
PageClass ClassifyPage(const storage::PageHeader& header);
PageClass ClassifyTail(const storage::SeriesSnapshot& snap);

/// The merge stage of a plan combining `ways` sorted operand streams.
PageClass ClassifyMerge(int ways);

/// The merge-kernel datapath a job strategy runs: the scalar reference
/// kernels for kSerial, the host's best SIMD datapath otherwise.
simd::MergeIsa MergeIsaFor(DecodeStrategy strategy);

/// The plan-shape facts entries gate on.
struct PlanContext {
  bool aggregate = true;  // kAggregate (incl. sliding windows); else decode
  AggFunc func = AggFunc::kSum;
  bool value_filter = false;
  bool fusion = true;  // options.fusion (operator fusion permitted)
};

PlanContext MakePlanContext(const LogicalPlan& plan,
                            const PipelineOptions& options);

/// The heuristic parameters a chosen entry runs with. `n_v` is the
/// Proposition 1 default for the class's width bucket — it parameterizes the
/// cost prediction and EXPLAIN output; the transposed kernels still apply
/// the per-block Prop 1 default at decode time (blocks within a page can
/// pack narrower than the page average), unless the user pinned n_v.
struct HeuristicParams {
  DecodeStrategy strategy = DecodeStrategy::kEtsqp;
  int n_v = 0;
  bool fusion = false;      // fused aggregation (Section IV) engaged
  bool transposed = false;  // transposed layout vs linear/natural order

  std::string ToString() const;  // "n_v=6 transposed fused"
};

/// One registered kernel strategy (nvfuser-style scheduler entry): a stable
/// name, a feasibility predicate over (page class, plan shape), the
/// heuristic params it would run with, and a static cost prediction from
/// the Proposition 1 constants. Entries are stateless and process-global.
class SchedulerEntry {
 public:
  virtual ~SchedulerEntry() = default;

  virtual const char* name() const = 0;
  /// Tie-break when predicted costs are equal: higher priority wins.
  virtual int priority() const = 0;
  virtual bool CanSchedule(const PageClass& cls,
                           const PlanContext& ctx) const = 0;
  virtual HeuristicParams Params(const PageClass& cls,
                                 const PlanContext& ctx) const = 0;
  /// Predicted cost in ns per tuple from the static instruction-count model
  /// (abstract clock units read as ns at a 1 GHz reference — a rough
  /// ordering, not a measurement).
  virtual double PredictCost(const PageClass& cls, const PlanContext& ctx,
                             const CostConstants& c) const = 0;
};

/// The registry's answer for one page class: which entry, its params, and
/// the predicted cost that won the comparison.
struct ScheduleDecision {
  std::string class_key;
  const SchedulerEntry* entry = nullptr;
  HeuristicParams params;
  double predicted_ns_per_tuple = 0;
  // Planner bookkeeping for EXPLAIN (pages/tuples this decision covers).
  uint64_t pages = 0;
  uint64_t tuples = 0;
};

/// Process-global entry catalog. Propose() returns the feasible entry with
/// the lowest static prediction for a page class; cost ties break by
/// priority.
class SchedulerRegistry {
 public:
  static const SchedulerRegistry& Global();

  const std::vector<std::unique_ptr<SchedulerEntry>>& entries() const {
    return entries_;
  }
  const SchedulerEntry* Find(const std::string& name) const;

  ScheduleDecision Propose(const PageClass& cls,
                           const PlanContext& ctx) const;

 private:
  SchedulerRegistry();
  std::vector<std::unique_ptr<SchedulerEntry>> entries_;
};

/// Per-job options realizing a decision: strategy and fusion come from the
/// chosen entry's params; a user-pinned n_v (> 0) is honored, otherwise the
/// kernels keep their per-block Prop 1 default.
PipelineOptions ApplyDecision(const PipelineOptions& base,
                              const ScheduleDecision& d);

/// Records one finished job against its decision into stats->scheduler
/// (predicted vs measured nanos, misprediction check). A misprediction is a
/// job whose measured cost falls outside [1/2, 2x] of the prediction, with
/// a minimum-tuples floor so noise-dominated micro-jobs don't count.
void NoteDecisionOutcome(const ScheduleDecision& d, uint64_t tuples,
                         uint64_t measured_nanos, ExecStats* stats);

}  // namespace etsqp::exec

#endif  // ETSQP_EXEC_SCHEDULER_REGISTRY_H_
