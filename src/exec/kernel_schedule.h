#ifndef ETSQP_EXEC_KERNEL_SCHEDULE_H_
#define ETSQP_EXEC_KERNEL_SCHEDULE_H_

#include <string>

#include "exec/column_decoder.h"
#include "exec/expr.h"
#include "simd/merge_simd.h"
#include "storage/page.h"
#include "storage/series_store.h"

namespace etsqp::exec {

/// Kernel choice per page class: when a query runs the kEtsqp strategy,
/// Pipe classifies every page (and the tail, and the merge stage) and asks
/// Schedule() which kernel runs it — fused aggregation, Algorithm 1's
/// transposed decode, SBoost's linear layout, the scalar pipeline — instead
/// of running one strategy uniformly. The forced-strategy baselines
/// (Serial, SBoost, FastLanes) skip it.
///
/// Costs come from the paper's Proposition 1 instruction-count model
/// (exec/cost_model.h). The kernel ISA (AVX-512, AVX2, scalar) is not a
/// choice here: the kernels dispatch on CPU detection, and the candidates
/// that depend on it cost themselves for the host's datapath.

/// Plan-time bucket of one page (or of the unsealed tail): everything the
/// choice needs without touching the encoded payload.
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
  // The merge-stage class: not a page at all but the two-way timestamp
  // merge/intersection work of a binary/correlate/concat plan.
  bool merge = false;

  /// Stable cache/display key, e.g. "TS2DIFF/w8", "GORILLA_VALUE/f64",
  /// "tail", "tail/f64", "merge/2way".
  std::string Key() const;
};

/// Header-only page classification: everything a plan-time decision needs,
/// read from the page header without touching the payload.
PageClass ClassifyPage(const storage::PageHeader& header);
PageClass ClassifyTail(const storage::SeriesSnapshot& snap);

/// The merge stage of a plan combining its two sorted operand streams.
PageClass ClassifyMerge();

/// The merge-kernel datapath a job strategy runs: the scalar reference
/// kernels for kSerial, the host's best SIMD datapath otherwise.
simd::MergeIsa MergeIsaFor(DecodeStrategy strategy);

/// The plan-shape facts the choice reads.
struct PlanContext {
  bool aggregate = true;  // kAggregate (incl. sliding windows); else decode
  AggFunc func = AggFunc::kSum;
  bool value_filter = false;
};

PlanContext MakePlanContext(const LogicalPlan& plan);

/// The choice for one page class: the kernel's label, the strategy its jobs
/// run (fusion follows from kEtsqp, see FusedAggregate), and the static
/// prediction it won on, in ns per tuple (abstract clock units read as ns
/// at a 1 GHz reference — a rough ordering, not a measurement).
///
/// Labels: "etsqp.fused" (Section IV fused readers, and the positions-only
/// unfiltered COUNT, predicted at 0 and so never scored), "etsqp.transposed"
/// (Algorithm 1), "sboost.linear", "serial.scalar", "xor.float" (sealed
/// float pages), "tail.scalar" (the unsealed tail) and "etsqp.merge" (the
/// merge stage).
struct ScheduleDecision {
  std::string class_key;
  const char* label = nullptr;
  DecodeStrategy strategy = DecodeStrategy::kEtsqp;
  double predicted_ns_per_tuple = 0;
  // Planner bookkeeping for EXPLAIN (pages/tuples this decision covers).
  uint64_t pages = 0;
  uint64_t tuples = 0;
};

/// The cheapest feasible kernel for `cls` under the static model; cost ties
/// go to the earlier candidate in the order the labels are listed above.
/// Every class has one: serial.scalar, xor.float, tail.scalar and
/// etsqp.merge are always feasible for their classes.
ScheduleDecision Schedule(const PageClass& cls, const PlanContext& ctx);

/// Records one finished job against its decision into stats->scheduler
/// (predicted vs measured nanos, misprediction check). A misprediction is a
/// job whose measured cost falls outside [1/2, 2x] of the prediction, with
/// a minimum-tuples floor so noise-dominated micro-jobs don't count.
void NoteDecisionOutcome(const ScheduleDecision& d, uint64_t tuples,
                         uint64_t measured_nanos, ExecStats* stats);

}  // namespace etsqp::exec

#endif  // ETSQP_EXEC_KERNEL_SCHEDULE_H_
