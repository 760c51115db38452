#ifndef ETSQP_EXEC_ENGINE_H_
#define ETSQP_EXEC_ENGINE_H_

#include <string>
#include <utility>

#include "common/status.h"
#include "exec/expr.h"
#include "exec/pipe_builder.h"
#include "exec/pipeline.h"
#include "storage/buffer_manager.h"
#include "storage/series_store.h"

namespace etsqp::exec {

/// The input a query runs against: a SnapshotResolver mapping each input
/// series to a snapshot on whatever store owns it. Implicitly constructible
/// from an in-memory SeriesStore, a file-backed store (Section VI-C's
/// gradual page loading) or a resolver (the db layer's sharded path), so
/// `engine.Execute(plan, store)` reads the same either way; the stores are
/// only adapted into resolvers and must outlive the call.
class StoreHandle {
 public:
  StoreHandle(const storage::SeriesStore& store)  // NOLINT(runtime/explicit)
      : resolver_([&store](const std::string& name) {
          return store.GetSnapshot(name);
        }) {}
  StoreHandle(storage::FileBackedStore* store)  // NOLINT(runtime/explicit)
      : StoreHandle(*store) {}
  StoreHandle(storage::FileBackedStore& store)  // NOLINT(runtime/explicit)
      : resolver_([&store](const std::string& name) {
          return store.GetSnapshot(name);
        }) {}
  StoreHandle(SnapshotResolver resolver)  // NOLINT(runtime/explicit)
      : resolver_(std::move(resolver)) {}

  /// Snapshot of `name` from whichever store owns it.
  Result<storage::SeriesSnapshot> Snapshot(const std::string& name) const {
    if (!resolver_) return Status::Internal("null store handle");
    return resolver_(name);
  }

 private:
  SnapshotResolver resolver_;
};

/// The ETSQP query engine facade: compiles a logical plan with Pipe
/// (Algorithm 2), runs the decoding/aggregation pipelines on the job
/// scheduler, and merges partial results (Figure 9's merge nodes).
///
/// The evaluation baselines (Section VII-A) are configurations of this
/// engine:
///   ETSQP        PipelineOptions::Etsqp(threads): kernel per page class
///                from Schedule(), fusion wherever it applies
///   ETSQP-prune  PipelineOptions::EtsqpPrune(threads): + Props 4-5 pruning
///   Serial       PipelineOptions::Serial()
///   SBoost       PipelineOptions::Sboost(threads)
///   FastLanes    PipelineOptions::FastLanes(threads) over FLMM1024 pages
/// The last three pin their strategy for the whole query, without fusion.
class Engine {
 public:
  explicit Engine(PipelineOptions options) : options_(options) {}

  /// Executes `plan` against `store` — the single entry point and the one
  /// execution path for in-memory, file-backed and sharded inputs alike.
  /// File-backed snapshots stream pages through the LRU buffer pool and
  /// never fetch header-pruned pages. Float series support the aggregate
  /// plans only (SELECT/join/union/CORR return NotSupported).
  ///
  /// `plan.explain` selects EXPLAIN behaviour: kPlan compiles the Pipe
  /// operator tree into QueryResult::explain_text without executing;
  /// kAnalyze executes with stats collection forced on and renders the tree
  /// annotated with the measured per-stage profile.
  Result<QueryResult> Execute(const LogicalPlan& plan, StoreHandle store) const;

  const PipelineOptions& options() const { return options_; }

 private:
  Result<QueryResult> ExecutePlan(const LogicalPlan& plan,
                                  const StoreHandle& store) const;
  Result<QueryResult> ExecuteExplain(const LogicalPlan& plan,
                                     const StoreHandle& store) const;
  Result<QueryResult> ExecuteAggregate(const LogicalPlan& plan,
                                       const StoreHandle& store) const;
  /// SELECT, projection, join, UNION and CORR: range jobs feeding merge
  /// nodes (Figure 9).
  Result<QueryResult> ExecuteMerge(const LogicalPlan& plan,
                                   const StoreHandle& store) const;

  PipelineOptions options_;
};

}  // namespace etsqp::exec

#endif  // ETSQP_EXEC_ENGINE_H_
