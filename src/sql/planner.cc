#include "sql/planner.h"

#include <algorithm>
#include <limits>

namespace etsqp::sql {

namespace {

Result<exec::AggFunc> ResolveAggFunc(const std::string& name) {
  if (name == "sum") return exec::AggFunc::kSum;
  if (name == "avg") return exec::AggFunc::kAvg;
  if (name == "count") return exec::AggFunc::kCount;
  if (name == "min") return exec::AggFunc::kMin;
  if (name == "max") return exec::AggFunc::kMax;
  if (name == "var" || name == "variance") return exec::AggFunc::kVariance;
  return Status::InvalidArgument("sql: unknown aggregate " + name);
}

/// Folds a comparison into an inclusive [lo, hi] range. `< INT64_MIN` and
/// `> INT64_MAX` match nothing, so they empty the range (lo > hi).
void FoldRange(const Comparison& cmp, int64_t* lo, int64_t* hi) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  if ((cmp.op == Comparison::Op::kLt && cmp.literal == kMin) ||
      (cmp.op == Comparison::Op::kGt && cmp.literal == kMax)) {
    *lo = kMax;
    *hi = kMin;
    return;
  }
  switch (cmp.op) {
    case Comparison::Op::kLt:
      *hi = std::min(*hi, cmp.literal - 1);
      break;
    case Comparison::Op::kLe:
      *hi = std::min(*hi, cmp.literal);
      break;
    case Comparison::Op::kGt:
      *lo = std::max(*lo, cmp.literal + 1);
      break;
    case Comparison::Op::kGe:
      *lo = std::max(*lo, cmp.literal);
      break;
    case Comparison::Op::kEq:
      *lo = std::max(*lo, cmp.literal);
      *hi = std::min(*hi, cmp.literal);
      break;
  }
}

}  // namespace

Result<exec::LogicalPlan> PlanStatement(const SelectStatement& stmt) {
  exec::LogicalPlan plan;
  if (stmt.tables.empty()) {
    return Status::InvalidArgument("sql: missing FROM table");
  }
  plan.series = stmt.tables[0];
  if (stmt.explain) {
    plan.explain = stmt.analyze ? exec::LogicalPlan::ExplainMode::kAnalyze
                                : exec::LogicalPlan::ExplainMode::kPlan;
  }

  // Separate single-column predicates (pushed into the decoding pipelines,
  // Eq. 1) from inter-column ones (applied to decoded vectors, Eq. 3).
  for (const Comparison& cmp : stmt.predicates) {
    if (cmp.inter_column()) {
      if (stmt.tables.size() != 2) {
        return Status::InvalidArgument(
            "sql: inter-column predicate needs two FROM tables");
      }
      bool straight =
          cmp.lhs_table == stmt.tables[0] && cmp.rhs_table == stmt.tables[1];
      bool swapped =
          cmp.lhs_table == stmt.tables[1] && cmp.rhs_table == stmt.tables[0];
      if (!straight && !swapped) {
        return Status::InvalidArgument(
            "sql: inter-column predicate tables not in FROM");
      }
      char op;
      switch (cmp.op) {
        case Comparison::Op::kLt:
          op = '<';
          break;
        case Comparison::Op::kGt:
          op = '>';
          break;
        case Comparison::Op::kEq:
          op = '=';
          break;
        default:
          return Status::NotSupported(
              "sql: inter-column predicate supports < > = only");
      }
      if (swapped && op == '<') op = '>';
      else if (swapped && op == '>') op = '<';
      plan.inter_column_op = op;
      continue;
    }
    if (cmp.column == Comparison::Column::kTime) {
      FoldRange(cmp, &plan.time_filter.lo, &plan.time_filter.hi);
    } else {
      plan.value_filter.active = true;
      FoldRange(cmp, &plan.value_filter.lo, &plan.value_filter.hi);
    }
  }

  if (stmt.is_union) {
    plan.kind = exec::LogicalPlan::Kind::kUnion;
    plan.series_right = stmt.union_right;
    return plan;
  }

  switch (stmt.item.kind) {
    case SelectItem::Kind::kAggregate: {
      if (stmt.item.func == "corr" || stmt.item.func == "cov") {
        if (stmt.item.left_table.empty() || stmt.item.right_table.empty()) {
          return Status::InvalidArgument(
              "sql: CORR/COV need two qualified columns");
        }
        plan.kind = exec::LogicalPlan::Kind::kCorrelate;
        plan.series = stmt.item.left_table;
        plan.series_right = stmt.item.right_table;
        return plan;
      }
      plan.kind = exec::LogicalPlan::Kind::kAggregate;
      Result<exec::AggFunc> func = ResolveAggFunc(stmt.item.func);
      if (!func.ok()) return func.status();
      plan.func = func.value();
      if (stmt.has_window) {
        plan.window.active = true;
        plan.window.t_min = stmt.window_t_min;
        plan.window.delta_t = stmt.window_delta_t;
      }
      return plan;
    }
    case SelectItem::Kind::kBinary: {
      plan.kind = exec::LogicalPlan::Kind::kProjectBinary;
      plan.series = stmt.item.left_table;
      plan.series_right = stmt.item.right_table;
      plan.binary_op = stmt.item.binary_op;
      if (stmt.tables.size() != 2) {
        return Status::InvalidArgument(
            "sql: binary projection needs two FROM tables");
      }
      return plan;
    }
    case SelectItem::Kind::kStar:
    case SelectItem::Kind::kColumn: {
      if (stmt.tables.size() == 2) {
        plan.kind = exec::LogicalPlan::Kind::kJoin;
        plan.series_right = stmt.tables[1];
      } else {
        plan.kind = exec::LogicalPlan::Kind::kSelect;
      }
      return plan;
    }
  }
  return Status::Internal("sql: unhandled select item");
}

Result<exec::LogicalPlan> PlanQuery(const std::string& query) {
  Result<SelectStatement> stmt = Parse(query);
  if (!stmt.ok()) return stmt.status();
  return PlanStatement(stmt.value());
}

}  // namespace etsqp::sql
