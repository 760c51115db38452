#include "sql/planner.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

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

/// Folds a value comparison into `range`, keeping each bound's strictness
/// for float series (exec::ValueRange). Folded bounds that tie — `v > 3`
/// and `v >= 4` both fold to lo = 4 — keep the inclusive one, the tighter
/// on doubles.
void FoldValueRange(const Comparison& cmp, exec::ValueRange* range) {
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  FoldRange(cmp, &lo, &hi);  // this comparison alone
  const bool strict =
      cmp.op == Comparison::Op::kLt || cmp.op == Comparison::Op::kGt;
  if (lo > range->lo || (lo == range->lo && !strict)) {
    range->lo = lo;
    range->lo_strict = strict;
  }
  if (hi < range->hi || (hi == range->hi && !strict)) {
    range->hi = hi;
    range->hi_strict = strict;
  }
}

/// Whether `l` and `r` name the statement's two FROM tables, in either
/// order.
bool NamesFromPair(const SelectStatement& stmt, const std::string& l,
                   const std::string& r) {
  if (stmt.tables.size() != 2) return false;
  const std::string& t0 = stmt.tables[0];
  const std::string& t1 = stmt.tables[1];
  return (l == t0 && r == t1) || (l == t1 && r == t0);
}

/// The plan's kind and inputs from the select item and FROM list.
Status PlanItem(const SelectStatement& stmt, exec::LogicalPlan* plan) {
  plan->series = stmt.tables[0];
  if (stmt.is_union) {
    plan->kind = exec::LogicalPlan::Kind::kUnion;
    plan->series_right = stmt.union_right;
    return Status::Ok();
  }
  switch (stmt.item.kind) {
    case SelectItem::Kind::kAggregate: {
      if (stmt.item.func == "corr" || stmt.item.func == "cov") {
        if (stmt.item.left_table.empty() || stmt.item.right_table.empty()) {
          return Status::InvalidArgument(
              "sql: CORR/COV need two qualified columns");
        }
        if (!NamesFromPair(stmt, stmt.item.left_table,
                           stmt.item.right_table)) {
          return Status::InvalidArgument(
              "sql: CORR/COV operands must be the two FROM tables");
        }
        plan->kind = exec::LogicalPlan::Kind::kCorrelate;
        plan->series = stmt.item.left_table;
        plan->series_right = stmt.item.right_table;
        return Status::Ok();
      }
      // An aggregate plan reads one input, so a second FROM table would be
      // ignored.
      if (stmt.tables.size() != 1) {
        return Status::InvalidArgument(
            "sql: " + stmt.item.func +
            " aggregates one FROM table (CORR/COV take two)");
      }
      plan->kind = exec::LogicalPlan::Kind::kAggregate;
      Result<exec::AggFunc> func = ResolveAggFunc(stmt.item.func);
      if (!func.ok()) return func.status();
      plan->func = func.value();
      if (stmt.has_window) {
        plan->window.active = true;
        plan->window.t_min = stmt.window_t_min;
        plan->window.delta_t = stmt.window_delta_t;
      }
      return Status::Ok();
    }
    case SelectItem::Kind::kBinary:
      if (stmt.tables.size() != 2) {
        return Status::InvalidArgument(
            "sql: binary projection needs two FROM tables");
      }
      if (!NamesFromPair(stmt, stmt.item.left_table, stmt.item.right_table)) {
        return Status::InvalidArgument(
            "sql: binary projection operands must be the two FROM tables");
      }
      plan->kind = exec::LogicalPlan::Kind::kProjectBinary;
      plan->series = stmt.item.left_table;
      plan->series_right = stmt.item.right_table;
      plan->binary_op = stmt.item.binary_op;
      return Status::Ok();
    case SelectItem::Kind::kStar:
    case SelectItem::Kind::kColumn:
      if (stmt.tables.size() == 2) {
        plan->kind = exec::LogicalPlan::Kind::kJoin;
        plan->series_right = stmt.tables[1];
      } else {
        plan->kind = exec::LogicalPlan::Kind::kSelect;
      }
      return Status::Ok();
  }
  return Status::Internal("sql: unhandled select item");
}

/// The inter-column predicate `cmp` as the plan applies it: left input
/// <op> right input, whichever order the statement names the tables in.
Status PlanInterColumn(const SelectStatement& stmt, const Comparison& cmp,
                       exec::LogicalPlan* plan) {
  if (stmt.tables.size() != 2) {
    return Status::InvalidArgument(
        "sql: inter-column predicate needs two FROM tables");
  }
  if (!NamesFromPair(stmt, cmp.lhs_table, cmp.rhs_table)) {
    return Status::InvalidArgument(
        "sql: inter-column predicate tables not in FROM");
  }
  if (plan->inter_column_op != 0) {
    return Status::NotSupported(
        "sql: at most one inter-column predicate per query");
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
  if (cmp.lhs_table != plan->series && op != '=') op = op == '<' ? '>' : '<';
  plan->inter_column_op = op;
  return Status::Ok();
}

}  // namespace

Result<exec::LogicalPlan> PlanStatement(const SelectStatement& stmt) {
  exec::LogicalPlan plan;
  if (stmt.tables.empty()) {
    return Status::InvalidArgument("sql: missing FROM table");
  }
  if (stmt.explain) {
    plan.explain = stmt.analyze ? exec::LogicalPlan::ExplainMode::kAnalyze
                                : exec::LogicalPlan::ExplainMode::kPlan;
  }
  ETSQP_RETURN_IF_ERROR(PlanItem(stmt, &plan));

  // Separate single-column predicates (pushed into the decoding pipelines,
  // Eq. 1) from inter-column ones (applied to decoded vectors, Eq. 3).
  std::vector<std::string> from = stmt.tables;
  if (stmt.is_union) from.push_back(stmt.union_right);
  for (const Comparison& cmp : stmt.predicates) {
    if (cmp.inter_column()) {
      ETSQP_RETURN_IF_ERROR(PlanInterColumn(stmt, cmp, &plan));
      continue;
    }
    if (!cmp.lhs_table.empty()) {
      if (std::find(from.begin(), from.end(), cmp.lhs_table) == from.end()) {
        return Status::InvalidArgument("sql: predicate table " +
                                       cmp.lhs_table + " not in FROM");
      }
      // The plan holds one value filter and one time filter, each pushed
      // into both inputs.
      if (from.size() == 2) {
        return Status::NotSupported(
            "sql: a predicate of a two-table query filters both inputs; "
            "write it unqualified");
      }
    }
    if (cmp.column == Comparison::Column::kTime) {
      FoldRange(cmp, &plan.time_filter.lo, &plan.time_filter.hi);
    } else {
      plan.value_filter.active = true;
      FoldValueRange(cmp, &plan.value_filter);
    }
  }
  return plan;
}

Result<exec::LogicalPlan> PlanQuery(const std::string& query) {
  Result<SelectStatement> stmt = Parse(query);
  if (!stmt.ok()) return stmt.status();
  return PlanStatement(stmt.value());
}

}  // namespace etsqp::sql
