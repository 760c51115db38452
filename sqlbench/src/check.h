#ifndef SQLBENCH_CHECK_H_
#define SQLBENCH_CHECK_H_

#include <string>
#include <vector>

#include "exec/expr.h"

namespace sqlbench {

/// The oracle's answer to one query, computed from the generated points
/// without the engine.
struct Expected {
  std::vector<std::vector<double>> columns;
  /// Relative tolerance per value (0 = exact). Aggregates of doubles and
  /// correlations differ from the oracle only in summation order.
  double rel_tol = 0;
  /// UNION rows with equal timestamps may come in either input's order.
  bool ties_unordered = false;
};

/// True when `got` holds exactly the expected rows; otherwise `why` says
/// where the first difference is.
bool Matches(const etsqp::exec::QueryResult& got, const Expected& want,
             std::string* why);

}  // namespace sqlbench

#endif  // SQLBENCH_CHECK_H_
