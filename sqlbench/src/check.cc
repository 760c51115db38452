#include "check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace sqlbench {
namespace {

bool Close(double a, double b, double rel_tol) {
  if (a == b) return true;
  if (rel_tol == 0 || std::isnan(a) || std::isnan(b)) return false;
  return std::fabs(a - b) <= rel_tol * std::max(std::fabs(a), std::fabs(b));
}

using Rows = std::vector<std::pair<double, double>>;

Rows SortedRows(const std::vector<std::vector<double>>& cols) {
  Rows rows(cols[0].size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = {cols[0][i], cols[1][i]};
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace

bool Matches(const etsqp::exec::QueryResult& got, const Expected& want,
             std::string* why) {
  char buf[160];
  if (got.columns.size() != want.columns.size()) {
    std::snprintf(buf, sizeof(buf), "%zu columns, expected %zu",
                  got.columns.size(), want.columns.size());
    *why = buf;
    return false;
  }
  for (size_t c = 0; c < want.columns.size(); ++c) {
    if (got.columns[c].size() != want.columns[c].size()) {
      std::snprintf(buf, sizeof(buf), "column %zu has %zu rows, expected %zu",
                    c, got.columns[c].size(), want.columns[c].size());
      *why = buf;
      return false;
    }
  }
  size_t bad_col = 0;
  size_t bad_row = 0;
  bool ok = true;
  for (size_t c = 0; c < want.columns.size() && ok; ++c) {
    const auto& g = got.columns[c];
    const auto& w = want.columns[c];
    for (size_t r = 0; r < w.size(); ++r) {
      if (!Close(g[r], w[r], want.rel_tol)) {
        ok = false;
        bad_col = c;
        bad_row = r;
        break;
      }
    }
  }
  if (ok) return true;
  if (want.ties_unordered && want.columns.size() == 2 &&
      SortedRows(got.columns) == SortedRows(want.columns)) {
    return true;
  }
  std::snprintf(buf, sizeof(buf),
                "column %zu row %zu: got %.17g, expected %.17g", bad_col,
                bad_row, got.columns[bad_col][bad_row],
                want.columns[bad_col][bad_row]);
  *why = buf;
  return false;
}

}  // namespace sqlbench
