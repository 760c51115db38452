// Multi-sensor analysis: align two sensors on the time axis with the
// natural-join pipeline (paper Q4/Q6, Figure 9's merge nodes), compute a
// derived quantity, and union two series into one ordered stream (Q5).
//
//   build/examples/multi_sensor_join

#include <algorithm>
#include <cstdio>
#include <random>

#include "db/database.h"

int main() {
  using namespace etsqp;
  db::Database dbi(
      db::Database::Options{db::Database::Mode::kSimd, /*threads=*/2});

  // Two sensors on different clocks: power on a 100ms tick, flow on a
  // 250ms tick — they align every 500ms.
  if (!dbi.CreateTimeseries("power").ok()) return 1;
  if (!dbi.CreateTimeseries("flow").ok()) return 1;

  std::mt19937_64 rng(11);
  int64_t t0 = 1'700'000'000'000;
  {
    std::vector<int64_t> t, v;
    int64_t p = 40'000;
    for (int i = 0; i < 200'000; ++i) {
      t.push_back(t0 + static_cast<int64_t>(i) * 100);
      p += static_cast<int64_t>(rng() % 41) - 20;
      v.push_back(p);
    }
    if (!dbi.InsertBatch("power", t.data(), v.data(), t.size()).ok()) return 1;
  }
  {
    std::vector<int64_t> t, v;
    int64_t f = 900;
    for (int i = 0; i < 80'000; ++i) {
      t.push_back(t0 + static_cast<int64_t>(i) * 250);
      f += static_cast<int64_t>(rng() % 7) - 3;
      v.push_back(f);
    }
    if (!dbi.InsertBatch("flow", t.data(), v.data(), t.size()).ok()) return 1;
  }
  if (!dbi.Flush().ok()) return 1;

  // Natural join on timestamps: tuples where both sensors reported.
  auto joined = dbi.Query("SELECT * FROM power, flow");
  if (!joined.ok()) {
    std::printf("error: %s\n", joined.status().ToString().c_str());
    return 1;
  }
  std::printf("natural join: %zu aligned tuples (every 500ms)\n",
              joined.value().num_rows());
  for (size_t i = 0; i < 3; ++i) {
    std::printf("  t=%.0f power=%.0f flow=%.0f\n",
                joined.value().columns[0][i], joined.value().columns[1][i],
                joined.value().columns[2][i]);
  }

  // Derived column on the aligned tuples: power - flow (Q4 shape).
  auto derived = dbi.Query("SELECT power.v - flow.v FROM power, flow");
  if (!derived.ok()) return 1;
  std::printf("derived series rows: %zu; first: t=%.0f expr=%.0f\n",
              derived.value().num_rows(), derived.value().columns[0][0],
              derived.value().columns[1][0]);

  // Two-series aggregate over the aligned tuples: Pearson correlation via
  // the Section IV cross-product polynomial (fused when both series are
  // Delta-RLE encoded; decode path otherwise).
  auto corr = dbi.Query("SELECT CORR(power.v, flow.v) FROM power, flow");
  if (!corr.ok()) return 1;
  std::printf("corr(power, flow) = %.4f over %.0f aligned tuples\n",
              corr.value().columns[0][0], corr.value().columns[2][0]);

  // Inter-column predicate (Eq. 3): aligned tuples where power exceeds
  // 40x flow (scaled comparison via a derived projection would also work).
  auto above = dbi.Query("SELECT * FROM power, flow WHERE power.v > flow.v");
  if (!above.ok()) return 1;
  std::printf("tuples with power > flow: %zu\n", above.value().num_rows());

  // Union both sensors into one time-ordered stream (Q5 shape).
  auto merged = dbi.Query("SELECT * FROM power UNION flow ORDER BY TIME");
  if (!merged.ok()) return 1;
  std::printf("union stream: %zu rows, ordered by time: %s\n",
              merged.value().num_rows(),
              std::is_sorted(merged.value().columns[0].begin(),
                             merged.value().columns[0].end())
                  ? "yes"
                  : "NO");
  return 0;
}
