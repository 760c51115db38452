// scan_agg, merge_join and cold_scan: fixed Table II data, a fixed list of
// Fig. 10 queries replayed by one closed-loop client in a seeded shuffle,
// every answer precomputed in set-up by scalar loops over the raw points.

#include <sys/stat.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <map>
#include <random>

#include "baselines/fastlanes_exec.h"
#include "exec/engine.h"
#include "sql/planner.h"
#include "stats.h"
#include "workload/generators.h"
#include "workloads.h"

namespace sqlbench {
namespace {

using etsqp::Status;
using etsqp::db::Database;
using etsqp::metrics::NowNanos;

struct RawSeries {
  std::string name;
  std::vector<int64_t> times;
  std::vector<int64_t> values;
};

/// Table II generator `index` at `scale` of its library default size.
etsqp::workload::Dataset MakeDataset(int index, double scale, uint64_t seed) {
  namespace wl = etsqp::workload;
  auto rows = [scale](size_t full) {
    return std::max<size_t>(64, static_cast<size_t>(full * scale));
  };
  switch (index) {
    case 0:
      return wl::MakeAtmosphere(rows(132'000), seed);
    case 1:
      return wl::MakeClimate(rows(1'000'000), seed);
    case 2:
      return wl::MakeGas(rows(925'000), seed);
    case 3:
      return wl::MakeTimestamp(rows(4'000'000), seed);
    case 4:
      return wl::MakeSine(rows(4'000'000), seed);
    default:
      return wl::MakeTpch(rows(24'000), seed);
  }
}

/// The first `count` series of Table II generator `index`, named as
/// workload::LoadDataset names them ("<dataset>.<series>").
std::vector<RawSeries> FirstSeries(int index, double scale, uint64_t seed,
                                   size_t count) {
  etsqp::workload::Dataset ds =
      MakeDataset(index, scale, DeriveSeed(seed, index));
  std::vector<RawSeries> out;
  for (size_t i = 0; i < count && i < ds.series.size(); ++i) {
    etsqp::workload::SeriesData& s = ds.series[i];
    out.push_back(
        RawSeries{ds.name + "." + s.name, std::move(s.times),
                  std::move(s.values)});
  }
  return out;
}

// ---- Oracle: scalar answers over the raw points ---------------------------

double FinalSum(__int128 sum) {
  return static_cast<double>(static_cast<int64_t>(sum));
}

/// SUM or AVG per sliding window sw(t_min, dt), non-empty windows in order.
Expected WindowAnswer(const RawSeries& s, int64_t t_min, int64_t dt,
                      bool avg) {
  std::map<int64_t, std::pair<__int128, uint64_t>> windows;
  for (size_t i = 0; i < s.times.size(); ++i) {
    if (s.times[i] < t_min) continue;
    auto& w = windows[(s.times[i] - t_min) / dt];
    w.first += s.values[i];
    ++w.second;
  }
  Expected e;
  e.columns.assign(2, {});
  for (const auto& [k, w] : windows) {
    e.columns[0].push_back(static_cast<double>(t_min + k * dt));
    e.columns[1].push_back(avg ? static_cast<double>(w.first) /
                                     static_cast<double>(w.second)
                               : FinalSum(w.first));
  }
  return e;
}

/// SUM (v > v_gt) or AVG (time in [lo, hi]) over the whole series.
Expected ScalarAnswer(const RawSeries& s, int64_t lo, int64_t hi,
                      int64_t v_gt, bool avg) {
  __int128 sum = 0;
  uint64_t count = 0;
  for (size_t i = 0; i < s.times.size(); ++i) {
    if (s.times[i] < lo || s.times[i] > hi || s.values[i] <= v_gt) continue;
    sum += s.values[i];
    ++count;
  }
  Expected e;
  e.columns.assign(1, {});
  if (!avg) {
    e.columns[0].push_back(FinalSum(sum));
  } else if (count > 0) {
    e.columns[0].push_back(static_cast<double>(sum) /
                           static_cast<double>(count));
  }
  return e;
}

/// Q4 (`a.v + b.v`, project) or Q6 (`SELECT *`): natural join on time.
Expected JoinAnswer(const RawSeries& a, const RawSeries& b, bool project) {
  Expected e;
  e.columns.assign(project ? 2 : 3, {});
  size_t i = 0, j = 0;
  while (i < a.times.size() && j < b.times.size()) {
    if (a.times[i] < b.times[j]) {
      ++i;
    } else if (b.times[j] < a.times[i]) {
      ++j;
    } else {
      e.columns[0].push_back(static_cast<double>(a.times[i]));
      if (project) {
        e.columns[1].push_back(static_cast<double>(a.values[i] + b.values[j]));
      } else {
        e.columns[1].push_back(static_cast<double>(a.values[i]));
        e.columns[2].push_back(static_cast<double>(b.values[j]));
      }
      ++i;
      ++j;
    }
  }
  return e;
}

/// Q5: both series merged by time.
Expected UnionAnswer(const RawSeries& a, const RawSeries& b) {
  Expected e;
  e.ties_unordered = true;
  e.columns.assign(2, {});
  size_t i = 0, j = 0;
  while (i < a.times.size() || j < b.times.size()) {
    const bool left = j == b.times.size() ||
                      (i < a.times.size() && a.times[i] <= b.times[j]);
    const RawSeries& s = left ? a : b;
    size_t& k = left ? i : j;
    e.columns[0].push_back(static_cast<double>(s.times[k]));
    e.columns[1].push_back(static_cast<double>(s.values[k]));
    ++k;
  }
  return e;
}

// ---- Fig. 10 queries -------------------------------------------------------

struct Fixture {
  int64_t t_min = 0;
  int64_t window_dt = 1;  // ~1000 points per window
  int64_t median = 0;     // v > median selects ~50%
};

Fixture FixtureOf(const RawSeries& s) {
  Fixture f;
  f.t_min = s.times.front();
  const int64_t span = s.times.back() - s.times.front();
  f.window_dt = std::max<int64_t>(
      1, span * 1000 / static_cast<int64_t>(s.times.size()));
  std::vector<int64_t> sorted = s.values;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  f.median = sorted[sorted.size() / 2];
  return f;
}

std::string Fig10Sql(int q, const RawSeries& a, const RawSeries* b,
                     const Fixture& f) {
  char buf[320];
  const long long t_min = f.t_min, dt = f.window_dt, med = f.median;
  switch (q) {
    case 1:
      std::snprintf(buf, sizeof(buf), "SELECT SUM(v) FROM %s SW(%lld, %lld)",
                    a.name.c_str(), t_min, dt);
      break;
    case 2:
      std::snprintf(buf, sizeof(buf), "SELECT AVG(v) FROM %s SW(%lld, %lld)",
                    a.name.c_str(), t_min, dt);
      break;
    case 3:
      std::snprintf(buf, sizeof(buf), "SELECT SUM(v) FROM %s WHERE v > %lld",
                    a.name.c_str(), med);
      break;
    case 4:
      std::snprintf(buf, sizeof(buf), "SELECT %s.v + %s.v FROM %s, %s",
                    a.name.c_str(), b->name.c_str(), a.name.c_str(),
                    b->name.c_str());
      break;
    case 5:
      std::snprintf(buf, sizeof(buf),
                    "SELECT * FROM %s UNION %s ORDER BY TIME", a.name.c_str(),
                    b->name.c_str());
      break;
    default:
      std::snprintf(buf, sizeof(buf), "SELECT * FROM %s, %s", a.name.c_str(),
                    b->name.c_str());
      break;
  }
  return buf;
}

Expected Fig10Answer(int q, const RawSeries& a, const RawSeries* b,
                     const Fixture& f) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  switch (q) {
    case 1:
      return WindowAnswer(a, f.t_min, f.window_dt, false);
    case 2: {
      Expected e = WindowAnswer(a, f.t_min, f.window_dt, true);
      e.rel_tol = 1e-12;
      return e;
    }
    case 3:
      return ScalarAnswer(a, kMin, kMax, f.median, false);
    case 4:
      return JoinAnswer(a, *b, true);
    case 5:
      return UnionAnswer(a, *b);
    default:
      return JoinAnswer(a, *b, false);
  }
}

// ---- The workloads ---------------------------------------------------------

// Points per set-up InsertBatch call: small enough that even merge_join's
// load makes several 1,000-call chunks for ingest_p99_us.
constexpr size_t kLoadBatch = 256;

struct StaticQuery {
  int fig10 = 0;  // Fig. 10 query number, 0 for the 1% AVG
  const char* kind = "";
  std::string sql;
  const RawSeries* a = nullptr;
  const RawSeries* b = nullptr;  // right input of Q4-Q6
  Fixture fixture;
  int64_t lo = 0, hi = 0;  // time slice of the 1% AVG
  std::shared_ptr<const Expected> expected;
};

/// Loads `series` into `db` through InsertBatch, then flushes.
Status LoadSeries(Database* db, const std::vector<RawSeries>& series,
                  Tracer* tracer, int64_t parent, SetupLog* log) {
  for (const RawSeries& s : series) {
    ETSQP_RETURN_IF_ERROR(db->CreateTimeseries(s.name));
    for (size_t at = 0; at < s.times.size(); at += kLoadBatch) {
      const size_t n = std::min(kLoadBatch, s.times.size() - at);
      const uint64_t t0 = NowNanos();
      Status st = db->InsertBatch(s.name, s.times.data() + at,
                                  s.values.data() + at, n);
      const uint64_t t1 = NowNanos();
      ETSQP_RETURN_IF_ERROR(st);
      tracer->Record("db.insert_batch", t0, t1, parent);
      log->insert_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
  }
  return db->Flush();
}

class StaticWorkload : public Workload {
 public:
  StaticWorkload(uint64_t seed, double scale)
      : seed_(seed), scale_(scale), db_(MakeOptions()) {}

  Status Setup(Tracer* tracer, SetupLog* log) override {
    const int64_t root = tracer->Open("setup", NowNanos());
    int64_t span = tracer->Open("setup.generate", NowNanos(), root);
    Generate();
    tracer->Close(span, NowNanos());
    span = tracer->Open("setup.oracle", NowNanos(), root);
    for (StaticQuery& q : queries_) q.expected = Answer(q);
    tracer->Close(span, NowNanos());
    span = tracer->Open("setup.load", NowNanos(), root);
    Status st = Load(tracer, span, log);
    tracer->Close(span, NowNanos());
    tracer->Close(root, NowNanos());
    return st;
  }

  Database& db() override { return db_; }
  int clients() const override { return 1; }
  int engine_threads() const override { return 1; }

  QueryCase Next(int /*client*/, std::mt19937_64* rng) override {
    // Every query once per cycle, each cycle in a fresh seeded order.
    if (cursor_ == order_.size()) {
      order_.resize(queries_.size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      std::shuffle(order_.begin(), order_.end(), *rng);
      cursor_ = 0;
    }
    const size_t i = order_[cursor_++];
    return StaticCase(queries_[i].kind, queries_[i].sql, queries_[i].expected,
                      static_cast<int>(i));
  }

  double BytesPerPoint() override {
    uint64_t bytes = 0, points = 0;
    const etsqp::storage::SeriesStore& store =
        static_cast<const Database&>(db_).shard_store(0);
    for (const RawSeries& s : series_) {
      bytes += store.EncodedBytes(s.name);
      points += s.times.size();
    }
    return points == 0 ? 0 : static_cast<double>(bytes) / points;
  }

  uint64_t HashData() const override {
    uint64_t h = Fnv1a(nullptr, 0);
    for (const RawSeries& s : series_) {
      h = Fnv1a(s.name.data(), s.name.size(), h);
      h = Fnv1a(s.times.data(), s.times.size() * sizeof(int64_t), h);
      h = Fnv1a(s.values.data(), s.values.size() * sizeof(int64_t), h);
    }
    return h;
  }

  std::vector<std::pair<int, double>> PaperBar() override;

 protected:
  // One engine thread: on a 4-vCPU VM, two made the run-to-run spread of
  // qps 2-3x wider (waking a parked pool worker per query) and cold_scan
  // slower, which would hide the changes this benchmark exists to show.
  static Database::Options MakeOptions() {
    Database::Options o;
    o.threads = 1;
    o.shards = 1;
    o.cache_budget_bytes = 0;
    return o;
  }

  /// Fills series_ and queries_ (without answers).
  virtual void Generate() = 0;
  static std::shared_ptr<const Expected> Answer(const StaticQuery& q) {
    if (q.fig10 != 0) {
      return std::make_shared<const Expected>(
          Fig10Answer(q.fig10, *q.a, q.b, q.fixture));
    }
    Expected e = ScalarAnswer(*q.a, q.lo, q.hi,
                              std::numeric_limits<int64_t>::min(), true);
    e.rel_tol = 1e-12;
    return std::make_shared<const Expected>(std::move(e));
  }
  virtual Status Load(Tracer* tracer, int64_t parent, SetupLog* log) {
    ETSQP_RETURN_IF_ERROR(LoadSeries(&db_, series_, tracer, parent, log));
    log->ingest = db_.ingest_stats();
    return Status::Ok();
  }

  /// Call only once series_ is complete: queries point into it. `f` is
  /// FixtureOf(series_[a]).
  void AddFig10(int q, size_t a, const size_t* b, const Fixture& f) {
    static const char* const kKinds[] = {"", "Q1", "Q2", "Q3",
                                         "Q4", "Q5", "Q6"};
    StaticQuery sq;
    sq.fig10 = q;
    sq.kind = kKinds[q];
    sq.a = &series_[a];
    sq.b = b != nullptr ? &series_[*b] : nullptr;
    sq.fixture = f;
    sq.sql = Fig10Sql(q, *sq.a, sq.b, sq.fixture);
    queries_.push_back(std::move(sq));
  }

  const uint64_t seed_;
  const double scale_;
  Database db_;
  std::vector<RawSeries> series_;
  std::vector<StaticQuery> queries_;
  std::vector<size_t> order_;
  size_t cursor_ = 0;
};

/// Median over 5 samples of one query's time per run on a bare engine;
/// each sample repeats the query until it has run for at least 1 ms.
double TimeEngine(const etsqp::exec::Engine& engine,
                  const etsqp::exec::LogicalPlan& plan,
                  const etsqp::storage::SeriesStore& store,
                  uint64_t* tuples) {
  std::vector<double> samples;
  for (int s = 0; s < 5; ++s) {
    const double t0 = NowSeconds();
    int reps = 0;
    double elapsed = 0;
    do {
      auto r = engine.Execute(plan, store);
      if (!r.ok()) return -1;
      *tuples = r.value().stats.tuples_in_pages;
      ++reps;
      elapsed = NowSeconds() - t0;
    } while (elapsed < 1e-3);
    samples.push_back(elapsed / reps);
  }
  return Median(std::move(samples));
}

std::vector<std::pair<int, double>> StaticWorkload::PaperBar() {
  namespace ex = etsqp::exec;
  etsqp::storage::SeriesStore ts2diff, flmm;
  for (const RawSeries& s : series_) {
    if (!ts2diff.CreateSeries(s.name, {}).ok() ||
        !ts2diff.AppendBatch(s.name, s.times.data(), s.values.data(),
                             s.times.size()).ok() ||
        !ts2diff.Flush(s.name).ok() ||
        !flmm.CreateSeries(s.name, etsqp::baselines::FastLanesSeriesOptions())
             .ok() ||
        !flmm.AppendBatch(s.name, s.times.data(), s.values.data(),
                          s.times.size()).ok() ||
        !flmm.Flush(s.name).ok()) {
      return {};
    }
  }
  const int t = engine_threads();
  const ex::Engine etsqp_engine(ex::PipelineOptions::EtsqpPrune(t));
  const ex::Engine sboost(ex::PipelineOptions::Sboost(t));
  const ex::Engine fastlanes(ex::PipelineOptions::FastLanes(t));
  // Per Fig. 10 query: tuples and seconds summed over its datasets.
  std::map<int, std::array<std::pair<double, double>, 3>> totals;
  for (const StaticQuery& q : queries_) {
    if (q.fig10 == 0) continue;
    auto plan = etsqp::sql::PlanQuery(q.sql);
    if (!plan.ok()) return {};
    const ex::Engine* engines[3] = {&etsqp_engine, &sboost, &fastlanes};
    for (int e = 0; e < 3; ++e) {
      uint64_t tuples = 0;
      const double secs =
          TimeEngine(*engines[e], plan.value(), e == 2 ? flmm : ts2diff,
                     &tuples);
      if (secs < 0) return {};
      totals[q.fig10][e].first += static_cast<double>(tuples);
      totals[q.fig10][e].second += secs;
    }
  }
  std::vector<std::pair<int, double>> rows;
  for (const auto& [q, tot] : totals) {
    double tput[3];
    for (int e = 0; e < 3; ++e) tput[e] = tot[e].first / tot[e].second;
    std::printf("info baselines.q%d_tuples_per_s etsqp=%.4g sboost=%.4g "
                "fastlanes=%.4g\n",
                q, tput[0], tput[1], tput[2]);
    rows.emplace_back(q, tput[0] / std::max(tput[1], tput[2]));
  }
  return rows;
}

/// Fig. 10 Q1-Q3 over the first series of each Table II generator but TPCH
/// at its library default size. TPCH's 24K-row queries take ~60 us, call
/// overhead more than decoding, and without them a cycle has 15 queries,
/// so p50 falls inside one query's latencies rather than on the edge
/// between two.
class ScanAgg : public StaticWorkload {
 public:
  using StaticWorkload::StaticWorkload;

 protected:
  void Generate() override {
    series_.clear();
    queries_.clear();
    for (int d = 0; d < 5; ++d) {
      for (RawSeries& s : FirstSeries(d, scale_, seed_, 1)) {
        series_.push_back(std::move(s));
      }
    }
    for (size_t i = 0; i < series_.size(); ++i) {
      const Fixture f = FixtureOf(series_[i]);
      for (int q = 1; q <= 3; ++q) AddFig10(q, i, nullptr, f);
    }
  }
};

/// Fig. 10 Q4-Q6 over the first two series of each generator but TPCH at
/// 1/32 of scan_agg's rows: small enough that a 10 s run has 1,000+
/// queries, so its p99 has at least 10 samples beyond it. TPCH (750 rows
/// at this scale) is left out: its ~30 us queries time call overhead, not
/// the merge path, and without it a cycle has 15 queries, so p50 falls
/// inside one query's latencies rather than on the edge between two.
class MergeJoin : public StaticWorkload {
 public:
  using StaticWorkload::StaticWorkload;

 protected:
  void Generate() override {
    series_.clear();
    queries_.clear();
    std::vector<size_t> firsts;
    for (int d = 0; d < 5; ++d) {
      std::vector<RawSeries> two = FirstSeries(d, scale_ / 32, seed_, 2);
      if (two.size() < 2) continue;
      firsts.push_back(series_.size());
      for (RawSeries& s : two) series_.push_back(std::move(s));
    }
    for (size_t a : firsts) {
      const size_t b = a + 1;
      const Fixture f = FixtureOf(series_[a]);
      for (int q = 4; q <= 6; ++q) AddFig10(q, a, &b, f);
    }
  }
};

/// Q1, Q3 and a 1%-of-range AVG over the four largest scan_agg series,
/// saved to a TsFile and attached through a buffer pool a quarter of their
/// encoded size.
class ColdScan : public StaticWorkload {
 public:
  ColdScan(uint64_t seed, double scale, std::string scratch_dir)
      : StaticWorkload(seed, scale),
        path_(scratch_dir + "/cold_scan." + std::to_string(getpid()) +
              ".tsfile") {}

  ~ColdScan() override {
    db_.CloseFile();
    std::remove(path_.c_str());
  }

  double BytesPerPoint() override {
    struct stat st;
    uint64_t points = 0;
    for (const RawSeries& s : series_) points += s.times.size();
    if (stat(path_.c_str(), &st) != 0 || points == 0) return 0;
    return static_cast<double>(st.st_size) / points;
  }

  std::vector<std::pair<int, double>> PaperBar() override { return {}; }

 protected:
  static constexpr int kSlices = 4;  // 1% AVG queries per series

  void Generate() override {
    series_.clear();
    queries_.clear();
    // Time, Sine, Climate, Gas: the four largest generators.
    for (int d : {3, 4, 1, 2}) {
      for (RawSeries& s : FirstSeries(d, scale_, seed_, 1)) {
        series_.push_back(std::move(s));
      }
    }
    std::mt19937_64 rng(DeriveSeed(seed_, 77));
    for (size_t i = 0; i < series_.size(); ++i) {
      const Fixture f = FixtureOf(series_[i]);
      AddFig10(1, i, nullptr, f);
      AddFig10(3, i, nullptr, f);
      const RawSeries& s = series_[i];
      const size_t n = s.times.size();
      const size_t width = std::max<size_t>(1, n / 100);
      for (int k = 0; k < kSlices; ++k) {
        const size_t lo = rng() % (n - width + 1);
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "SELECT AVG(v) FROM %s WHERE time >= %lld AND "
                      "time <= %lld",
                      s.name.c_str(), static_cast<long long>(s.times[lo]),
                      static_cast<long long>(s.times[lo + width - 1]));
        StaticQuery sq;
        sq.kind = "avg_1pct";
        sq.sql = buf;
        sq.a = &s;
        sq.lo = s.times[lo];
        sq.hi = s.times[lo + width - 1];
        queries_.push_back(std::move(sq));
      }
    }
  }

  Status Load(Tracer* tracer, int64_t parent, SetupLog* log) override {
    uint64_t encoded = 0;
    {
      Database loader(MakeOptions());
      ETSQP_RETURN_IF_ERROR(LoadSeries(&loader, series_, tracer, parent, log));
      log->ingest = loader.ingest_stats();
      for (const RawSeries& s : series_) {
        encoded += static_cast<const Database&>(loader).shard_store(0)
                       .EncodedBytes(s.name);
      }
      const uint64_t t0 = NowNanos();
      ETSQP_RETURN_IF_ERROR(loader.Save(path_));
      tracer->Record("db.save", t0, NowNanos(), parent);
    }
    const uint64_t t0 = NowNanos();
    ETSQP_RETURN_IF_ERROR(
        db_.OpenFile(path_, std::max<uint64_t>(1, encoded / 4)));
    tracer->Record("db.open_file", t0, NowNanos(), parent);
    return Status::Ok();
  }

 private:
  const std::string path_;
};

}  // namespace

QueryCase StaticCase(const char* kind, std::string sql,
                     std::shared_ptr<const Expected> expected,
                     int list_index) {
  QueryCase c;
  c.kind = kind;
  c.list_index = list_index;
  c.sql = std::move(sql);
  c.check = [expected](const etsqp::exec::QueryResult& r, std::string* why) {
    return Matches(r, *expected, why);
  };
  return c;
}

std::unique_ptr<Workload> MakeScanAgg(uint64_t seed, double scale) {
  return std::make_unique<ScanAgg>(seed, scale);
}

std::unique_ptr<Workload> MakeMergeJoin(uint64_t seed, double scale) {
  return std::make_unique<MergeJoin>(seed, scale);
}

std::unique_ptr<Workload> MakeColdScan(uint64_t seed, double scale,
                                       const std::string& scratch_dir) {
  return std::make_unique<ColdScan>(seed, scale, scratch_dir);
}

}  // namespace sqlbench
