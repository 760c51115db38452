// iot_serving: 1,000 series on 4 shards with a result cache, two
// closed-loop query clients and one open-loop writer. Every answer is
// derived from the generated points: prefix sums cover any window up to a
// series' acknowledged high-water mark, and the alert counts over the
// preloaded history are precomputed.
//
// The seed draws every point and every query; the series' classes (int or
// float, written or not) are fixed by index, and Zipf rank r is series r.
// So which classes the hot ranks fall on is the same for every seed, and
// runs with different seeds measure the same traffic mix.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <random>
#include <thread>

#include "stats.h"
#include "workloads.h"

namespace sqlbench {
namespace {

using etsqp::Status;
using etsqp::db::Database;
using etsqp::metrics::NowNanos;

constexpr int kSeries = 1000;
constexpr int kShards = 4;
constexpr int64_t kPreload = 16384;    // points per series before the run
constexpr uint32_t kPageSize = 1024;   // points per page
constexpr size_t kCacheBudget = 32u << 20;
constexpr int64_t kBatch = 64;         // points per writer InsertBatch
constexpr double kWriteRate = 100000;  // points per second, open loop
// Compact after every 256 sealed pages' worth of written points.
constexpr int64_t kCompactEveryBatches = 256 * kPageSize / kBatch;
constexpr int64_t kT0 = 1'700'000'000'000;
constexpr int64_t kTick = 1000;  // every series shares this time grid
constexpr int64_t kRecentTicks = 10000;
constexpr int64_t kDownsampleTicks = 16384;
constexpr int64_t kWindowTicks = 1024;
constexpr int64_t kCompareTicks = 4096;
constexpr int kThresholds = 4;
// Float series carry values k/8: sums of them are exact in a double.
constexpr double kFloatScale = 8.0;

int64_t TimeOf(int64_t j) { return kT0 + j * kTick; }

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  size_t operator()(std::mt19937_64* rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(*rng);
    const size_t k = std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                     cdf_.begin();
    return std::min(k, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Gen {
  std::string name;
  bool is_float = false;
  bool active = false;
  /// prefix[j] = sum of the first j (scaled) values. Values are its
  /// differences; float values are those divided by kFloatScale.
  std::vector<int64_t> prefix;
  int64_t thresholds[kThresholds] = {};
  uint64_t counts[kThresholds] = {};  // values > threshold in the preload

  int64_t Scaled(int64_t j) const { return prefix[j + 1] - prefix[j]; }
  double Value(int64_t j) const {
    return is_float ? static_cast<double>(Scaled(j)) / kFloatScale
                    : static_cast<double>(Scaled(j));
  }
  /// Mean of values [lo, hi).
  double Mean(int64_t lo, int64_t hi) const {
    const double sum = static_cast<double>(prefix[hi] - prefix[lo]);
    const double n = static_cast<double>(hi - lo);
    return is_float ? sum / kFloatScale / n : sum / n;
  }
};

class IotServing : public Workload {
 public:
  IotServing(uint64_t seed, double scale, double seconds,
             std::string scratch_dir)
      : seed_(seed),
        num_series_(std::max(8, static_cast<int>(kSeries * scale))),
        num_active_(num_series_ / 4),
        // The writer may run through warm-up and two measured phases.
        future_points_(RoundUp(static_cast<int64_t>(
            kWriteRate * (2 * seconds + 10) / num_active_))),
        wal_path_(scratch_dir + "/iot_serving." + std::to_string(getpid()) +
                  ".wal"),
        db_(MakeOptions()),
        zipf_active_(num_active_, 1.1),
        zipf_all_(num_series_, 1.1) {}

  ~IotServing() override {
    StopBackground();
    db_ = Database(MakeOptions());  // closes the WAL files before removal
    for (int k = 0; k < kShards; ++k) {
      std::remove((wal_path_ + ".shard" + std::to_string(k)).c_str());
    }
  }

  Status Setup(Tracer* tracer, SetupLog* log) override;

  Database& db() override { return db_; }
  int clients() const override { return 2; }
  int engine_threads() const override { return 1; }

  QueryCase Next(int client, std::mt19937_64* rng) override;

  void StartBackground(Tracer* tracer) override {
    stop_.store(false);
    compactor_ = std::thread([this, tracer] { CompactorLoop(tracer); });
    writer_ = std::thread([this, tracer] { WriterLoop(tracer); });
  }
  void StopBackground() override {
    {
      std::lock_guard<std::mutex> lock(compact_mu_);
      stop_.store(true);
    }
    compact_cv_.notify_all();
    if (writer_.joinable()) writer_.join();
    if (compactor_.joinable()) compactor_.join();
  }
  const WriterLog* writer_log() const override { return &wlog_; }

  double BytesPerPoint() override;

  uint64_t HashData() const override {
    uint64_t h = Fnv1a(nullptr, 0);
    for (const Gen& g : gens_) {
      h = Fnv1a(g.name.data(), g.name.size(), h);
      h = Fnv1a(&g.is_float, 1, h);
      h = Fnv1a(&g.active, 1, h);
      h = Fnv1a(g.prefix.data(), g.prefix.size() * sizeof(int64_t), h);
    }
    return h;
  }

 private:
  static int64_t RoundUp(int64_t n) {
    return (n + kBatch - 1) / kBatch * kBatch;
  }

  static Database::Options MakeOptions() {
    Database::Options o;
    o.threads = 1;
    o.shards = kShards;
    o.cache_budget_bytes = kCacheBudget;
    return o;
  }

  void Generate();
  Status Load(Tracer* tracer, int64_t parent, SetupLog* log);
  void WriterLoop(Tracer* tracer);
  void CompactorLoop(Tracer* tracer);

  QueryCase Recent(std::mt19937_64* rng);
  QueryCase Downsample(std::mt19937_64* rng);
  QueryCase Alert(std::mt19937_64* rng);
  QueryCase Compare(std::mt19937_64* rng);

  int64_t Acked(int i) const {
    return acked_[i].load(std::memory_order_acquire);
  }

  const uint64_t seed_;
  const int num_series_;
  const int num_active_;
  const int64_t future_points_;
  const std::string wal_path_;
  Database db_;
  std::vector<Gen> gens_;
  // Zipf rank -> series, one seeded permutation per population.
  std::vector<int> active_, all_, ints_;
  Zipf zipf_active_, zipf_all_;
  std::unique_ptr<Zipf> zipf_int_;
  std::unique_ptr<std::atomic<int64_t>[]> acked_;

  std::atomic<bool> stop_{false};
  WriterLog wlog_;
  std::mutex compact_mu_;
  std::condition_variable compact_cv_;
  uint64_t compact_requests_ = 0;  // guarded by compact_mu_
  // Last: joined before the members they use go away.
  std::thread compactor_;
  std::thread writer_;
};

void IotServing::Generate() {
  gens_.assign(num_series_, Gen{});
  all_.clear();
  active_.clear();
  ints_.clear();
  for (int i = 0; i < num_series_; ++i) {
    Gen& g = gens_[i];
    char name[32];
    std::snprintf(name, sizeof(name), "sensor%04d", i);
    g.name = name;
    // Every 4th series is float; the writer writes one group of 4 in every
    // 16 (a quarter of all series, floats among them).
    g.is_float = i % 4 == 3;
    g.active = (i / 4) % 4 == 0 &&
               static_cast<int>(active_.size()) < num_active_;
    all_.push_back(i);
    if (g.active) active_.push_back(i);
    if (!g.is_float) ints_.push_back(i);
  }
  zipf_int_ = std::make_unique<Zipf>(ints_.size(), 1.1);

  for (int i = 0; i < num_series_; ++i) {
    Gen& g = gens_[i];
    const int64_t n = kPreload + (g.active ? future_points_ : 0);
    std::mt19937_64 rng(DeriveSeed(seed_, 1000 + i));
    // A random walk with a per-series step size and rare one-point spikes.
    const int64_t sigma = 1 + static_cast<int64_t>(rng() % 16);
    int64_t level = 1000 + static_cast<int64_t>(rng() % 4000);
    g.prefix.resize(n + 1);
    g.prefix[0] = 0;
    for (int64_t j = 0; j < n; ++j) {
      level += static_cast<int64_t>(rng() % (2 * sigma + 1)) - sigma;
      const int64_t spike = rng() % 1000 == 0 ? 64 * sigma : 0;
      g.prefix[j + 1] = g.prefix[j] + level + spike;
    }
    if (!g.is_float) {
      std::vector<int64_t> sorted(kPreload);
      for (int64_t j = 0; j < kPreload; ++j) sorted[j] = g.Scaled(j);
      std::sort(sorted.begin(), sorted.end());
      static constexpr double kQuantiles[kThresholds] = {0.5, 0.9, 0.99,
                                                         0.999};
      for (int t = 0; t < kThresholds; ++t) {
        g.thresholds[t] = sorted[static_cast<size_t>(kQuantiles[t] * kPreload)];
        g.counts[t] = static_cast<uint64_t>(
            sorted.end() - std::upper_bound(sorted.begin(), sorted.end(),
                                            g.thresholds[t]));
      }
    }
  }
  acked_ = std::make_unique<std::atomic<int64_t>[]>(num_series_);
  for (int i = 0; i < num_series_; ++i) acked_[i].store(kPreload);
}

Status IotServing::Load(Tracer* tracer, int64_t parent, SetupLog* log) {
  ETSQP_RETURN_IF_ERROR(db_.EnableCompaction());
  std::vector<int64_t> times(kPageSize), values(kPageSize);
  std::vector<double> fvalues(kPageSize);
  for (const Gen& g : gens_) {
    if (g.is_float) {
      ETSQP_RETURN_IF_ERROR(db_.CreateFloatTimeseries(
          g.name, etsqp::enc::ColumnEncoding::kGorillaValue, kPageSize));
    } else {
      ETSQP_RETURN_IF_ERROR(db_.CreateTimeseries(g.name, kPageSize));
    }
    for (int64_t at = 0; at < kPreload; at += kPageSize) {
      for (uint32_t k = 0; k < kPageSize; ++k) {
        times[k] = TimeOf(at + k);
        values[k] = g.Scaled(at + k);
        fvalues[k] = g.Value(at + k);
      }
      const uint64_t t0 = NowNanos();
      Status st =
          g.is_float
              ? db_.InsertBatchF64(g.name, times.data(), fvalues.data(),
                                   kPageSize)
              : db_.InsertBatch(g.name, times.data(), values.data(), kPageSize);
      const uint64_t t1 = NowNanos();
      ETSQP_RETURN_IF_ERROR(st);
      tracer->Record("db.insert_batch", t0, t1, parent);
      log->insert_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
  }
  ETSQP_RETURN_IF_ERROR(db_.Flush());
  log->ingest = db_.ingest_stats();
  // The preload's first compaction pass happens here, all shards at once
  // on the pool (no client runs yet), so the passes in the measured run see
  // only newly written pages.
  const uint64_t t0 = NowNanos();
  ETSQP_RETURN_IF_ERROR(db_.Compact());
  tracer->Record("db.compact", t0, NowNanos(), parent);
  Database::IngestConfig ingest;
  ingest.wal_path = wal_path_;
  ingest.fsync = etsqp::storage::Wal::FsyncPolicy::kNever;
  ingest.background_seal = true;
  return db_.EnableIngest(ingest);
}

Status IotServing::Setup(Tracer* tracer, SetupLog* log) {
  const int64_t root = tracer->Open("setup", NowNanos());
  int64_t span = tracer->Open("setup.generate", NowNanos(), root);
  Generate();
  tracer->Close(span, NowNanos());
  span = tracer->Open("setup.load", NowNanos(), root);
  Status st = Load(tracer, span, log);
  tracer->Close(span, NowNanos());
  tracer->Close(root, NowNanos());
  return st;
}

void IotServing::WriterLoop(Tracer* tracer) {
  using Clock = std::chrono::steady_clock;
  const auto period = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 * kBatch / kWriteRate));
  const Clock::time_point start = Clock::now();
  std::vector<int64_t> times(kBatch), values(kBatch);
  std::vector<double> fvalues(kBatch);
  for (int64_t b = 0; !stop_.load(std::memory_order_relaxed); ++b) {
    const Clock::time_point due = start + b * period;
    std::this_thread::sleep_until(due);
    const int idx = active_[b % num_active_];
    const Gen& g = gens_[idx];
    const int64_t j0 = Acked(idx);
    if (j0 + kBatch >= static_cast<int64_t>(g.prefix.size())) break;
    for (int64_t k = 0; k < kBatch; ++k) {
      times[k] = TimeOf(j0 + k);
      values[k] = g.Scaled(j0 + k);
      fvalues[k] = g.Value(j0 + k);
    }
    const uint64_t due_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            due.time_since_epoch())
            .count());
    const uint64_t issue = NowNanos();
    Status st = g.is_float ? db_.InsertBatchF64(g.name, times.data(),
                                                fvalues.data(), kBatch)
                           : db_.InsertBatch(g.name, times.data(),
                                             values.data(), kBatch);
    const uint64_t done = NowNanos();
    tracer->Record("db.insert_batch", issue, done);
    ++wlog_.attempted;
    wlog_.batches.push_back(
        WriterLog::Batch{due_ns, static_cast<double>(done - due_ns) / 1e3,
                         static_cast<double>(issue - std::min(issue, due_ns)) /
                             1e3});
    if (st.ok()) {
      acked_[idx].store(j0 + kBatch, std::memory_order_release);
    } else {
      ++wlog_.rejected;
      if (wlog_.first_error.empty()) wlog_.first_error = st.ToString();
    }
    if ((b + 1) % 256 == 0) {
      wlog_.tail_points_max =
          std::max(wlog_.tail_points_max, db_.ingest_stats().tail_points);
    }
    if ((b + 1) % kCompactEveryBatches == 0) {
      {
        std::lock_guard<std::mutex> lock(compact_mu_);
        ++compact_requests_;
      }
      compact_cv_.notify_one();
    }
  }
}

void IotServing::CompactorLoop(Tracer* tracer) {
  uint64_t done = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(compact_mu_);
      compact_cv_.wait(
          lock, [&] { return stop_.load() || compact_requests_ > done; });
      if (stop_.load()) return;
      done = compact_requests_;
    }
    // One shard at a time on this one thread, which keeps the pass within
    // the thread budget; the writer keeps its schedule meanwhile.
    for (int k = 0; k < kShards; ++k) {
      const uint64_t t0 = NowNanos();
      Status cs = db_.Compact(k);
      const uint64_t t1 = NowNanos();
      tracer->Record("db.compact", t0, t1);
      std::lock_guard<std::mutex> lock(compact_mu_);
      wlog_.compaction_windows.emplace_back(t0, t1);
      if (!cs.ok()) {
        ++wlog_.compaction_errors;
        if (wlog_.compaction_error.empty()) {
          wlog_.compaction_error = cs.ToString();
        }
      }
    }
  }
}

QueryCase IotServing::Next(int /*client*/, std::mt19937_64* rng) {
  const double u = std::uniform_real_distribution<double>(0, 1)(*rng);
  if (u < 0.40) return Recent(rng);
  if (u < 0.65) return Downsample(rng);
  if (u < 0.85) return Alert(rng);
  return Compare(rng);
}

QueryCase IotServing::Recent(std::mt19937_64* rng) {
  const int idx = active_[zipf_active_(rng)];
  const Gen& g = gens_[idx];
  const int64_t h = Acked(idx);
  const int64_t lo = h - kRecentTicks;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "SELECT AVG(v) FROM %s WHERE time >= %lld AND time <= %lld",
                g.name.c_str(), static_cast<long long>(TimeOf(lo)),
                static_cast<long long>(TimeOf(h - 1)));
  auto want = std::make_shared<Expected>();
  want->columns = {{g.Mean(lo, h)}};
  want->rel_tol = 1e-12;
  return StaticCase("recent", buf, std::move(want));
}

QueryCase IotServing::Downsample(std::mt19937_64* rng) {
  const int idx = all_[zipf_all_(rng)];
  const Gen& g = gens_[idx];
  const int64_t h0 = Acked(idx);
  // Window-aligned start, so every window but the newest is full.
  const int64_t j0 = (h0 - kDownsampleTicks) / kWindowTicks * kWindowTicks;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "SELECT AVG(v) FROM %s WHERE time >= %lld SW(%lld, %lld)",
                g.name.c_str(), static_cast<long long>(TimeOf(j0)),
                static_cast<long long>(TimeOf(j0)),
                static_cast<long long>(kWindowTicks * kTick));
  QueryCase c;
  c.kind = "downsample";
  c.sql = buf;
  // The query has no upper time bound, so it sees the series up to some
  // point count between the high-water mark read before the call and the
  // one after it (plus one batch being acknowledged). Batches are
  // all-or-nothing, so a correct answer matches one of those counts.
  c.check = [this, idx, j0, h0](const etsqp::exec::QueryResult& r,
                                std::string* why) {
    const Gen& gen = gens_[idx];
    const int64_t h1 = std::min<int64_t>(
        Acked(idx) + kBatch, static_cast<int64_t>(gen.prefix.size()) - 1);
    for (int64_t h = h0; h <= h1; h += kBatch) {
      Expected e;
      e.rel_tol = 1e-12;
      e.columns.assign(2, {});
      for (int64_t w = j0; w < h; w += kWindowTicks) {
        e.columns[0].push_back(static_cast<double>(TimeOf(w)));
        e.columns[1].push_back(gen.Mean(w, std::min(h, w + kWindowTicks)));
      }
      if (Matches(r, e, why)) return true;
    }
    return false;
  };
  return c;
}

QueryCase IotServing::Alert(std::mt19937_64* rng) {
  const Gen& g = gens_[ints_[(*zipf_int_)(rng)]];
  const int t = static_cast<int>((*rng)() % kThresholds);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "SELECT COUNT(v) FROM %s WHERE v > %lld AND time <= %lld",
                g.name.c_str(), static_cast<long long>(g.thresholds[t]),
                static_cast<long long>(TimeOf(kPreload - 1)));
  auto want = std::make_shared<Expected>();
  want->columns = {{static_cast<double>(g.counts[t])}};
  return StaticCase("alert", buf, std::move(want));
}

QueryCase IotServing::Compare(std::mt19937_64* rng) {
  const int a = ints_[(*zipf_int_)(rng)];
  int b = a;
  while (b == a) b = ints_[(*zipf_int_)(rng)];
  const Gen& ga = gens_[a];
  const Gen& gb = gens_[b];
  const int64_t h = std::min(Acked(a), Acked(b));
  const int64_t lo = h - kCompareTicks;
  const bool corr = (*rng)() % 2 == 0;
  char buf[240];
  if (corr) {
    std::snprintf(buf, sizeof(buf),
                  "SELECT CORR(%s.v, %s.v) FROM %s, %s WHERE time >= %lld "
                  "AND time <= %lld",
                  ga.name.c_str(), gb.name.c_str(), ga.name.c_str(),
                  gb.name.c_str(), static_cast<long long>(TimeOf(lo)),
                  static_cast<long long>(TimeOf(h - 1)));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "SELECT %s.v - %s.v FROM %s, %s WHERE time >= %lld AND "
                  "time <= %lld",
                  ga.name.c_str(), gb.name.c_str(), ga.name.c_str(),
                  gb.name.c_str(), static_cast<long long>(TimeOf(lo)),
                  static_cast<long long>(TimeOf(h - 1)));
  }
  QueryCase c;
  c.kind = corr ? "compare_corr" : "compare_diff";
  c.sql = buf;
  c.check = [this, a, b, lo, h, corr](const etsqp::exec::QueryResult& r,
                                      std::string* why) {
    const Gen& x = gens_[a];
    const Gen& y = gens_[b];
    Expected e;
    if (corr) {
      long double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
      for (int64_t j = lo; j < h; ++j) {
        const long double vx = x.Scaled(j), vy = y.Scaled(j);
        sx += vx;
        sy += vy;
        sxx += vx * vx;
        syy += vy * vy;
        sxy += vx * vy;
      }
      const long double n = static_cast<long double>(h - lo);
      const long double cov = sxy / n - (sx / n) * (sy / n);
      const long double vx = sxx / n - (sx / n) * (sx / n);
      const long double vy = syy / n - (sy / n) * (sy / n);
      const long double den = std::sqrt(vx) * std::sqrt(vy);
      e.columns = {{static_cast<double>(den > 0 ? cov / den : 0)},
                   {static_cast<double>(cov)},
                   {static_cast<double>(n)}};
      e.rel_tol = 1e-6;
    } else {
      e.columns.assign(2, {});
      for (int64_t j = lo; j < h; ++j) {
        e.columns[0].push_back(static_cast<double>(TimeOf(j)));
        e.columns[1].push_back(static_cast<double>(x.Scaled(j) - y.Scaled(j)));
      }
    }
    return Matches(r, e, why);
  };
  return c;
}

double IotServing::BytesPerPoint() {
  if (!db_.Flush().ok()) return 0;
  uint64_t bytes = 0;
  const Database& db = db_;
  for (int k = 0; k < kShards; ++k) {
    const etsqp::storage::SeriesStore& store = db.shard_store(k);
    for (const std::string& name : store.SeriesNames()) {
      bytes += store.EncodedBytes(name);
    }
  }
  uint64_t points = 0;
  for (int i = 0; i < num_series_; ++i) points += Acked(i);
  return points == 0 ? 0 : static_cast<double>(bytes) / points;
}

}  // namespace

std::unique_ptr<Workload> MakeIotServing(uint64_t seed, double scale,
                                         double seconds,
                                         const std::string& scratch_dir) {
  return std::make_unique<IotServing>(seed, scale, seconds, scratch_dir);
}

}  // namespace sqlbench
