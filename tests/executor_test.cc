// Tests for the persistent work-stealing executor (exec/thread_pool.h), the
// PipelineJob framework plumbing visible through Engine, and the concurrency
// contract of db::Database. Covers the acceptance points of the executor
// refactor: pool reuse across queries, nested submission, exception
// propagation (TaskGroup and RunPipelineJobs), deterministic
// shutdown/re-init, and concurrent query execution over one store.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "db/database.h"
#include "exec/engine.h"
#include "exec/pipeline_job.h"
#include "exec/scheduler.h"
#include "exec/thread_pool.h"
#include "storage/series_store.h"

namespace etsqp::exec {
namespace {

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, LazySpinUpAndTaskExecution) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.workers_running(), 0);  // no threads before first Submit
  EXPECT_EQ(pool.threads_started(), 0u);
  std::atomic<int> hits{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 32; ++i) group.Submit([&] { hits.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(hits.load(), 32);
  EXPECT_GT(pool.threads_started(), 0u);
  EXPECT_GE(pool.stats().tasks, 32u);
}

TEST(ThreadPoolTest, ReserveGrowsTargetNeverShrinks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.target_workers(), 1);
  pool.Reserve(3);
  EXPECT_EQ(pool.target_workers(), 3);
  pool.Reserve(2);  // never shrinks
  EXPECT_EQ(pool.target_workers(), 3);
  pool.Reserve(ThreadPool::kMaxWorkers + 100);  // capped
  EXPECT_EQ(pool.target_workers(), ThreadPool::kMaxWorkers);
}

TEST(ThreadPoolTest, DeterministicShutdownAndReInit) {
  ThreadPool pool(2);
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::atomic<int> hits{0};
    TaskGroup group(&pool);
    for (int i = 0; i < 8; ++i) group.Submit([&] { hits.fetch_add(1); });
    group.Wait();
    EXPECT_EQ(hits.load(), 8) << "cycle " << cycle;
    uint64_t started_before = pool.threads_started();
    pool.Shutdown();
    EXPECT_EQ(pool.workers_running(), 0) << "cycle " << cycle;
    EXPECT_EQ(pool.threads_started(), started_before);  // join, not spawn
    pool.Shutdown();  // idempotent
  }
  // After the last Shutdown the pool lazily respawned workers each cycle.
  EXPECT_GE(pool.threads_started(), 2u);
}

TEST(ThreadPoolTest, NestedSubmissionComposesOnSingleWorkerPool) {
  // A task that itself submits tasks and waits must not deadlock even when
  // the pool has a single worker: TaskGroup::Wait helps drain the pool.
  ThreadPool pool(1);
  std::atomic<int> inner_hits{0};
  TaskGroup outer(&pool);
  for (int j = 0; j < 4; ++j) {
    outer.Submit([&] {
      TaskGroup inner(&pool);
      for (int i = 0; i < 8; ++i) inner.Submit([&] { inner_hits.fetch_add(1); });
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(inner_hits.load(), 32);
}

TEST(ThreadPoolTest, WaiterHelpsWithoutAnyWorkers) {
  // kMaxWorkers-capped pools can in principle reach target 0 only via a
  // degenerate construction; more practically, the caller must make progress
  // even if workers are slow to spin up. Force the situation with target 1
  // and a task that blocks until the waiter has helped another task.
  ThreadPool pool(1);
  std::atomic<int> hits{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 64; ++i) group.Submit([&] { hits.fetch_add(1); });
  group.Wait();  // caller + at most one worker drain all 64
  EXPECT_EQ(hits.load(), 64);
}

TEST(TaskGroupTest, WaitRethrowsFirstExceptionAndRunsAllTasks) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 16; ++i) {
    group.Submit([&, i] {
      hits.fetch_add(1);
      if (i == 5) throw std::runtime_error("task 5 failed");
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // Remaining tasks still ran (shared captures stayed alive through Wait).
  EXPECT_EQ(hits.load(), 16);
}

TEST(TaskGroupTest, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  TaskGroup group(&pool);
  group.Submit([&] { hits.fetch_add(1); });
  group.Wait();
  group.Submit([&] { hits.fetch_add(1); });
  group.Submit([&] { hits.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(hits.load(), 3);
  EXPECT_EQ(group.tasks_run(), 3u);
}

TEST(TaskGroupTest, ErrorDoesNotPoisonNextBatch) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
  std::atomic<int> hits{0};
  group.Submit([&] { hits.fetch_add(1); });
  group.Wait();  // no stale exception rethrown
  EXPECT_EQ(hits.load(), 1);
}

// -------------------------------------------------- PipelineJob framework

TEST(PipelineJobsTest, ThrowingJobPropagatesExceptionMultiThread) {
  std::atomic<int> hits{0};
  PipelineJobSet set;
  set.num_jobs = 16;
  set.job = [&](size_t i) -> Status {
    hits.fetch_add(1);
    if (i == 3) throw std::runtime_error("job 3");
    return Status::Ok();
  };
  EXPECT_THROW(RunPipelineJobs(set, PipelineOptions::Etsqp(4), nullptr),
               std::runtime_error);
  EXPECT_EQ(hits.load(), 16);  // remaining jobs still drained
}

TEST(PipelineJobsTest, ThrowingJobPropagatesExceptionInline) {
  PipelineJobSet set;
  set.num_jobs = 4;
  set.job = [](size_t i) -> Status {
    if (i == 2) throw std::runtime_error("job 2");
    return Status::Ok();
  };
  EXPECT_THROW(RunPipelineJobs(set, PipelineOptions::Serial(), nullptr),
               std::runtime_error);
}

// ------------------------------------------------- PlanSlices regression

TEST(SchedulerTest, PlanSlicesFanOutMatchesPaperBoundPagesUnderCores) {
  // Fewer pages than cores: each page splits into at most
  // ceil(p_c / #Pages) block-aligned slices (Section III-C). With 2 pages
  // of 8192 values, 8 cores, 1024-value blocks: ceil(8/2) = 4 slices per
  // page of exactly 2048 values — 8 slices total, one per core. The
  // reciprocal misreading ceil(#Pages / p_c) would yield 1 slice per page
  // and leave 6 of the 8 cores idle.
  std::vector<size_t> counts(2, 8192);
  auto slices = PlanSlices(counts, 8, 1024);
  ASSERT_EQ(slices.size(), 8u);
  for (size_t s = 0; s < slices.size(); ++s) {
    EXPECT_EQ(slices[s].page_index, s / 4);
    EXPECT_EQ(slices[s].end - slices[s].begin, 2048u);
    EXPECT_EQ(slices[s].begin % 1024, 0u);
  }
}

// ------------------------------------------------- Engine on shared pool

struct Fixture {
  storage::SeriesStore store;
  int64_t sum = 0;
  size_t n = 0;
};

Fixture MakeFixture(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Fixture f;
  f.n = n;
  std::vector<int64_t> times(n), values(n);
  int64_t t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += 1 + static_cast<int64_t>(rng() % 5);
    times[i] = t;
    values[i] = static_cast<int64_t>(rng() % 1000);
    f.sum += values[i];
  }
  storage::SeriesStore::SeriesOptions opt;
  opt.page_size = 1000;
  EXPECT_TRUE(f.store.CreateSeries("ts", opt).ok());
  EXPECT_TRUE(f.store.AppendBatch("ts", times.data(), values.data(), n).ok());
  EXPECT_TRUE(f.store.Flush().ok());
  return f;
}

TEST(ExecutorEngineTest, WarmPoolIsReusedAcrossQueries) {
  Fixture f = MakeFixture(20000, 11);
  Engine engine(PipelineOptions::Etsqp(4));
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  // First query warms the global pool (lazy spin-up).
  Result<QueryResult> warm = engine.Execute(plan, f.store);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  uint64_t started = ThreadPool::Global().threads_started();
  for (int i = 0; i < 10; ++i) {
    Result<QueryResult> r = engine.Execute(plan, f.store);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().columns[0][0], static_cast<double>(f.sum));
  }
  // The refactor's core claim: steady-state queries construct no threads.
  EXPECT_EQ(ThreadPool::Global().threads_started(), started);
}

TEST(ExecutorEngineTest, ConcurrentQueriesOverOneStore) {
  Fixture f = MakeFixture(30000, 13);
  Engine engine(PipelineOptions::Etsqp(2));
  constexpr int kClients = 8;
  constexpr int kQueriesEach = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
      for (int q = 0; q < kQueriesEach; ++q) {
        Result<QueryResult> r = engine.Execute(plan, f.store);
        if (!r.ok() || r.value().num_rows() != 1 ||
            r.value().columns[0][0] != static_cast<double>(f.sum)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ExecutorEngineTest, PoolStatsSurfaceInExecStats) {
  Fixture f = MakeFixture(20000, 17);
  Engine engine(PipelineOptions::Etsqp(4).WithStats(true));
  LogicalPlan plan = LogicalPlan::Aggregate("ts", AggFunc::kSum);
  Result<QueryResult> r = engine.Execute(plan, f.store);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 20 pages across 4 runners: the pool ran tasks, and EXPLAIN ANALYZE's
  // source fields are populated.
  EXPECT_GT(r.value().stats.pool_workers, 1);
  EXPECT_GT(r.value().stats.pool.tasks, 0u);
}

// -------------------------------------------------- Database concurrency

db::Database MakeDb(size_t n, int64_t* sum_out) {
  db::Database dbi(db::Database::Options{db::Database::Mode::kSimd, 2});
  EXPECT_TRUE(dbi.CreateTimeseries("s").ok());
  std::mt19937_64 rng(29);
  int64_t t = 0, sum = 0;
  std::vector<int64_t> times(n), values(n);
  for (size_t i = 0; i < n; ++i) {
    t += 1 + static_cast<int64_t>(rng() % 3);
    times[i] = t;
    values[i] = static_cast<int64_t>(rng() % 500);
    sum += values[i];
  }
  EXPECT_TRUE(dbi.InsertBatch("s", times.data(), values.data(), n).ok());
  EXPECT_TRUE(dbi.Flush().ok());
  *sum_out = sum;
  return dbi;
}

TEST(IotDbLiteConcurrencyTest, ParallelQueriesWithReconfigurationChurn) {
  int64_t sum = 0;
  // Deliberately small: each reconfiguration below waits out in-flight
  // queries, and this test also runs under TSan in CI where a query costs
  // ~100x wall time.
  db::Database dbi = MakeDb(4000, &sum);
  constexpr int kClients = 4;
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = dbi.Query("SELECT SUM(s) FROM s;");
        if (!r.ok() || r.value().num_rows() != 1 ||
            r.value().columns[0][0] != static_cast<double>(sum)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Reconfigure under load: thread-count and mode churn must serialize
  // against in-flight queries without corrupting results.
  for (int i = 0; i < 10; ++i) {
    dbi.SetThreads(1 + i % 4);
    if (i % 5 == 0) {
      dbi.SetMode(i % 10 == 0 ? db::Database::Mode::kScalar
                              : db::Database::Mode::kSimd);
    }
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace etsqp::exec
