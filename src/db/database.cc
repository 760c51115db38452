#include "db/database.h"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "db/shard_router.h"
#include "exec/thread_pool.h"
#include "sql/planner.h"
#include "storage/page_builder.h"
#include "storage/tsfile.h"

namespace etsqp::db {

namespace {

exec::PipelineOptions ModeOptions(Database::Mode mode, int threads,
                                  bool collect_stats) {
  exec::PipelineOptions o = mode == Database::Mode::kScalar
                                ? exec::PipelineOptions::Serial()
                                : exec::PipelineOptions::EtsqpPrune(threads);
  return o.WithStats(collect_stats);
}

bool HasRightInput(const exec::LogicalPlan& plan) {
  return plan.kind == exec::LogicalPlan::Kind::kProjectBinary ||
         plan.kind == exec::LogicalPlan::Kind::kUnion ||
         plan.kind == exec::LogicalPlan::Kind::kJoin ||
         plan.kind == exec::LogicalPlan::Kind::kCorrelate;
}

/// True when [begin, end) holds one base-10 int64 followed by nothing but
/// whitespace (spaces, tabs, CR/LF); the parsed value lands in `out`.
bool ParseCsvInt(const char* begin, const char* end, long long* out) {
  errno = 0;
  char* stop = nullptr;
  *out = std::strtoll(begin, &stop, 10);
  if (stop == begin || errno != 0) return false;
  while (stop < end && std::isspace(static_cast<unsigned char>(*stop))) {
    ++stop;
  }
  return stop == end;
}

}  // namespace

struct Database::Rep {
  Mode mode;
  int threads;
  bool collect_stats = false;
  bool testing_fail_before_wal_truncate = false;
  /// Rebuilt under the writer side of engine_mu whenever mode, threads or
  /// stats collection change.
  exec::Engine engine;

  ShardRouter router;
  std::vector<std::unique_ptr<Shard>> shards;
  /// Owns the background-seal tasks submitted on the shards' behalf.
  /// Declared after shards so it is destroyed first: the TaskGroup
  /// destructor waits out in-flight encodes before the stores go away.
  std::unique_ptr<exec::TaskGroup> seal_group;

  ResultCache cache;
  storage::Wal::ReplayStats last_recovery;

  /// Readers = Query() executions; writers = engine reconfiguration and
  /// file-store attach/detach.
  mutable std::shared_mutex engine_mu;

  explicit Rep(const Options& o)
      : mode(o.mode),
        threads(o.mode == Mode::kScalar ? 1 : (o.threads > 0 ? o.threads : 1)),
        engine(ModeOptions(mode, threads, collect_stats)),
        router(o.shards),
        cache(o.cache_budget_bytes) {
    for (int k = 0; k < router.num_shards(); ++k) {
      shards.push_back(std::make_unique<Shard>(k));
    }
  }

  /// Caller holds engine_mu exclusively.
  void RebuildEngineLocked() {
    engine = exec::Engine(ModeOptions(mode, threads, collect_stats));
  }

  Shard& ShardFor(const std::string& series) {
    return *shards[router.ShardOf(series)];
  }
  const Shard& ShardFor(const std::string& series) const {
    return *shards[router.ShardOf(series)];
  }

  /// Plan signature + per-input (series, data epoch) + shard layout. Two
  /// queries computing equal keys saw identical data (SeriesSnapshot::epoch
  /// contract), so the cache needs no explicit invalidation hooks.
  std::string CacheKey(const exec::LogicalPlan& plan) const {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "k%d|f%d|t[%" PRId64 ",%" PRId64 "]|v%d%c%" PRId64
                  ",%" PRId64 "%c|w%d(%" PRId64 ",%" PRId64 ")|b%c|i%c|s%d",
                  static_cast<int>(plan.kind), static_cast<int>(plan.func),
                  plan.time_filter.lo, plan.time_filter.hi,
                  plan.value_filter.active ? 1 : 0,
                  plan.value_filter.lo_strict ? '(' : '[',
                  plan.value_filter.lo, plan.value_filter.hi,
                  plan.value_filter.hi_strict ? ')' : ']',
                  plan.window.active ? 1 : 0,
                  plan.window.t_min, plan.window.delta_t, plan.binary_op,
                  plan.inter_column_op ? plan.inter_column_op : '.',
                  router.num_shards());
    std::string key = buf;
    auto input = [&](const std::string& name) {
      const storage::SeriesStore& store = ShardFor(name).store;
      key += '|';
      key += name;
      key += '@';
      key += std::to_string(store.SeriesEpoch(name));
    };
    input(plan.series);
    if (HasRightInput(plan)) input(plan.series_right);
    return key;
  }

  /// The EXPLAIN ANALYZE serving-layer block appended below the engine's
  /// execution profile.
  void AppendServingProfile(int primary_shard, exec::QueryResult* out) const {
    char buf[256];
    out->explain_text += "---- serving layer ----\n";
    std::snprintf(buf, sizeof(buf), "shard: %d of %d (primary)\n",
                  primary_shard, router.num_shards());
    out->explain_text += buf;
    ResultCache::Stats cs = cache.stats();
    if (cs.budget_bytes > 0) {
      std::snprintf(buf, sizeof(buf),
                    "result cache: hits=%" PRIu64 " misses=%" PRIu64
                    " | global entries=%" PRIu64 " bytes=%" PRIu64
                    "/%" PRIu64 " evictions=%" PRIu64 "\n",
                    out->stats.cache_hits, out->stats.cache_misses, cs.entries,
                    cs.bytes, cs.budget_bytes, cs.evictions);
      out->explain_text += buf;
    } else {
      out->explain_text += "result cache: off\n";
    }
    metrics::CompactionStats comp;
    for (const auto& shard : shards) {
      if (shard->compactor != nullptr) comp.Merge(shard->compactor->stats());
    }
    if (!comp.empty()) {
      std::snprintf(buf, sizeof(buf),
                    "compaction: runs=%" PRIu64 " pages %" PRIu64 "->%" PRIu64
                    " (reencoded=%" PRIu64 ") bytes %" PRIu64 "->%" PRIu64
                    " dropped=%" PRIu64 " ooo_merged=%" PRIu64 "\n",
                    comp.runs, comp.pages_in, comp.pages_out,
                    comp.pages_reencoded, comp.bytes_in, comp.bytes_out,
                    comp.deleted_points_dropped, comp.ooo_points_merged);
      out->explain_text += buf;
    }
  }
};

Database::Database() : Database(Options()) {}
Database::Database(const Options& options)
    : rep_(std::make_unique<Rep>(options)) {}
Database::~Database() = default;
Database::Database(Database&&) noexcept = default;
Database& Database::operator=(Database&&) noexcept = default;

// --- Catalog + ingest ------------------------------------------------------

Status Database::CreateTimeseries(const std::string& name,
                                  uint32_t page_size) {
  storage::SeriesStore::SeriesOptions options;
  options.page_size = page_size;
  return rep_->ShardFor(name).store.CreateSeries(name, options);
}

Status Database::CreateTimeseries(
    const std::string& name,
    const storage::SeriesStore::SeriesOptions& options) {
  return rep_->ShardFor(name).store.CreateSeries(name, options);
}

Status Database::CreateFloatTimeseries(const std::string& name,
                                       enc::ColumnEncoding encoding,
                                       uint32_t page_size) {
  if (!enc::IsFloatEncoding(encoding)) {
    return Status::InvalidArgument("not a float encoding");
  }
  storage::SeriesStore::SeriesOptions options;
  options.page_size = page_size;
  options.page.value_encoding = encoding;
  return rep_->ShardFor(name).store.CreateSeries(name, options);
}

Status Database::Insert(const std::string& name, int64_t time, int64_t value) {
  return rep_->ShardFor(name).store.Append(name, time, value);
}

Status Database::InsertBatch(const std::string& name, const int64_t* times,
                             const int64_t* values, size_t n) {
  return rep_->ShardFor(name).store.AppendBatch(name, times, values, n);
}

Status Database::InsertF64(const std::string& name, int64_t time,
                           double value) {
  return rep_->ShardFor(name).store.AppendF64(name, time, value);
}

Status Database::InsertBatchF64(const std::string& name, const int64_t* times,
                                const double* values, size_t n) {
  return rep_->ShardFor(name).store.AppendBatchF64(name, times, values, n);
}

Status Database::Flush() {
  for (auto& shard : rep_->shards) {
    ETSQP_RETURN_IF_ERROR(shard->store.Flush());
  }
  return Status::Ok();
}

Status Database::EnableCompaction() {
  Rep* rep = rep_.get();
  std::unique_lock<std::shared_mutex> lock(rep->engine_mu);
  for (auto& shard : rep->shards) {
    shard->compactor = std::make_unique<storage::Compactor>(&shard->store);
  }
  return Status::Ok();
}

Status Database::Compact(int shard) {
  Rep* rep = rep_.get();
  std::shared_lock<std::shared_mutex> lock(rep->engine_mu);
  const int n = rep->router.num_shards();
  if (shard < -1 || shard >= n) {
    return Status::InvalidArgument("no shard " + std::to_string(shard));
  }
  for (const auto& s : rep->shards) {
    if (s->compactor == nullptr) {
      return Status::FailedPrecondition("call EnableCompaction first");
    }
  }
  if (shard >= 0) return rep->shards[shard]->compactor->CompactAll();
  if (n == 1) return rep->shards[0]->compactor->CompactAll();
  // Fan out one pass per shard on the shared pool; queries keep running
  // (compaction takes the store lock only to capture and to install).
  exec::TaskGroup group;
  std::vector<Status> results(n);
  for (int k = 0; k < n; ++k) {
    Shard* s = rep->shards[k].get();
    Status* out = &results[k];
    group.Submit([s, out] { *out = s->compactor->CompactAll(); });
  }
  group.Wait();
  for (const Status& st : results) {
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

Status Database::DeleteRange(const std::string& name, int64_t t0,
                             int64_t t1) {
  return rep_->ShardFor(name).store.DeleteRange(name, t0, t1);
}

Status Database::SetTtl(const std::string& name, int64_t ttl_nanos) {
  return rep_->ShardFor(name).store.SetTtl(name, ttl_nanos);
}

metrics::CompactionStats Database::compaction_stats() const {
  metrics::CompactionStats total;
  for (const auto& shard : rep_->shards) {
    if (shard->compactor != nullptr) total.Merge(shard->compactor->stats());
  }
  return total;
}

Status Database::EnableIngest(const IngestConfig& config) {
  Rep* rep = rep_.get();
  const int n = rep->router.num_shards();
  if (!config.wal_path.empty()) {
    for (auto& shard : rep->shards) {
      if (shard->store.wal() != nullptr) {
        return Status::InvalidArgument("a WAL is already attached");
      }
    }
    storage::Wal::ReplayStats agg;
    for (auto& shard : rep->shards) {
      Result<std::unique_ptr<storage::Wal>> wal = storage::Wal::Open(
          Shard::ArtifactPath(config.wal_path, shard->index, n),
          config.fsync);
      if (!wal.ok()) return wal.status();
      // Recovery before attach: records from an earlier run (possibly on
      // top of a Load()ed checkpoint) are applied idempotently, a torn tail
      // is truncated away, and only then does the log accept new appends.
      storage::Wal::ReplayStats replay;
      ETSQP_RETURN_IF_ERROR(wal.value()->ReplayInto(&shard->store, &replay));
      agg.records_applied += replay.records_applied;
      agg.records_skipped += replay.records_skipped;
      agg.records_dropped += replay.records_dropped;
      agg.bytes_dropped += replay.bytes_dropped;
      agg.points_applied += replay.points_applied;
      shard->store.AttachWal(std::move(wal).value());
    }
    rep->last_recovery = agg;
  }
  if (config.background_seal) {
    if (rep->seal_group == nullptr) {
      rep->seal_group = std::make_unique<exec::TaskGroup>();
    }
    exec::TaskGroup* group = rep->seal_group.get();
    for (auto& shard : rep->shards) {
      shard->store.SetBackgroundSeal(true, [group](std::function<void()> fn) {
        group->Submit(std::move(fn));
      });
    }
  }
  return Status::Ok();
}

Status Database::Checkpoint(const std::string& path) {
  Rep* rep = rep_.get();
  const int n = rep->router.num_shards();
  for (auto& shard : rep->shards) {
    ETSQP_RETURN_IF_ERROR(shard->store.Flush());
    ETSQP_RETURN_IF_ERROR(storage::WriteTsFile(
        shard->store, Shard::ArtifactPath(path, shard->index, n)));
    storage::Wal* wal = shard->store.wal();
    if (wal != nullptr && !rep->testing_fail_before_wal_truncate) {
      // The TsFile now covers every logged point; the log restarts empty.
      ETSQP_RETURN_IF_ERROR(wal->Reset());
    }
  }
  return Status::Ok();
}

void Database::TestingFailBeforeWalTruncate(bool on) {
  rep_->testing_fail_before_wal_truncate = on;
}

metrics::IngestStats Database::ingest_stats() const {
  metrics::IngestStats total;
  for (const auto& shard : rep_->shards) {
    total.Merge(shard->store.ingest_stats());
  }
  return total;
}

const storage::Wal::ReplayStats& Database::last_recovery() const {
  return rep_->last_recovery;
}

// --- Queries ---------------------------------------------------------------

Result<exec::QueryResult> Database::Query(const std::string& sql) const {
  Result<exec::LogicalPlan> plan = sql::PlanQuery(sql);
  if (!plan.ok()) return plan.status();
  const exec::LogicalPlan& p = plan.value();
  Rep* rep = rep_.get();

  std::shared_lock<std::shared_mutex> lock(rep->engine_mu);
  Shard& primary = rep->ShardFor(p.series);

  if (primary.file_store != nullptr) {
    // File-backed shards: each input snapshots on its owning shard's file
    // and its pages stream through that shard's buffer pool. No data
    // epochs there, so the result cache stays out of the way.
    exec::SnapshotResolver resolve =
        [rep](const std::string& name) -> Result<storage::SeriesSnapshot> {
      storage::FileBackedStore* file = rep->ShardFor(name).file_store.get();
      if (file == nullptr) return Status::NotFound("series: " + name);
      return file->GetSnapshot(name);
    };
    return rep->engine.Execute(p, exec::StoreHandle(std::move(resolve)));
  }

  const bool analyze = p.explain == exec::LogicalPlan::ExplainMode::kAnalyze;
  const bool cache_on = rep->cache.enabled();
  const bool cacheable =
      cache_on && p.explain == exec::LogicalPlan::ExplainMode::kNone;
  std::string key;
  if (cacheable || (analyze && cache_on)) key = rep->CacheKey(p);

  if (cacheable) {
    exec::QueryResult hit;
    if (rep->cache.Lookup(key, &hit)) {
      hit.stats.cache_hits = 1;
      return hit;
    }
  }

  // Inputs resolve through the router: each series snapshots on its owning
  // shard, and the plan still compiles into one PipelineJobSet on the
  // shared executor (cross-shard merge = the ordinary merge stage).
  exec::SnapshotResolver resolve =
      [rep](const std::string& name) -> Result<storage::SeriesSnapshot> {
    return rep->ShardFor(name).store.GetSnapshot(name);
  };
  Result<exec::QueryResult> run =
      rep->engine.Execute(p, exec::StoreHandle(std::move(resolve)));
  if (!run.ok()) return run.status();
  exec::QueryResult out = std::move(run).value();

  if (cacheable) {
    out.stats.cache_misses = 1;
    out.stats.cache_evictions = rep->cache.Insert(key, out);
  } else if (analyze && cache_on) {
    // ANALYZE probes (so the profile shows what a plain run would have
    // done) but always executes — it needs a measured profile to render.
    const bool hit = rep->cache.Probe(key);
    out.stats.cache_hits = hit ? 1 : 0;
    out.stats.cache_misses = hit ? 0 : 1;
  }
  if (analyze) rep->AppendServingProfile(primary.index, &out);
  return out;
}

// --- Engine reconfiguration ------------------------------------------------

void Database::SetMode(Mode mode) {
  std::unique_lock<std::shared_mutex> lock(rep_->engine_mu);
  rep_->mode = mode;
  rep_->RebuildEngineLocked();
}

void Database::SetThreads(int threads) {
  std::unique_lock<std::shared_mutex> lock(rep_->engine_mu);
  rep_->threads = threads > 0 ? threads : 1;
  // Warm the shared pool to the new width so the first query at this
  // setting does not pay worker spin-up (the query itself is one runner).
  if (rep_->threads > 1) exec::ThreadPool::Global().Reserve(rep_->threads - 1);
  rep_->RebuildEngineLocked();
}

void Database::SetCollectStats(bool on) {
  std::unique_lock<std::shared_mutex> lock(rep_->engine_mu);
  rep_->collect_stats = on;
  rep_->RebuildEngineLocked();
}

Database::Mode Database::mode() const { return rep_->mode; }
int Database::threads() const { return rep_->threads; }
bool Database::collect_stats() const { return rep_->collect_stats; }

// --- Persistence -----------------------------------------------------------

Status Database::Save(const std::string& path) const {
  const int n = rep_->router.num_shards();
  for (const auto& shard : rep_->shards) {
    ETSQP_RETURN_IF_ERROR(storage::WriteTsFile(
        shard->store, Shard::ArtifactPath(path, shard->index, n)));
  }
  return Status::Ok();
}

Status Database::Load(const std::string& path) {
  const int n = rep_->router.num_shards();
  for (const auto& shard : rep_->shards) {
    ETSQP_RETURN_IF_ERROR(storage::ReadTsFile(
        Shard::ArtifactPath(path, shard->index, n), &shard->store));
  }
  return Status::Ok();
}

Status Database::OpenFile(const std::string& path,
                          size_t memory_budget_bytes) {
  Rep* rep = rep_.get();
  const int n = rep->router.num_shards();
  // Open everything before attaching anything: attach is all-or-nothing.
  std::vector<std::unique_ptr<storage::FileBackedStore>> stores;
  for (int k = 0; k < n; ++k) {
    auto store = std::make_unique<storage::FileBackedStore>();
    storage::FileBackedStore::Options options;
    options.memory_budget_bytes = memory_budget_bytes;
    ETSQP_RETURN_IF_ERROR(
        store->Open(Shard::ArtifactPath(path, k, n), options));
    stores.push_back(std::move(store));
  }
  {
    // Writer lock: swapping the file stores must not race in-flight
    // queries holding raw pointers to the old ones.
    std::unique_lock<std::shared_mutex> lock(rep->engine_mu);
    for (int k = 0; k < n; ++k) {
      rep->shards[k]->file_store = std::move(stores[k]);
    }
  }
  return Status::Ok();
}

void Database::CloseFile() {
  // Writer lock: in-flight queries run against the file store under the
  // reader side, so detach waits them out instead of racing them.
  std::unique_lock<std::shared_mutex> lock(rep_->engine_mu);
  for (auto& shard : rep_->shards) shard->file_store.reset();
}

const storage::FileBackedStore* Database::file_store() const {
  return rep_->shards[0]->file_store.get();
}

Status Database::ImportCsv(const std::string& series,
                           const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::IoError("open: " + path);
  char line[256];
  size_t lineno = 0;
  Status status;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++lineno;
    // Skip a header or blank line.
    if (lineno == 1 && !std::isdigit(static_cast<unsigned char>(line[0])) &&
        line[0] != '-') {
      continue;
    }
    if (line[0] == '\n' || line[0] == '\0') continue;
    char* comma = std::strchr(line, ',');
    long long t = 0;
    long long v = 0;
    if (comma == nullptr || !ParseCsvInt(line, comma, &t) ||
        !ParseCsvInt(comma + 1, line + std::strlen(line), &v)) {
      status = Status::InvalidArgument("csv: bad row at line " +
                                       std::to_string(lineno));
      break;
    }
    status = Insert(series, t, v);
    if (!status.ok()) break;
  }
  std::fclose(f);
  return status;
}

Status Database::ExportCsv(const std::string& series,
                           const std::string& path) const {
  // Straight from the snapshot, not through SELECT: result columns are
  // doubles, which would round int64 values and times past 2^53.
  Result<storage::SeriesSnapshot> snap =
      rep_->ShardFor(series).store.GetSnapshot(series);
  if (!snap.ok()) return snap.status();
  const storage::SeriesSnapshot& s = snap.value();
  if (s.is_float) {
    return Status::InvalidArgument("csv export: float series " + series);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("open for write: " + path);
  std::fprintf(f, "time,value\n");
  Status status = Status::Ok();
  std::vector<int64_t> times, values;
  for (const auto& page : s.pages) {
    const storage::PageHeader& h = page->header;
    times.resize(h.count);
    values.resize(h.count);
    status = storage::DecodePageColumn(page->time_data.data(),
                                       page->time_data.size(),
                                       h.time_encoding, h.count, times.data());
    if (status.ok()) {
      status = storage::DecodePageColumn(
          page->value_data.data(), page->value_data.size(), h.value_encoding,
          h.count, values.data());
    }
    if (!status.ok()) break;
    for (uint32_t i = 0; i < h.count; ++i) {
      // The snapshot's tail is already filtered; its pages are not.
      if (storage::IntervalsContain(s.tombstones, times[i])) continue;
      std::fprintf(f, "%" PRId64 ",%" PRId64 "\n", times[i], values[i]);
    }
  }
  for (size_t i = 0; status.ok() && i < s.tail_times.size(); ++i) {
    std::fprintf(f, "%" PRId64 ",%" PRId64 "\n", s.tail_times[i],
                 s.tail_values[i]);
  }
  std::fclose(f);
  return status;
}

// --- Topology --------------------------------------------------------------

int Database::num_shards() const { return rep_->router.num_shards(); }

int Database::ShardOf(const std::string& series) const {
  return rep_->router.ShardOf(series);
}

storage::SeriesStore* Database::shard_store(int shard) {
  return &rep_->shards[shard]->store;
}

const storage::SeriesStore& Database::shard_store(int shard) const {
  return rep_->shards[shard]->store;
}

// --- Result cache ----------------------------------------------------------

ResultCache::Stats Database::cache_stats() const {
  return rep_->cache.stats();
}

void Database::SetCacheBudget(size_t budget_bytes) {
  rep_->cache.SetBudget(budget_bytes);
}

void Database::ClearCache() { rep_->cache.Clear(); }

}  // namespace etsqp::db
