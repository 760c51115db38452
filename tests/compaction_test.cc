// Background-compaction subsystem tests: CodecAdvisor shape-driven codec
// picks, the Compactor's four-step pass (merge undersized pages, drop
// tombstoned/TTL-expired points, reconcile out-of-order overlap buffers,
// adaptive re-encoding — all byte-exact on surviving data), TsFile v2
// round-trips and corruption rejection (v1 files stay readable and clean
// stores keep writing v1), WAL-replayed delete/TTL/out-of-order state, and
// the mixed-shape acceptance bar: adaptive compaction must shrink on-disk
// size >= 15% versus fixed-codec sealing with byte-identical aggregates.
// The *Concurrency* suites also run in CI's ThreadSanitizer job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bitstream.h"
#include "db/database.h"
#include "exec/engine.h"
#include "exec/expr.h"
#include "exec/pipe_builder.h"
#include "exec/pipeline.h"
#include "storage/buffer_manager.h"
#include "storage/codec_advisor.h"
#include "storage/compaction.h"
#include "storage/page.h"
#include "storage/page_builder.h"
#include "storage/series_store.h"
#include "storage/tsfile.h"
#include "scalar_oracle.h"

namespace etsqp::storage {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Decodes every sealed page of `name` into (times, values) in page order.
void DecodeAll(const SeriesStore& store, const std::string& name,
               std::vector<int64_t>* times, std::vector<int64_t>* values) {
  Result<SeriesSnapshot> snap = store.GetSnapshot(name);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  times->clear();
  values->clear();
  for (const auto& page : snap.value().pages) {
    std::vector<int64_t> t(page->header.count), v(page->header.count);
    ASSERT_TRUE(DecodePageColumn(page->time_col, t.data()).ok());
    ASSERT_TRUE(DecodePageColumn(page->value_col, v.data()).ok());
    times->insert(times->end(), t.begin(), t.end());
    values->insert(values->end(), v.begin(), v.end());
  }
}

// --- CodecAdvisor: shape statistics drive the re-encoding pick -------------

TEST(CodecAdvisorTest, ConstantRunsPickRunLengthFamily) {
  // Long runs of equal values: the run family (DeltaRle / RLBE) crushes
  // this shape; TS2DIFF spends bits per tuple regardless.
  std::vector<int64_t> v;
  for (int run = 0; run < 20; ++run) {
    for (int i = 0; i < 100; ++i) v.push_back(run * 5);
  }
  CodecAdvisor advisor;
  CodecAdvisor::Advice a =
      advisor.AdviseInt(v.data(), v.size(), enc::ColumnEncoding::kTs2Diff,
                        /*block_size=*/1024);
  EXPECT_TRUE(a.encoding == enc::ColumnEncoding::kDeltaRle ||
              a.encoding == enc::ColumnEncoding::kRlbe)
      << "picked " << enc::ColumnEncodingName(a.encoding);
  EXPECT_LT(a.encoded_bytes, a.current_bytes);
  EXPECT_GT(a.shape.mean_run, 50.0);
}

TEST(CodecAdvisorTest, SmallDeltasPickDeltaFamily) {
  // Monotone small-step values, no runs: delta codecs (TS2DIFF / Sprintz)
  // need ~2 bits/tuple where Plain burns 64.
  std::vector<int64_t> v;
  int64_t x = 1'000'000;
  uint64_t rng = 99;
  for (int i = 0; i < 2000; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    x += 1 + static_cast<int64_t>(rng >> 62);  // delta in [1, 4)
    v.push_back(x);
  }
  CodecAdvisor advisor;
  CodecAdvisor::Advice a = advisor.AdviseInt(
      v.data(), v.size(), enc::ColumnEncoding::kPlain, /*block_size=*/1024);
  EXPECT_TRUE(a.encoding == enc::ColumnEncoding::kTs2Diff ||
              a.encoding == enc::ColumnEncoding::kSprintz)
      << "picked " << enc::ColumnEncodingName(a.encoding);
  EXPECT_LT(a.encoded_bytes, a.current_bytes / 8);
  EXPECT_LE(a.shape.delta_bits, 4);
}

TEST(CodecAdvisorTest, FloatsStayInXorFamily) {
  // Slowly drifting sensor floats: whatever wins must be one of the XOR /
  // pattern encoders, and no worse than the incumbent.
  std::vector<double> v;
  for (int i = 0; i < 2000; ++i) v.push_back(20.0 + (i % 16) * 0.25);
  CodecAdvisor advisor;
  CodecAdvisor::Advice a =
      advisor.AdviseFloat(v.data(), v.size(), enc::ColumnEncoding::kGorillaValue);
  EXPECT_TRUE(enc::IsFloatEncoding(a.encoding))
      << "picked " << enc::ColumnEncodingName(a.encoding);
  EXPECT_LE(a.encoded_bytes, a.current_bytes);
}

TEST(CodecAdvisorTest, MinGainDamperKeepsIncumbentOnNoise) {
  // Random 64-bit values: nothing beats anything by 5%, so the advisor
  // must keep the current codec rather than churn.
  std::vector<int64_t> v;
  uint64_t rng = 7;
  for (int i = 0; i < 1000; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    v.push_back(static_cast<int64_t>(rng));
  }
  CodecAdvisor advisor;
  CodecAdvisor::Advice a = advisor.AdviseInt(
      v.data(), v.size(), enc::ColumnEncoding::kPlain, /*block_size=*/1024);
  EXPECT_EQ(a.encoding, enc::ColumnEncoding::kPlain);
}

// --- Compactor: merge / tombstones / TTL / out-of-order --------------------

TEST(CompactorTest, MergesUndersizedPages) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 1000;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  // Ten tiny sealed pages (100 points each) far below the 1000-point
  // target: the pass must coalesce them.
  std::vector<int64_t> all_t, all_v;
  for (int p = 0; p < 10; ++p) {
    std::vector<int64_t> t(100), v(100);
    for (int i = 0; i < 100; ++i) {
      t[i] = p * 100 + i;
      v[i] = (p * 100 + i) % 37;
      all_t.push_back(t[i]);
      all_v.push_back(v[i]);
    }
    Result<Page> page = BuildPage(t.data(), v.data(), 100, opt.page);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(store.AddPage("s", std::move(page.value())).ok());
  }
  Compactor compactor(&store);
  ASSERT_TRUE(compactor.CompactAll().ok());

  Result<SeriesSnapshot> snap = store.GetSnapshot("s");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value().pages.size(), 1u) << "10 x 100 points -> one page";
  EXPECT_EQ(snap.value().pages[0]->header.tier, 1);
  EXPECT_EQ(snap.value().pages[0]->header.level, 1);
  std::vector<int64_t> t, v;
  DecodeAll(store, "s", &t, &v);
  EXPECT_EQ(t, all_t);
  EXPECT_EQ(v, all_v);
  metrics::CompactionStats cs = compactor.stats();
  EXPECT_EQ(cs.pages_in, 10u);
  EXPECT_EQ(cs.pages_out, 1u);
}

TEST(CompactorTest, DropsTombstonedPointsPhysically) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 100;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store.Append("s", i, i * 3).ok());
  }
  ASSERT_TRUE(store.Flush("s").ok());
  ASSERT_TRUE(store.DeleteRange("s", 250, 449).ok());
  EXPECT_EQ(store.Tombstones("s").size(), 1u);

  Compactor compactor(&store);
  ASSERT_TRUE(compactor.CompactAll().ok());

  std::vector<int64_t> t, v;
  DecodeAll(store, "s", &t, &v);
  ASSERT_EQ(t.size(), 800u);
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_TRUE(t[i] < 250 || t[i] > 449) << "deleted point survived: " << t[i];
    EXPECT_EQ(v[i], t[i] * 3);
  }
  // The range is physically applied: tombstone gone, counters agree.
  EXPECT_TRUE(store.Tombstones("s").empty());
  metrics::CompactionStats cs = compactor.stats();
  EXPECT_EQ(cs.deleted_points_dropped, 200u);
  EXPECT_EQ(cs.tombstones_resolved, 1u);
}

TEST(CompactorTest, TtlExpiredPointsDropAtCompaction) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 100;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(store.Append("s", 1000 + i, i).ok());
  }
  ASSERT_TRUE(store.Flush("s").ok());
  // Keep the newest 100ns: everything older than last_time - 100 = 1399
  // is expired. The snapshot masks immediately ...
  ASSERT_TRUE(store.SetTtl("s", 100).ok());
  Result<SeriesSnapshot> masked = store.GetSnapshot("s");
  ASSERT_TRUE(masked.ok());
  ASSERT_FALSE(masked.value().tombstones.empty());

  // ... and compaction drops physically.
  Compactor compactor(&store);
  ASSERT_TRUE(compactor.CompactAll().ok());
  std::vector<int64_t> t, v;
  DecodeAll(store, "s", &t, &v);
  ASSERT_FALSE(t.empty());
  for (int64_t time : t) EXPECT_GT(time, 1399) << "expired point survived";
  EXPECT_GT(compactor.stats().deleted_points_dropped, 0u);
}

TEST(CompactorTest, ReconcilesOutOfOrderPoints) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 100;
  opt.allow_out_of_order = true;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  // In-order even timestamps, sealed.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(store.Append("s", i * 2, i).ok());
  }
  ASSERT_TRUE(store.Flush("s").ok());
  // Late arrivals: odd timestamps inside the sealed range, plus a late
  // *update* of an existing timestamp (last write wins).
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Append("s", i * 2 + 1, -1).ok());
  }
  ASSERT_TRUE(store.Append("s", 100, 777).ok());
  EXPECT_EQ(store.OooPoints("s"), 51u);

  // Invisible before reconciliation: the snapshot still has 500 points.
  Result<SeriesSnapshot> before = store.GetSnapshot("s");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().total_points(), 500u);

  Compactor compactor(&store);
  ASSERT_TRUE(compactor.CompactAll().ok());
  EXPECT_EQ(store.OooPoints("s"), 0u);
  EXPECT_EQ(compactor.stats().ooo_points_merged, 51u);

  std::vector<int64_t> t, v;
  DecodeAll(store, "s", &t, &v);
  ASSERT_EQ(t.size(), 550u);  // 500 + 50 inserts (the update replaced)
  for (size_t i = 1; i < t.size(); ++i) {
    ASSERT_LT(t[i - 1], t[i]) << "merged pages must stay strictly ordered";
  }
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i] == 100) {
      EXPECT_EQ(v[i], 777) << "late update must win over the sealed value";
    } else if (t[i] % 2 == 1) {
      EXPECT_EQ(v[i], -1);
    } else {
      EXPECT_EQ(v[i], t[i] / 2);
    }
  }
}

TEST(CompactorTest, AdaptiveReencodeIsByteExact) {
  // Run-heavy data sealed under the TS2DIFF default: the pass must switch
  // codecs, shrink the series, and decode identically.
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 500;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  std::vector<int64_t> times(5000), values(5000);
  for (int i = 0; i < 5000; ++i) {
    times[i] = i;
    values[i] = (i / 400) * 7;  // long constant runs
  }
  ASSERT_TRUE(
      store.AppendBatch("s", times.data(), values.data(), 5000).ok());
  ASSERT_TRUE(store.Flush("s").ok());
  const uint64_t before = store.EncodedBytes("s");

  Compactor compactor(&store);
  ASSERT_TRUE(compactor.CompactAll().ok());
  EXPECT_LT(store.EncodedBytes("s"), before);
  EXPECT_GT(compactor.stats().pages_reencoded, 0u);

  std::vector<int64_t> t, v;
  DecodeAll(store, "s", &t, &v);
  EXPECT_EQ(t, times);
  EXPECT_EQ(v, values);
  // A second pass over already-compacted (tier 1) pages finds nothing dirty.
  const uint64_t pages_in_once = compactor.stats().pages_in;
  ASSERT_TRUE(compactor.CompactAll().ok());
  EXPECT_EQ(compactor.stats().pages_in, pages_in_once)
      << "tier-1 pages with no tombstones/OOO must not rewrite again";
}

// --- TsFile v2: persistence of compaction state ----------------------------

uint32_t FileMagic(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  unsigned char buf[4] = {0, 0, 0, 0};
  EXPECT_EQ(std::fread(buf, 1, 4, f), 4u);
  std::fclose(f);
  return (static_cast<uint32_t>(buf[0]) << 24) |
         (static_cast<uint32_t>(buf[1]) << 16) |
         (static_cast<uint32_t>(buf[2]) << 8) | static_cast<uint32_t>(buf[3]);
}

TEST(TsFileV2Test, CleanStoresStillWriteV1) {
  const std::string path = TempPath("tsfile_v2_clean.tsfile");
  SeriesStore store;
  ASSERT_TRUE(store.CreateSeries("s", SeriesStore::SeriesOptions{}).ok());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(store.Append("s", i, i).ok());
  ASSERT_TRUE(store.Flush("s").ok());
  ASSERT_TRUE(WriteTsFile(store, path).ok());
  EXPECT_EQ(FileMagic(path), kTsFileMagicV1)
      << "stores without compaction state must stay byte-compatible v1";
  SeriesStore loaded;
  ASSERT_TRUE(ReadTsFile(path, &loaded).ok());
  std::vector<int64_t> t, v;
  DecodeAll(loaded, "s", &t, &v);
  EXPECT_EQ(t.size(), 100u);
  std::remove(path.c_str());
}

TEST(TsFileV2Test, RoundTripsDeleteTtlOooAndLevels) {
  const std::string path = TempPath("tsfile_v2_meta.tsfile");
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 100;
  opt.allow_out_of_order = true;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(store.Append("s", i * 2, i).ok());
  }
  ASSERT_TRUE(store.Flush("s").ok());
  ASSERT_TRUE(store.DeleteRange("s", 100, 199).ok());
  ASSERT_TRUE(store.SetTtl("s", 1'000'000).ok());
  ASSERT_TRUE(store.Append("s", 11, -7).ok());  // overlap-buffered
  // Compact one series to give pages nonzero level/tier, leaving the
  // tombstone state of the second series untouched.
  ASSERT_TRUE(store.CreateSeries("u", SeriesStore::SeriesOptions{}).ok());
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(store.Append("u", i, i).ok());
  ASSERT_TRUE(store.Flush("u").ok());

  ASSERT_TRUE(WriteTsFile(store, path).ok());
  EXPECT_EQ(FileMagic(path), kTsFileMagicV2);

  SeriesStore loaded;
  ASSERT_TRUE(ReadTsFile(path, &loaded).ok());
  ASSERT_EQ(loaded.Tombstones("s").size(), store.Tombstones("s").size());
  EXPECT_EQ(loaded.Tombstones("s")[0].lo, 100);
  EXPECT_EQ(loaded.Tombstones("s")[0].hi, 199);
  EXPECT_EQ(loaded.Ttl("s"), 1'000'000);
  EXPECT_EQ(loaded.OooPoints("s"), 1u);
  Result<const SeriesStore::Series*> s = loaded.GetSeries("s");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value()->appended_points, 401u);

  // The restored store compacts exactly like the original would have.
  Compactor compactor(&loaded);
  ASSERT_TRUE(compactor.CompactAll().ok());
  std::vector<int64_t> t, v;
  DecodeAll(loaded, "s", &t, &v);
  for (size_t i = 0; i < t.size(); ++i) {
    ASSERT_FALSE(t[i] >= 100 && t[i] <= 199);
    if (t[i] == 11) {
      EXPECT_EQ(v[i], -7);
    }
  }
  EXPECT_EQ(loaded.OooPoints("s"), 0u);
  std::remove(path.c_str());
}

TEST(TsFileV2Test, CompactedLevelsSurviveRoundTrip) {
  const std::string path = TempPath("tsfile_v2_levels.tsfile");
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 1000;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  for (int p = 0; p < 4; ++p) {
    std::vector<int64_t> t(100), v(100);
    for (int i = 0; i < 100; ++i) t[i] = p * 100 + i, v[i] = i;
    Result<Page> page = BuildPage(t.data(), v.data(), 100, opt.page);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(store.AddPage("s", std::move(page.value())).ok());
  }
  Compactor compactor(&store);
  ASSERT_TRUE(compactor.CompactAll().ok());
  ASSERT_TRUE(WriteTsFile(store, path).ok());
  EXPECT_EQ(FileMagic(path), kTsFileMagicV2);

  SeriesStore loaded;
  ASSERT_TRUE(ReadTsFile(path, &loaded).ok());
  Result<SeriesSnapshot> snap = loaded.GetSnapshot("s");
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap.value().pages.size(), 1u);
  EXPECT_EQ(snap.value().pages[0]->header.level, 1);
  EXPECT_EQ(snap.value().pages[0]->header.tier, 1);
  std::remove(path.c_str());
}

/// Hand-builds a v2 file: magic | 1 series | name "s" | flags | appended |
/// ttl | tombstones | ooo | pages — then lets each test corrupt one field.
struct V2FileBuilder {
  std::vector<uint8_t> buf;

  V2FileBuilder() {
    PutFixed32BE(&buf, kTsFileMagicV2);
    PutFixed32BE(&buf, 1);  // num_series
    PutFixed32BE(&buf, 1);  // name_len
    buf.push_back('s');
  }
  void Meta(uint8_t flags, uint64_t appended, int64_t ttl) {
    buf.push_back(flags);
    PutFixed64BE(&buf, appended);
    PutFixed64BE(&buf, static_cast<uint64_t>(ttl));
  }
  void Tombstones(const std::vector<TimeInterval>& ts) {
    PutFixed32BE(&buf, static_cast<uint32_t>(ts.size()));
    for (const TimeInterval& t : ts) {
      PutFixed64BE(&buf, static_cast<uint64_t>(t.lo));
      PutFixed64BE(&buf, static_cast<uint64_t>(t.hi));
    }
  }
  void NoOoo() { PutFixed32BE(&buf, 0); }
  void Pages(const Page& p, uint8_t level, uint8_t tier) {
    PutFixed32BE(&buf, 1);  // num_pages
    buf.push_back(level);
    buf.push_back(tier);
    SerializePage(p, &buf);
  }
  std::string WriteTo(const std::string& name) const {
    const std::string path = TempPath(name);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    EXPECT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
    std::fclose(f);
    return path;
  }
};

Page MakeSmallPage() {
  int64_t t[] = {1, 2, 3, 4};
  int64_t v[] = {10, 20, 30, 40};
  Result<Page> page = BuildPage(t, v, 4, PageOptions{});
  EXPECT_TRUE(page.ok());
  return std::move(page.value());
}

TEST(TsFileV2Test, RejectsInvertedTombstone) {
  V2FileBuilder b;
  b.Meta(0, 4, 0);
  b.Tombstones({{50, 10}});  // lo > hi
  b.NoOoo();
  b.Pages(MakeSmallPage(), 0, 0);
  const std::string path = b.WriteTo("v2_bad_tomb.tsfile");
  SeriesStore store;
  Status st = ReadTsFile(path, &store);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  std::remove(path.c_str());
}

TEST(TsFileV2Test, RejectsCountsExceedingFile) {
  V2FileBuilder b;
  b.Meta(0, 4, 0);
  PutFixed32BE(&b.buf, 1u << 30);  // tombstone count far past EOF
  const std::string path = b.WriteTo("v2_bad_count.tsfile");
  SeriesStore store;
  Status st = ReadTsFile(path, &store);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  std::remove(path.c_str());
}

TEST(TsFileV2Test, RejectsLevelTierOutOfRange) {
  // Both readers: the full load and the gradual loader's header index.
  const std::pair<uint8_t, uint8_t> bad[] = {{200, 0}, {0, 7}};
  for (const auto& [level, tier] : bad) {
    SCOPED_TRACE(std::to_string(level) + "/" + std::to_string(tier));
    V2FileBuilder b;
    b.Meta(0, 4, 0);
    b.Tombstones({});
    b.NoOoo();
    b.Pages(MakeSmallPage(), level, tier);
    const std::string path = b.WriteTo("v2_bad_level_tier.tsfile");
    SeriesStore store;
    EXPECT_EQ(ReadTsFile(path, &store).code(), StatusCode::kCorruption);
    FileBackedStore file;
    EXPECT_EQ(file.Open(path).code(), StatusCode::kCorruption);
    std::remove(path.c_str());
  }
}

TEST(TsFileV2Test, RejectsAppendedUnderCount) {
  V2FileBuilder b;
  b.Meta(0, /*appended=*/1, 0);  // page holds 4 points: 1 under-counts
  b.Tombstones({});
  b.NoOoo();
  b.Pages(MakeSmallPage(), 0, 0);
  const std::string path = b.WriteTo("v2_undercount.tsfile");
  SeriesStore store;
  Status st = ReadTsFile(path, &store);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  std::remove(path.c_str());
}

TEST(TsFileV2Test, RejectsUnknownFlagsAndTruncation) {
  {
    V2FileBuilder b;
    b.Meta(/*flags=*/0x80, 4, 0);
    b.Tombstones({});
    b.NoOoo();
    b.Pages(MakeSmallPage(), 0, 0);
    const std::string path = b.WriteTo("v2_bad_flags.tsfile");
    SeriesStore store;
    EXPECT_EQ(ReadTsFile(path, &store).code(), StatusCode::kCorruption);
    std::remove(path.c_str());
  }
  // Truncate a valid v2 file at every suffix boundary of the meta block:
  // no crash, clean Corruption.
  V2FileBuilder good;
  good.Meta(0, 4, 0);
  good.Tombstones({{1, 2}});
  good.NoOoo();
  good.Pages(MakeSmallPage(), 1, 1);
  for (size_t cut = 8; cut < good.buf.size(); cut += 7) {
    V2FileBuilder cutb;
    cutb.buf.assign(good.buf.begin(), good.buf.begin() + cut);
    const std::string path = cutb.WriteTo("v2_truncated.tsfile");
    SeriesStore store;
    EXPECT_EQ(ReadTsFile(path, &store).code(), StatusCode::kCorruption)
        << "cut at " << cut;
    std::remove(path.c_str());
  }
}

// --- WAL: delete / TTL / out-of-order state survives replay ----------------

TEST(CompactionWalTest, ReplayRestoresTombstonesTtlAndOoo) {
  const std::string wal = TempPath("compaction_wal.log");
  std::remove(wal.c_str());
  {
    db::Database dbx(db::Database::Options{});
    db::Database::IngestConfig cfg;
    cfg.wal_path = wal;
    ASSERT_TRUE(dbx.EnableIngest(cfg).ok());
    // Created after the WAL attached: the create record (with its
    // allow-out-of-order flag) must replay too.
    storage::SeriesStore::SeriesOptions opt;
    opt.page_size = 100;
    opt.allow_out_of_order = true;
    ASSERT_TRUE(dbx.CreateTimeseries("s", opt).ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(dbx.Insert("s", i * 2, i).ok());
    }
    ASSERT_TRUE(dbx.DeleteRange("s", 100, 149).ok());
    ASSERT_TRUE(dbx.SetTtl("s", 1'000'000).ok());
    ASSERT_TRUE(dbx.Insert("s", 33, -5).ok());  // late: overlap-buffered
    // No checkpoint: everything must come back from the WAL alone.
  }
  db::Database dbx(db::Database::Options{});
  db::Database::IngestConfig cfg;
  cfg.wal_path = wal;
  { Status est = dbx.EnableIngest(cfg); ASSERT_TRUE(est.ok()) << est.ToString(); }
  const storage::SeriesStore& store = *dbx.shard_store(0);
  ASSERT_EQ(store.Tombstones("s").size(), 1u);
  EXPECT_EQ(store.Tombstones("s")[0].lo, 100);
  EXPECT_EQ(store.Tombstones("s")[0].hi, 149);
  EXPECT_EQ(store.Ttl("s"), 1'000'000);
  EXPECT_EQ(store.OooPoints("s"), 1u);
  // Deleted range invisible after replay, late point still buffered.
  Result<exec::QueryResult> r = dbx.Query("SELECT COUNT(s) FROM s;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().columns[0][0], 300.0 - 25.0);
  std::remove(wal.c_str());
}

// --- Acceptance: mixed shapes, >= 15% smaller, byte-identical answers ------

TEST(CompactionAcceptanceTest, MixedShapeWorkloadShrinksAtLeast15Percent) {
  db::Database dbx(db::Database::Options{});
  const int kN = 20'000;
  std::vector<int64_t> times(kN);
  for (int i = 0; i < kN; ++i) times[i] = 1'600'000'000'000 + i * 1000;

  // Fixed-codec sealing: every series lands as the TS2DIFF/Gorilla default
  // regardless of shape — exactly the ingest path's blind spot.
  std::vector<int64_t> runs(kN), deltas(kN), walk(kN);
  std::vector<double> floats(kN);
  uint64_t rng = 0xabcdef;
  int64_t x = 0;
  for (int i = 0; i < kN; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    // Long constant runs between huge level jumps: TS2DIFF pays the jump's
    // bit width across whole blocks, the run family pays ~nothing.
    runs[i] = (i / 700) * (int64_t{1} << 40);
    deltas[i] = 5'000'000 + i * 3 + (i % 2);             // tiny deltas
    x += static_cast<int64_t>(rng >> 33) % 2001 - 1000;  // random walk
    walk[i] = x;
    floats[i] = 20.0 + (i % 32) * 0.125;                 // few XOR bits
  }
  ASSERT_TRUE(dbx.CreateTimeseries("runs", 2000).ok());
  ASSERT_TRUE(dbx.CreateTimeseries("deltas", 2000).ok());
  ASSERT_TRUE(dbx.CreateTimeseries("walk", 2000).ok());
  ASSERT_TRUE(dbx.CreateFloatTimeseries("floats").ok());
  ASSERT_TRUE(dbx.InsertBatch("runs", times.data(), runs.data(), kN).ok());
  ASSERT_TRUE(dbx.InsertBatch("deltas", times.data(), deltas.data(), kN).ok());
  ASSERT_TRUE(dbx.InsertBatch("walk", times.data(), walk.data(), kN).ok());
  ASSERT_TRUE(
      dbx.InsertBatchF64("floats", times.data(), floats.data(), kN).ok());
  ASSERT_TRUE(dbx.Flush().ok());

  const std::vector<std::string> queries = {
      "SELECT SUM(runs) FROM runs;",      "SELECT MIN(deltas) FROM deltas;",
      "SELECT MAX(walk) FROM walk;",      "SELECT AVG(floats) FROM floats;",
      "SELECT COUNT(runs) FROM runs;",
  };
  std::vector<double> before;
  for (const std::string& q : queries) {
    Result<exec::QueryResult> r = dbx.Query(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    before.push_back(r.value().columns[0][0]);
  }
  uint64_t bytes_before = 0;
  for (const char* name : {"runs", "deltas", "walk", "floats"}) {
    bytes_before += dbx.shard_store(0)->EncodedBytes(name);
  }

  ASSERT_TRUE(dbx.EnableCompaction().ok());
  ASSERT_TRUE(dbx.Compact().ok());

  uint64_t bytes_after = 0;
  for (const char* name : {"runs", "deltas", "walk", "floats"}) {
    bytes_after += dbx.shard_store(0)->EncodedBytes(name);
  }
  EXPECT_LE(static_cast<double>(bytes_after),
            0.85 * static_cast<double>(bytes_before))
      << "compaction saved only "
      << 100.0 * (1.0 - static_cast<double>(bytes_after) /
                            static_cast<double>(bytes_before))
      << "%";
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<exec::QueryResult> r = dbx.Query(queries[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().columns[0][0], before[i])
        << queries[i] << " changed after compaction";
  }
  metrics::CompactionStats cs = dbx.compaction_stats();
  EXPECT_GT(cs.pages_reencoded, 0u);
  EXPECT_EQ(cs.installs_aborted, 0u);
}

// --- Concurrency (runs under TSan in CI): queries vs compaction ------------

TEST(CompactionConcurrencyTest, QueriesRaceCompactionDeletesAndOoo) {
  db::Database dbx(db::Database::Options{db::Database::Mode::kSimd,
                                         /*threads=*/2, /*shards=*/1,
                                         /*cache_budget_bytes=*/1 << 20});
  storage::SeriesStore::SeriesOptions opt;
  opt.page_size = 256;
  opt.allow_out_of_order = true;
  ASSERT_TRUE(dbx.CreateTimeseries("s", opt).ok());
  const int kN = 4096;
  std::vector<int64_t> t(kN), v(kN);
  for (int i = 0; i < kN; ++i) {
    t[i] = i * 4;  // gaps leave room for late arrivals
    v[i] = 1;
  }
  ASSERT_TRUE(dbx.InsertBatch("s", t.data(), v.data(), kN).ok());
  ASSERT_TRUE(dbx.Flush().ok());
  ASSERT_TRUE(dbx.EnableCompaction().ok());

  // Every mutation keeps SUM(s) == kN: deletes remove zeros, late points
  // add zeros, so any correctly-masked snapshot answers exactly kN.
  ASSERT_TRUE(dbx.Insert("s", 1, 0).ok());
  ASSERT_TRUE(dbx.DeleteRange("s", 1, 1).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread mutator([&] {
    for (int round = 0; round < 30 && !stop.load(); ++round) {
      for (int k = 0; k < 8; ++k) {
        int64_t late = round * 64 + k * 8 + 2;  // unused odd-ish slots
        if (!dbx.Insert("s", late, 0).ok()) ++failures;
      }
      // Covers only the k=0 late point (time ≡ 2 mod 4, value 0): sealed
      // points sit at multiples of 4 and stay untouched.
      if (!dbx.DeleteRange("s", round * 64 + 1, round * 64 + 3).ok()) {
        ++failures;
      }
      if (!dbx.Compact().ok()) ++failures;
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        Result<exec::QueryResult> qr = dbx.Query("SELECT SUM(s) FROM s;");
        if (!qr.ok()) {
          ++failures;
          continue;
        }
        // Deleted values and late arrivals are all zeros: the sum must
        // read kN through every interleaving of mask / merge / install.
        if (qr.value().columns[0][0] != static_cast<double>(kN)) ++failures;
      }
    });
  }
  mutator.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(dbx.compaction_stats().runs, 0u);
}

// --- Pruning staleness (runs under TSan in CI, ctest label `pruning`):
// compaction installs splice a rewritten page list under the store's unique
// lock. A snapshot taken during an install must plan from its own page
// headers and answer like the scalar oracle.

/// Checks one snapshot against the oracle: the engine's answer over exactly
/// this snapshot equals the oracle's. Empty string = pass.
std::string CheckSnapshot(const SeriesSnapshot& s,
                          const exec::LogicalPlan& plan,
                          const oracle::SeriesOracle& truth) {
  const exec::PipelineOptions options = exec::PipelineOptions::Etsqp(1);
  Result<exec::QueryResult> result = exec::Engine(options).Execute(
      plan, exec::SnapshotResolver([&s](const std::string&) {
        return Result<SeriesSnapshot>(s);
      }));
  if (!result.ok()) return result.status().ToString();
  std::string why;
  if (!oracle::SameColumns(result.value().columns, truth.Answer(plan), false,
                           &why)) {
    return why;
  }
  return "";
}

TEST(PruningStalenessTest, SnapshotDuringCompactionInstallStaysConsistent) {
  db::Database dbi(db::Database::Options{db::Database::Mode::kSimd, 2});
  SeriesStore::SeriesOptions opt;
  opt.page_size = 64;
  opt.allow_out_of_order = true;
  ASSERT_TRUE(dbi.CreateTimeseries("s", opt).ok());
  const int kN = 2048;
  std::vector<int64_t> t(kN), v(kN);
  oracle::SeriesOracle truth(/*is_float=*/false);
  for (int i = 0; i < kN; ++i) {
    t[i] = i * 4;  // gaps leave room for late arrivals
    v[i] = 1;
    truth.Append(t[i], v[i]);
  }
  ASSERT_TRUE(dbi.InsertBatch("s", t.data(), v.data(), kN).ok());
  ASSERT_TRUE(dbi.Flush().ok());
  ASSERT_TRUE(dbi.EnableCompaction().ok());

  // Late points carry value 0, outside the filter: wherever compaction has
  // moved them (overlap buffer, rewritten page, physically dropped), the
  // answer is the base points'.
  exec::LogicalPlan plan =
      exec::LogicalPlan::Aggregate("s", exec::AggFunc::kSum);
  plan.value_filter.active = true;
  plan.value_filter.lo = 1;
  plan.value_filter.hi = 1;

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread mutator([&] {
    for (int round = 0; round < 20 && !stop.load(); ++round) {
      int64_t late = round * 32 + 2;  // time ≡ 2 mod 4: never sealed slots
      if (!dbi.Insert("s", late, 0).ok()) ++failures;
      if (!dbi.DeleteRange("s", late, late).ok()) ++failures;
      if (!dbi.Compact().ok()) ++failures;
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        Result<SeriesSnapshot> snap = dbi.shard_store(0)->GetSnapshot("s");
        if (!snap.ok() || !CheckSnapshot(snap.value(), plan, truth).empty()) {
          ++failures;
        }
      }
    });
  }
  mutator.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
  // All late points were deleted again: SUM of the survivors is kN.
  Result<exec::QueryResult> qr = dbi.Query("SELECT SUM(s) FROM s;");
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr.value().columns[0][0], static_cast<double>(kN));
}

TEST(PruningStalenessTest, DeleteRangeKeepsIndexConsistent) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 16;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  std::vector<int64_t> times(64), values(64);
  oracle::SeriesOracle truth(/*is_float=*/false);
  for (int64_t i = 0; i < 64; ++i) {
    times[i] = i;
    values[i] = 100 + i;
    truth.Append(times[i], values[i]);
  }
  ASSERT_TRUE(store.AppendBatch("s", times.data(), values.data(), 64).ok());
  ASSERT_TRUE(store.Flush().ok());

  // Page 1 fully deleted, page 2 partially: the walk must keep page 2 even
  // though the tombstone makes its header value bounds unreliable.
  ASSERT_TRUE(store.DeleteRange("s", 16, 35).ok());
  truth.DeleteRange(16, 35);

  exec::LogicalPlan plan =
      exec::LogicalPlan::Aggregate("s", exec::AggFunc::kSum);
  plan.value_filter.active = true;
  plan.value_filter.lo = 116;  // page 1's values (fully deleted) ...
  plan.value_filter.hi = 140;  // ... through page 2's surviving half

  // The same answers before and after the tombstones become physical
  // drops.
  for (int pass = 0; pass < 2; ++pass) {
    Result<SeriesSnapshot> snap = store.GetSnapshot("s");
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(CheckSnapshot(snap.value(), plan, truth), "") << "pass=" << pass;
    Result<exec::QueryResult> r =
        exec::Engine(exec::PipelineOptions::Etsqp(1)).Execute(plan, store);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().columns[0][0], 136 + 137 + 138 + 139 + 140)
        << "pass=" << pass;
    if (pass == 0) {
      Compactor compactor(&store);
      ASSERT_TRUE(compactor.CompactSeries("s").ok());
    }
  }
}

}  // namespace
}  // namespace etsqp::storage
