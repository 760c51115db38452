#include <gtest/gtest.h>

#include <cstdio>
#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "storage/buffer_manager.h"
#include "storage/page.h"
#include "storage/page_builder.h"
#include "storage/series_store.h"
#include "storage/tsfile.h"

namespace etsqp::storage {
namespace {

struct TestSeries {
  std::vector<int64_t> times;
  std::vector<int64_t> values;
};

TestSeries MakeWalk(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  TestSeries s;
  s.times.resize(n);
  s.values.resize(n);
  int64_t t = 1'600'000'000'000;
  int64_t v = 1000;
  for (size_t i = 0; i < n; ++i) {
    t += 1 + static_cast<int64_t>(rng() % 100);
    v += static_cast<int64_t>(rng() % 201) - 100;
    s.times[i] = t;
    s.values[i] = v;
  }
  return s;
}

class PageEncodingTest
    : public ::testing::TestWithParam<enc::ColumnEncoding> {};

TEST_P(PageEncodingTest, BuildAndDecodeRoundTrip) {
  TestSeries s = MakeWalk(3000, 42);
  PageOptions opt;
  opt.value_encoding = GetParam();
  Result<Page> page = BuildPage(s.times.data(), s.values.data(),
                                s.times.size(), opt);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  const Page& p = page.value();
  EXPECT_EQ(p.header.count, s.times.size());
  EXPECT_EQ(p.header.min_time, s.times.front());
  EXPECT_EQ(p.header.max_time, s.times.back());

  std::vector<int64_t> times(s.times.size()), values(s.values.size());
  ASSERT_TRUE(DecodePageColumn(p.time_col, times.data()).ok());
  ASSERT_TRUE(DecodePageColumn(p.value_col, values.data()).ok());
  EXPECT_EQ(times, s.times);
  EXPECT_EQ(values, s.values);
}

INSTANTIATE_TEST_SUITE_P(
    Encodings, PageEncodingTest,
    ::testing::Values(enc::ColumnEncoding::kTs2Diff,
                      enc::ColumnEncoding::kDeltaRle,
                      enc::ColumnEncoding::kRlbe,
                      enc::ColumnEncoding::kSprintz,
                      enc::ColumnEncoding::kFastLanes,
                      enc::ColumnEncoding::kGorilla,
                      enc::ColumnEncoding::kPlain));

TEST(PageTest, RejectsUnsortedTimes) {
  int64_t times[] = {10, 5};
  int64_t values[] = {1, 2};
  Result<Page> page = BuildPage(times, values, 2, PageOptions{});
  EXPECT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kInvalidArgument);
}

TEST(PageTest, RejectsDuplicateTimes) {
  int64_t times[] = {10, 10};
  int64_t values[] = {1, 2};
  EXPECT_FALSE(BuildPage(times, values, 2, PageOptions{}).ok());
}

TEST(PageTest, RejectsEmpty) {
  EXPECT_FALSE(BuildPage(nullptr, nullptr, 0, PageOptions{}).ok());
}

TEST(PageTest, SerializeDeserializeRoundTrip) {
  TestSeries s = MakeWalk(500, 7);
  Result<Page> page =
      BuildPage(s.times.data(), s.values.data(), 500, PageOptions{});
  ASSERT_TRUE(page.ok());
  std::vector<uint8_t> bytes;
  SerializePage(page.value(), &bytes);
  Page out;
  size_t pos = 0;
  ASSERT_TRUE(DeserializePage(bytes.data(), bytes.size(), &pos, &out).ok());
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(out.header.count, 500u);
  EXPECT_EQ(out.header.min_time, page.value().header.min_time);
  EXPECT_EQ(out.header.min_value, page.value().header.min_value);
  std::vector<int64_t> values(500);
  ASSERT_TRUE(DecodePageColumn(out.value_col, values.data()).ok());
  EXPECT_EQ(values, s.values);
}

TEST(PageTest, DeserializeTruncatedFails) {
  TestSeries s = MakeWalk(100, 8);
  Result<Page> page =
      BuildPage(s.times.data(), s.values.data(), 100, PageOptions{});
  ASSERT_TRUE(page.ok());
  std::vector<uint8_t> bytes;
  SerializePage(page.value(), &bytes);
  Page out;
  size_t pos = 0;
  EXPECT_FALSE(
      DeserializePage(bytes.data(), bytes.size() / 2, &pos, &out).ok());
}

TEST(SeriesStoreTest, FlushesAtPageSize) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 100;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  TestSeries s = MakeWalk(250, 9);
  ASSERT_TRUE(
      store.AppendBatch("s", s.times.data(), s.values.data(), 250).ok());
  auto series = store.GetSeries("s");
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series.value()->pages.size(), 2u);  // 2 full pages
  EXPECT_EQ(series.value()->buf_times.size(), 50u);
  ASSERT_TRUE(store.Flush("s").ok());
  EXPECT_EQ(series.value()->pages.size(), 3u);
  EXPECT_EQ(series.value()->total_points, 250u);
}

TEST(SeriesStoreTest, DuplicateCreateRejected) {
  SeriesStore store;
  ASSERT_TRUE(store.CreateSeries("s", {}).ok());
  EXPECT_FALSE(store.CreateSeries("s", {}).ok());
}

TEST(SeriesStoreTest, MissingSeriesRejected) {
  SeriesStore store;
  EXPECT_EQ(store.Append("nope", 1, 2).code(), StatusCode::kNotFound);
  EXPECT_FALSE(store.GetSeries("nope").ok());
  EXPECT_FALSE(store.HasSeries("nope"));
}

TEST(SeriesStoreTest, EncodedBytesTracksCompression) {
  SeriesStore store;
  ASSERT_TRUE(store.CreateSeries("s", {}).ok());
  TestSeries s = MakeWalk(10000, 10);
  ASSERT_TRUE(
      store.AppendBatch("s", s.times.data(), s.values.data(), 10000).ok());
  ASSERT_TRUE(store.Flush().ok());
  uint64_t encoded = store.EncodedBytes("s");
  EXPECT_GT(encoded, 0u);
  EXPECT_LT(encoded, 10000u * 16u);  // beats raw (time+value = 16B/row)
}

TEST(TsFileTest, WriteReadRoundTrip) {
  SeriesStore store;
  ASSERT_TRUE(store.CreateSeries("a", {}).ok());
  ASSERT_TRUE(store.CreateSeries("b", {}).ok());
  TestSeries sa = MakeWalk(5000, 11);
  TestSeries sb = MakeWalk(777, 12);
  ASSERT_TRUE(
      store.AppendBatch("a", sa.times.data(), sa.values.data(), 5000).ok());
  ASSERT_TRUE(
      store.AppendBatch("b", sb.times.data(), sb.values.data(), 777).ok());
  ASSERT_TRUE(store.Flush().ok());

  std::string path = ::testing::TempDir() + "/etsqp_test.tsfile";
  ASSERT_TRUE(WriteTsFile(store, path).ok());

  SeriesStore loaded;
  ASSERT_TRUE(ReadTsFile(path, &loaded).ok());
  auto series = loaded.GetSeries("a");
  ASSERT_TRUE(series.ok());
  uint64_t total = 0;
  std::vector<int64_t> values;
  for (const auto& page_ptr : series.value()->pages) {
    const Page& p = *page_ptr;
    std::vector<int64_t> v(p.header.count);
    ASSERT_TRUE(DecodePageColumn(p.value_col, v.data()).ok());
    values.insert(values.end(), v.begin(), v.end());
    total += p.header.count;
  }
  EXPECT_EQ(total, 5000u);
  EXPECT_EQ(values, sa.values);
  std::remove(path.c_str());
}

TEST(TsFileTest, RejectsUnflushed) {
  SeriesStore store;
  ASSERT_TRUE(store.CreateSeries("a", {}).ok());
  ASSERT_TRUE(store.Append("a", 1, 2).ok());
  EXPECT_FALSE(WriteTsFile(store, "/tmp/should_not_exist.tsfile").ok());
}

TEST(TsFileTest, RejectsBadMagic) {
  std::string path = ::testing::TempDir() + "/etsqp_bad.tsfile";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("garbagexx", 1, 9, f);
  std::fclose(f);
  SeriesStore store;
  EXPECT_FALSE(ReadTsFile(path, &store).ok());
  std::remove(path.c_str());
}

// Regression for the ReadTsFile hardening: every malformed-header shape
// must come back as a clean Corruption status, never a crash, hang, or
// huge allocation.
TEST(TsFileTest, RejectsCorruptHeaders) {
  std::string path = ::testing::TempDir() + "/etsqp_corrupt.tsfile";

  // A small valid file to mutate: one series, one page.
  {
    SeriesStore store;
    ASSERT_TRUE(store.CreateSeries("s", {}).ok());
    TestSeries s = MakeWalk(100, 7);
    ASSERT_TRUE(
        store.AppendBatch("s", s.times.data(), s.values.data(), 100).ok());
    ASSERT_TRUE(store.Flush().ok());
    ASSERT_TRUE(WriteTsFile(store, path).ok());
  }
  std::vector<uint8_t> valid;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    valid.resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    ASSERT_EQ(std::fread(valid.data(), 1, valid.size(), f), valid.size());
    std::fclose(f);
  }

  auto write_and_read = [&](const std::vector<uint8_t>& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    SeriesStore store;
    return ReadTsFile(path, &store);
  };

  // Absurd series count (file cannot hold it).
  std::vector<uint8_t> mutated = valid;
  mutated[4] = 0xff;
  mutated[5] = 0xff;
  EXPECT_EQ(write_and_read(mutated).code(), StatusCode::kCorruption);

  // Name length past every sane bound.
  mutated = valid;
  mutated[8] = 0xff;  // name_len is the first field after the header
  EXPECT_EQ(write_and_read(mutated).code(), StatusCode::kCorruption);

  // Page count beyond what the remaining bytes can hold.
  // Layout: magic(4) num_series(4) name_len(4) name(1) num_pages(4).
  mutated = valid;
  mutated[13] = 0xff;
  EXPECT_EQ(write_and_read(mutated).code(), StatusCode::kCorruption);

  // Truncations at every prefix length must error, not crash.
  for (size_t len : {size_t{9}, size_t{12}, size_t{20},
                     valid.size() / 2, valid.size() - 1}) {
    mutated.assign(valid.begin(), valid.begin() + static_cast<long>(len));
    EXPECT_FALSE(write_and_read(mutated).ok()) << "prefix " << len;
  }

  // Trailing garbage after the last series.
  mutated = valid;
  mutated.push_back(0xab);
  EXPECT_EQ(write_and_read(mutated).code(), StatusCode::kCorruption);

  // The unmutated file still loads.
  EXPECT_TRUE(write_and_read(valid).ok());
  std::remove(path.c_str());
}

TEST(FileBackedStoreTest, IndexesHeadersWithoutPayloads) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 500;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  TestSeries s = MakeWalk(5000, 31);
  ASSERT_TRUE(
      store.AppendBatch("s", s.times.data(), s.values.data(), 5000).ok());
  ASSERT_TRUE(store.Flush().ok());
  std::string path = ::testing::TempDir() + "/etsqp_fbs.tsfile";
  ASSERT_TRUE(WriteTsFile(store, path).ok());

  FileBackedStore fbs;
  ASSERT_TRUE(fbs.Open(path).ok());
  auto index = fbs.GetSeries("s");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value()->pages.size(), 10u);
  EXPECT_EQ(index.value()->total_points, 5000u);
  // Nothing fetched yet.
  EXPECT_EQ(fbs.stats().pages_loaded, 0u);

  // Load one page and verify the payload decodes.
  auto page = fbs.LoadPage("s", 3);
  ASSERT_TRUE(page.ok());
  std::vector<int64_t> values(page.value()->header.count);
  ASSERT_TRUE(DecodePageColumn(page.value()->value_col, values.data()).ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], s.values[3 * 500 + i]);
  }
  EXPECT_EQ(fbs.stats().pages_loaded, 1u);
  auto again = fbs.LoadPage("s", 3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(fbs.stats().pool_hits, 1u);
  std::remove(path.c_str());
}

TEST(FileBackedStoreTest, LruEvictsUnderBudget) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 1000;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  TestSeries s = MakeWalk(20000, 37);
  ASSERT_TRUE(
      store.AppendBatch("s", s.times.data(), s.values.data(), 20000).ok());
  ASSERT_TRUE(store.Flush().ok());
  std::string path = ::testing::TempDir() + "/etsqp_fbs2.tsfile";
  ASSERT_TRUE(WriteTsFile(store, path).ok());

  FileBackedStore fbs;
  FileBackedStore::Options fopt;
  fopt.memory_budget_bytes = 3 * store.EncodedBytes("s") / 20;  // ~3 pages
  ASSERT_TRUE(fbs.Open(path, fopt).ok());
  for (size_t p = 0; p < 20; ++p) {
    ASSERT_TRUE(fbs.LoadPage("s", p).ok());
  }
  FileBackedStore::Stats st = fbs.stats();
  EXPECT_EQ(st.pages_loaded, 20u);
  EXPECT_GT(st.pages_evicted, 10u);
  EXPECT_LE(st.resident_bytes, fopt.memory_budget_bytes * 2);
  // A page evicted earlier reloads from the file (no stale pool entry).
  auto reload = fbs.LoadPage("s", 0);
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(fbs.stats().pages_loaded, 21u);
  std::remove(path.c_str());
}

TEST(FileBackedStoreTest, PoolHitRefreshesLruOrder) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 1000;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  TestSeries s = MakeWalk(3000, 43);
  ASSERT_TRUE(
      store.AppendBatch("s", s.times.data(), s.values.data(), 3000).ok());
  ASSERT_TRUE(store.Flush().ok());
  std::string path = ::testing::TempDir() + "/etsqp_fbs_lru.tsfile";
  ASSERT_TRUE(WriteTsFile(store, path).ok());

  FileBackedStore probe;
  ASSERT_TRUE(probe.Open(path).ok());
  const auto& pages = probe.GetSeries("s").value()->pages;
  ASSERT_EQ(pages.size(), 3u);
  // Room for page 0 plus either of the others, never all three.
  FileBackedStore::Options fopt;
  fopt.memory_budget_bytes =
      pages[0].encoded_bytes() +
      std::max(pages[1].encoded_bytes(), pages[2].encoded_bytes());
  FileBackedStore fbs;
  ASSERT_TRUE(fbs.Open(path, fopt).ok());
  ASSERT_TRUE(fbs.LoadPage("s", 0).ok());
  ASSERT_TRUE(fbs.LoadPage("s", 1).ok());
  ASSERT_TRUE(fbs.LoadPage("s", 0).ok());  // hit: page 0 becomes newest
  ASSERT_TRUE(fbs.LoadPage("s", 2).ok());  // evicts page 1, not page 0
  FileBackedStore::Stats st = fbs.stats();
  EXPECT_EQ(st.pages_loaded, 3u);
  EXPECT_EQ(st.pool_hits, 1u);
  EXPECT_EQ(st.pages_evicted, 1u);
  ASSERT_TRUE(fbs.LoadPage("s", 0).ok());
  EXPECT_EQ(fbs.stats().pool_hits, 2u);
  EXPECT_EQ(fbs.stats().pages_loaded, 3u);
  std::remove(path.c_str());
}

TEST(FileBackedStoreTest, ConcurrentLoadsAreSafe) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 500;
  ASSERT_TRUE(store.CreateSeries("s", opt).ok());
  TestSeries s = MakeWalk(10000, 41);
  ASSERT_TRUE(
      store.AppendBatch("s", s.times.data(), s.values.data(), 10000).ok());
  ASSERT_TRUE(store.Flush().ok());
  std::string path = ::testing::TempDir() + "/etsqp_fbs_mt.tsfile";
  ASSERT_TRUE(WriteTsFile(store, path).ok());

  FileBackedStore fbs;
  FileBackedStore::Options fopt;
  fopt.memory_budget_bytes = 4096;  // heavy eviction pressure
  ASSERT_TRUE(fbs.Open(path, fopt).ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&fbs, &failures, w] {
      std::mt19937_64 rng(w);
      for (int i = 0; i < 100; ++i) {
        size_t p = rng() % 20;
        auto page = fbs.LoadPage("s", p);
        if (!page.ok() || page.value()->header.count != 500) {
          failures.fetch_add(1);
          continue;
        }
        // The shared_ptr keeps the payload alive across evictions.
        std::vector<int64_t> v(page.value()->header.count);
        if (!DecodePageColumn(page.value()->value_col, v.data()).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
  std::remove(path.c_str());
}

TEST(TsFileTest, FloatSeriesRoundTrip) {
  SeriesStore store;
  SeriesStore::SeriesOptions opt;
  opt.page_size = 700;
  opt.page.value_encoding = enc::ColumnEncoding::kChimpValue;
  ASSERT_TRUE(store.CreateSeries("f", opt).ok());
  std::mt19937_64 rng(43);
  std::vector<int64_t> t(3000);
  std::vector<double> v(3000);
  double x = 7.25;
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<int64_t>(i) * 5 + 1;
    x += (static_cast<double>(rng() % 100) - 50.0) / 8.0;
    v[i] = x;
  }
  ASSERT_TRUE(store.AppendBatchF64("f", t.data(), v.data(), t.size()).ok());
  ASSERT_TRUE(store.Flush().ok());
  std::string path = ::testing::TempDir() + "/etsqp_float.tsfile";
  ASSERT_TRUE(WriteTsFile(store, path).ok());

  SeriesStore loaded;
  ASSERT_TRUE(ReadTsFile(path, &loaded).ok());
  auto series = loaded.GetSeries("f");
  ASSERT_TRUE(series.ok());
  size_t at = 0;
  for (const auto& page_ptr : series.value()->pages) {
    const Page& p = *page_ptr;
    ASSERT_TRUE(enc::IsFloatEncoding(p.header.value_encoding));
    std::vector<double> out(p.header.count);
    ASSERT_TRUE(DecodePageColumnF64(p.value_col, out.data()).ok());
    for (double d : out) {
      ASSERT_EQ(d, v[at++]);
    }
  }
  EXPECT_EQ(at, v.size());
  std::remove(path.c_str());
}

TEST(FileBackedStoreTest, MissingFileAndSeries) {
  FileBackedStore fbs;
  EXPECT_FALSE(fbs.Open("/nonexistent/nope.tsfile").ok());
  FileBackedStore fbs2;
  SeriesStore store;
  ASSERT_TRUE(store.CreateSeries("a", {}).ok());
  ASSERT_TRUE(store.Append("a", 1, 2).ok());
  ASSERT_TRUE(store.Flush().ok());
  std::string path = ::testing::TempDir() + "/etsqp_fbs3.tsfile";
  ASSERT_TRUE(WriteTsFile(store, path).ok());
  ASSERT_TRUE(fbs2.Open(path).ok());
  EXPECT_FALSE(fbs2.GetSeries("ghost").ok());
  EXPECT_FALSE(fbs2.LoadPage("a", 99).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace etsqp::storage
