// Failure injection: decoders and parsers must handle corrupted, truncated,
// and adversarial inputs by returning an error Status (or, where headers
// cannot self-validate, bounded garbage) — never by crashing or reading out
// of bounds. These tests hammer every Parse/Decode entry point with
// truncations and random bit flips.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned_buffer.h"
#include "db/database.h"
#include "encoding/chimp.h"
#include "encoding/delta_rle.h"
#include "encoding/elf.h"
#include "encoding/fastlanes.h"
#include "encoding/generic_compress.h"
#include "encoding/gorilla.h"
#include "encoding/rlbe.h"
#include "encoding/sprintz.h"
#include "encoding/ts2diff.h"
#include "exec/column_decoder.h"
#include "exec/engine.h"
#include "page_encodings.h"
#include "parsed_bytes.h"
#include "sql/planner.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"
#include "storage/wal.h"

namespace etsqp {
namespace {

std::vector<int64_t> SampleSeries(size_t n) {
  std::mt19937_64 rng(1234);
  std::vector<int64_t> v(n);
  int64_t x = 777;
  for (auto& y : v) {
    x += static_cast<int64_t>(rng() % 101) - 50;
    y = x;
  }
  return v;
}

/// A corrupted blob goes through the single parse entry, as a page column
/// does, and decodes if it parses. Neither may crash; errors are fine.
void TryDecode(enc::ColumnEncoding encoding, const std::vector<uint8_t>& raw,
               uint32_t count) {
  ParsedBytes col = ParseBytes(raw.data(), raw.size(), encoding, count);
  if (!col.status.ok()) return;
  exec::DecodedColumn out;
  // May fail or produce garbage values; must return.
  exec::DecodeColumn(col.col, exec::DecodeStrategy::kEtsqp, &out).ok();
  exec::DecodeColumn(col.col, exec::DecodeStrategy::kSerial, &out).ok();
}

class TruncationTest : public ::testing::TestWithParam<enc::ColumnEncoding> {};

TEST_P(TruncationTest, EveryPrefixIsHandled) {
  std::vector<int64_t> values = SampleSeries(500);
  storage::PageOptions opt;
  opt.value_encoding = GetParam();
  std::vector<int64_t> times(values.size());
  for (size_t i = 0; i < times.size(); ++i) times[i] = 1 + 2 * i;
  auto page = storage::BuildPage(times.data(), values.data(), values.size(),
                                 opt);
  ASSERT_TRUE(page.ok());
  std::vector<uint8_t> blob(page.value().value_data.data(),
                            page.value().value_data.data() +
                                page.value().header.value_bytes);
  // Exhaustive small prefixes + sampled larger ones.
  for (size_t len = 0; len < std::min<size_t>(blob.size(), 64); ++len) {
    TryDecode(GetParam(), {blob.begin(), blob.begin() + len}, 500);
  }
  for (size_t len = 64; len < blob.size(); len += 37) {
    TryDecode(GetParam(), {blob.begin(), blob.begin() + len}, 500);
  }
}

TEST_P(TruncationTest, RandomBitFlipsAreHandled) {
  std::vector<int64_t> values = SampleSeries(800);
  storage::PageOptions opt;
  opt.value_encoding = GetParam();
  std::vector<int64_t> times(values.size());
  for (size_t i = 0; i < times.size(); ++i) times[i] = 1 + 2 * i;
  auto page = storage::BuildPage(times.data(), values.data(), values.size(),
                                 opt);
  ASSERT_TRUE(page.ok());
  std::vector<uint8_t> blob(page.value().value_data.data(),
                            page.value().value_data.data() +
                                page.value().header.value_bytes);
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> mutated = blob;
    int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      size_t bit = rng() % (mutated.size() * 8);
      mutated[bit >> 3] ^= static_cast<uint8_t>(1u << (bit & 7));
    }
    TryDecode(GetParam(), mutated, 800);
  }
}

// Every integer encoding of the page set.
INSTANTIATE_TEST_SUITE_P(
    Encodings, TruncationTest,
    ::testing::ValuesIn(PageEncodings(/*time_column=*/true)));

TEST(RobustnessTest, FloatCodecsSurviveCorruption) {
  std::mt19937_64 rng(7);
  std::vector<double> values(300);
  double v = 1.5;
  for (auto& x : values) x = (v += 0.25);
  enc::EncodedColumn chimp =
      enc::ChimpEncoder().EncodeDoubles(values.data(), values.size());
  enc::EncodedColumn gorilla =
      enc::GorillaValueEncoder().EncodeDoubles(values.data(), values.size());
  enc::EncodedColumn elf =
      enc::ElfEncoder().EncodeDoubles(values.data(), values.size());
  std::vector<double> out(300);
  for (int trial = 0; trial < 100; ++trial) {
    for (enc::EncodedColumn* col : {&chimp, &gorilla, &elf}) {
      enc::EncodedColumn mutated = *col;
      size_t bit = rng() % (mutated.bytes.size() * 8);
      mutated.bytes[bit >> 3] ^= static_cast<uint8_t>(1u << (bit & 7));
      // Must not crash; error status or wrong values are acceptable.
      if (col == &chimp) {
        enc::ChimpDecodeDoubles(mutated, out.data()).ok();
      } else if (col == &gorilla) {
        enc::GorillaValueDecodeDoubles(mutated, out.data()).ok();
      } else {
        enc::ElfDecodeDoubles(mutated, out.data()).ok();
      }
    }
  }
}

TEST(RobustnessTest, LzRejectsCorruptTokens) {
  std::mt19937_64 rng(13);
  std::vector<uint8_t> data(4096);
  for (auto& b : data) b = static_cast<uint8_t>(rng() % 7);  // compressible
  std::vector<uint8_t> lz = enc::LzCompress(data.data(), data.size());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(
      enc::LzDecompress(lz.data(), lz.size(), out.data(), data.size()).ok());
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> mutated = lz;
    size_t i = rng() % mutated.size();
    mutated[i] = static_cast<uint8_t>(rng());
    enc::LzDecompress(mutated.data(), mutated.size(), out.data(), data.size())
        .ok();  // no crash, no overrun (would trip ASAN/valgrind)
  }
}

TEST(RobustnessTest, PageDeserializeFuzz) {
  std::vector<int64_t> values = SampleSeries(200);
  std::vector<int64_t> times(values.size());
  for (size_t i = 0; i < times.size(); ++i) times[i] = i + 1;
  auto page = storage::BuildPage(times.data(), values.data(), values.size(),
                                 storage::PageOptions{});
  ASSERT_TRUE(page.ok());
  std::vector<uint8_t> bytes;
  storage::SerializePage(page.value(), &bytes);
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    mutated[rng() % mutated.size()] = static_cast<uint8_t>(rng());
    storage::Page out;
    size_t pos = 0;
    storage::DeserializePage(mutated.data(), mutated.size(), &pos, &out).ok();
  }
}

/// One corruption of page 3 in the test file: `bytes` written at `offset`
/// past the start of the page's value column, or of its serialized header.
struct PageCorruption {
  const char* what;
  bool in_value_column;
  size_t offset;
  std::vector<uint8_t> bytes;
};

/// Applies `c` to page `p` of the one-series TsFile at `path`.
void CorruptPage(const std::string& path, size_t p, const PageCorruption& c) {
  storage::FileBackedStore index;
  ASSERT_TRUE(index.Open(path).ok());
  Result<const storage::FileBackedStore::SeriesIndex*> s =
      index.GetSeries("s");
  ASSERT_TRUE(s.ok());
  const uint64_t payload = s.value()->file_offsets[p];
  const uint64_t base =
      c.in_value_column ? payload + s.value()->pages[p].header.time_bytes
                        : payload - storage::kPageHeaderBytes;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(base + c.offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(c.bytes.data(), 1, c.bytes.size(), f),
            c.bytes.size());
  std::fclose(f);
}

TEST(RobustnessTest, CorruptPageColumnIsCorruptionWhereThePageEnters) {
  // Ten 500-point TS2DIFF pages; page 3's value column claims 499 values,
  // or its header names an encoding no page holds: retired id 12, or a
  // byte no encoding has (the value encoding is header byte 5).
  const PageCorruption corruptions[] = {
      {"value count 499", true, 0, {0, 0, 0x01, 0xF3}},
      {"value encoding 12", false, 5, {12}},
      {"value encoding 200", false, 5, {200}},
  };
  const std::string path =
      ::testing::TempDir() + "/etsqp_corrupt_column.tsfile";
  for (const PageCorruption& c : corruptions) {
    SCOPED_TRACE(c.what);
    {
      db::Database writer;
      ASSERT_TRUE(writer.CreateTimeseries("s", 500).ok());
      std::vector<int64_t> t(5000), v(5000);
      for (size_t i = 0; i < t.size(); ++i) {
        t[i] = 10 * static_cast<int64_t>(i + 1);
        v[i] = static_cast<int64_t>(i * 7 % 101);
      }
      ASSERT_TRUE(writer.InsertBatch("s", t.data(), v.data(), t.size()).ok());
      ASSERT_TRUE(writer.Save(path).ok());
    }
    CorruptPage(path, 3, c);

    // A full load parses every page as it reads it.
    db::Database loaded;
    EXPECT_EQ(loaded.Load(path).code(), StatusCode::kCorruption);

    // A file-backed store indexes headers only; the page is parsed when a
    // query fetches it. A query that never fetches it answers.
    db::Database attached;
    ASSERT_TRUE(attached.OpenFile(path).ok());
    Result<exec::QueryResult> head =
        attached.Query("SELECT COUNT(s) FROM s WHERE time <= 100;");
    ASSERT_TRUE(head.ok()) << head.status().ToString();
    EXPECT_EQ(head.value().columns[0][0], 10.0);
    // The failed fetch leaves nothing in the pool: a second query fails the
    // same way.
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(attached.Query("SELECT SUM(s) FROM s;").status().code(),
                StatusCode::kCorruption)
          << round;
    }
    attached.CloseFile();
    std::remove(path.c_str());
  }
}

TEST(RobustnessTest, SqlFuzzNeverCrashes) {
  std::mt19937_64 rng(23);
  const char alphabet[] =
      "SELECT FROM WHERE AND SW UNION ORDER BY TIME sum avg a.b , ( ) * + - "
      "0123456789 <= >= < > = ;";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string q;
    size_t len = rng() % 60;
    for (size_t i = 0; i < len; ++i) {
      q += alphabet[rng() % (sizeof(alphabet) - 1)];
    }
    sql::PlanQuery(q).ok();  // error status or a plan; never a crash
  }
}

TEST(RobustnessTest, ConcurrentQueriesShareStore) {
  db::Database dbi(db::Database::Options{db::Database::Mode::kSimd, 2});
  ASSERT_TRUE(dbi.CreateTimeseries("s").ok());
  std::vector<int64_t> t(50000), v(50000);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<int64_t>(i + 1);
    v[i] = static_cast<int64_t>(i % 1000);
  }
  ASSERT_TRUE(dbi.InsertBatch("s", t.data(), v.data(), t.size()).ok());
  ASSERT_TRUE(dbi.Flush().ok());

  // Engine::Execute is const over an immutable store: many threads may
  // query concurrently.
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&dbi, &failures, w] {
      const char* queries[] = {
          "SELECT SUM(v) FROM s",
          "SELECT AVG(v) FROM s WHERE time >= 100 AND time <= 40000",
          "SELECT COUNT(v) FROM s WHERE v > 500",
          "SELECT MAX(v) FROM s SW(0, 5000)",
      };
      for (int i = 0; i < 20; ++i) {
        auto r = dbi.Query(queries[(w + i) % 4]);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace etsqp
