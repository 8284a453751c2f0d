// Tests for the blocked/generated Table path and the streaming sampler:
// generated bytes pinned by hash (scan, samples, sampled stats), selective
// generation (CollectRows builds only the picked rows) vs Materialize
// (builds every row), the CollectRows index contract on both backends,
// byte-identity of streaming vs materialized samples, blocked iteration vs
// rows(), parallel materialization determinism, sampled stats on generated
// tables, and — via the process-wide allocation tracker in
// src/common/alloc_tracker.{h,cc} (activated for this binary by referencing
// its accessors) — a hard assertion that drawing a sample from a
// multi-million-row generated table allocates O(sample), not O(table).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "common/alloc_tracker.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "stats/column_stats.h"
#include "stats/sampler.h"
#include "storage/block.h"
#include "storage/table.h"
#include "workloads/scale.h"

namespace capd {
namespace {

// Rows for the big-table memory assertion: 10^7 in optimized builds, 10^6
// under sanitizers/debug where generation is ~10x slower.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(NDEBUG)
constexpr uint64_t kBigRows = 1000000;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr uint64_t kBigRows = 1000000;
#else
constexpr uint64_t kBigRows = 10000000;
#endif
#else
constexpr uint64_t kBigRows = 10000000;
#endif

std::string RowString(const Row& row) {
  std::string s;
  for (const Value& v : row) {
    s += v.ToString();
    s += '\x1f';
  }
  return s;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

void HashBytes(const void* p, size_t n, uint64_t* h) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) *h = (*h ^ b[i]) * 1099511628211ull;
}

// FNV-1a over each value's type tag and exact payload bytes (doubles by
// bit pattern, strings length-prefixed), so a pinned hash moves on any
// change to a generated byte.
void HashRow(const Row& row, uint64_t* h) {
  for (const Value& v : row) {
    const uint8_t tag = static_cast<uint8_t>(v.type());
    HashBytes(&tag, 1, h);
    switch (v.type()) {
      case ValueType::kInt64:
      case ValueType::kDate: {
        const int64_t x = v.AsInt64();
        HashBytes(&x, sizeof(x), h);
        break;
      }
      case ValueType::kDouble: {
        const double d = v.AsDouble();
        HashBytes(&d, sizeof(d), h);
        break;
      }
      case ValueType::kString: {
        const std::string& str = v.AsString();
        const uint64_t len = str.size();
        HashBytes(&len, sizeof(len), h);
        HashBytes(str.data(), str.size(), h);
        break;
      }
    }
  }
}

uint64_t HashRows(const std::vector<Row>& rows) {
  uint64_t h = kFnvBasis;
  for (const Row& r : rows) HashRow(r, &h);
  return h;
}

// A generated events table of `rows` rows (plus its devices dimension).
std::unique_ptr<Database> BuildScaleDb(uint64_t rows) {
  auto db = std::make_unique<Database>();
  scale::Options opt;
  opt.fact_rows = rows;
  scale::Build(db.get(), opt);
  return db;
}

// Simple deterministic source for table-level tests: (idx, seeded draw).
class PairSource : public BlockSource {
 public:
  explicit PairSource(uint64_t seed) : seed_(seed) {}

  void GenerateRows(uint64_t block_index, uint64_t first_row, uint64_t count,
                    const std::vector<uint32_t>* wanted,
                    std::vector<Row>* out) const override {
    Random rng(BlockSeed(seed_, block_index));
    size_t next = 0;  // next entry of *wanted
    for (uint64_t r = 0; r < count; ++r) {
      const int64_t v = rng.Uniform(0, 1000);
      if (wanted != nullptr) {
        if (next == wanted->size() || (*wanted)[next] != r) continue;
        ++next;
      }
      const int64_t idx = static_cast<int64_t>(first_row + r);
      out->push_back({Value::Int64(idx), Value::Int64(v)});
    }
  }

 private:
  uint64_t seed_;
};

Schema PairSchema() {
  return Schema({{"idx", ValueType::kInt64, 8}, {"v", ValueType::kInt64, 8}});
}

// Picks over a table of kPickBlocks * kDefaultBlockRows + kPickTail rows: a
// single pick (block 0), the first and last row of a block (block 1), no
// pick (block 2), every row of a block (block 3) and the partial final
// block (block 4, including the table's last row).
constexpr uint64_t kPickBlocks = 4;
constexpr uint64_t kPickTail = 37;
constexpr uint64_t kPickRows = kPickBlocks * kDefaultBlockRows + kPickTail;

std::vector<uint64_t> CoveringPicks() {
  const uint64_t b = kDefaultBlockRows;
  std::vector<uint64_t> picks = {5, b, 2 * b - 1};
  for (uint64_t i = 3 * b; i < 4 * b; ++i) picks.push_back(i);
  picks.push_back(4 * b + 10);
  picks.push_back(kPickRows - 1);
  return picks;
}

// CollectRows builds only the picked rows; Materialize builds every row.
// Equal rows at the same indices show a kept row never depends on which
// others are wanted.
void ExpectCollectMatchesMaterialize(const Table& gen) {
  ASSERT_FALSE(gen.materialized());
  ASSERT_EQ(gen.num_rows(), kPickRows);
  const std::unique_ptr<Table> mat = gen.Materialize();
  const std::vector<uint64_t> picks = CoveringPicks();
  const std::vector<Row> got = gen.CollectRows(picks);
  ASSERT_EQ(got.size(), picks.size());
  for (size_t i = 0; i < picks.size(); ++i) {
    ASSERT_EQ(RowString(got[i]), RowString(mat->rows()[picks[i]]))
        << "row " << picks[i];
  }
  // Same rows through the materialized backend.
  EXPECT_EQ(HashRows(mat->CollectRows(picks)), HashRows(got));
}

TEST(BlockTest, BlockSeedDecorrelatesNeighbors) {
  EXPECT_NE(BlockSeed(1, 0), BlockSeed(1, 1));
  EXPECT_NE(BlockSeed(1, 0), BlockSeed(2, 0));
  EXPECT_EQ(BlockSeed(5, 9), BlockSeed(5, 9));
}

TEST(GeneratedTableTest, ScanMatchesMaterializedRows) {
  // Odd row count exercises the partial final block.
  const uint64_t n = 3 * kDefaultBlockRows + 17;
  Table gen("t", PairSchema(), n, std::make_shared<PairSource>(99));
  EXPECT_FALSE(gen.materialized());
  EXPECT_EQ(gen.num_rows(), n);
  EXPECT_EQ(gen.num_blocks(), 4u);

  const std::unique_ptr<Table> mat = gen.Materialize();
  ASSERT_TRUE(mat->materialized());
  ASSERT_EQ(mat->num_rows(), n);

  uint64_t visited = 0;
  gen.ScanRows([&](uint64_t idx, const Row& row) {
    EXPECT_EQ(idx, visited);
    EXPECT_EQ(RowString(row), RowString(mat->rows()[idx]));
    ++visited;
  });
  EXPECT_EQ(visited, n);
}

TEST(GeneratedTableTest, ParallelMaterializeBitIdentical) {
  const uint64_t n = 5 * kDefaultBlockRows + 3;
  Table gen("t", PairSchema(), n, std::make_shared<PairSource>(1234));
  const std::unique_ptr<Table> serial = gen.Materialize(nullptr);
  ThreadPool pool(4);
  const std::unique_ptr<Table> parallel = gen.Materialize(&pool);
  ASSERT_EQ(serial->num_rows(), parallel->num_rows());
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(RowString(serial->rows()[i]), RowString(parallel->rows()[i]));
  }
}

TEST(GeneratedTableTest, CollectRowsMatchesMaterializePairSource) {
  Table gen("t", PairSchema(), kPickRows, std::make_shared<PairSource>(77));
  ExpectCollectMatchesMaterialize(gen);
}

TEST(GeneratedTableTest, CollectRowsMatchesMaterializeEvents) {
  const std::unique_ptr<Database> db = BuildScaleDb(kPickRows);
  ExpectCollectMatchesMaterialize(db->table("events"));
}

TEST(GeneratedTableTest, CollectRowsEmptyPicks) {
  Table gen("t", PairSchema(), kPickRows, std::make_shared<PairSource>(3));
  EXPECT_TRUE(gen.CollectRows({}).empty());
}

// Both backends require strictly ascending indices: a duplicate or an
// out-of-order pick inside one block dies instead of being dropped or
// reordered.
TEST(CollectRowsDeathTest, DuplicatePickDies) {
  Table gen("t", PairSchema(), kPickRows, std::make_shared<PairSource>(3));
  const std::unique_ptr<Table> mat = gen.Materialize();
  EXPECT_DEATH(gen.CollectRows({2, 5, 5}), "strictly ascending");
  EXPECT_DEATH(mat->CollectRows({2, 5, 5}), "strictly ascending");
}

TEST(CollectRowsDeathTest, OutOfOrderPickInOneBlockDies) {
  Table gen("t", PairSchema(), kPickRows, std::make_shared<PairSource>(3));
  const std::unique_ptr<Table> mat = gen.Materialize();
  EXPECT_DEATH(gen.CollectRows({5, 3}), "strictly ascending");
  EXPECT_DEATH(mat->CollectRows({5, 3}), "strictly ascending");
}

TEST(ScaleWorkloadTest, StreamingSampleMatchesMaterializedSample) {
  const std::unique_ptr<Database> db = BuildScaleDb(10000);
  const Table& gen = db->table("events");
  ASSERT_FALSE(gen.materialized());
  const std::unique_ptr<Table> mat = gen.Materialize();

  Random rng_gen(4242), rng_mat(4242);
  const std::unique_ptr<Table> from_gen =
      CreateUniformSample(gen, 0.03, /*min_rows=*/50, &rng_gen);
  const std::unique_ptr<Table> from_mat =
      CreateUniformSample(*mat, 0.03, /*min_rows=*/50, &rng_mat);

  ASSERT_EQ(from_gen->num_rows(), from_mat->num_rows());
  ASSERT_GT(from_gen->num_rows(), 0u);
  for (uint64_t i = 0; i < from_gen->num_rows(); ++i) {
    ASSERT_EQ(RowString(from_gen->rows()[i]), RowString(from_mat->rows()[i]));
  }
}

TEST(ScaleWorkloadTest, SampledStatsOnGeneratedTable) {
  const std::unique_ptr<Database> db = BuildScaleDb(100000);
  const Table& events = db->table("events");
  const TableStats stats = TableStats::Compute(events);
  EXPECT_EQ(stats.num_rows(), 100000u);
  // e_id is unique: the GEE-scaled estimate must land well above the raw
  // sample distinct count and at most n.
  const ColumnStats& id = stats.column("e_id");
  EXPECT_EQ(id.num_rows, 100000u);
  EXPECT_GT(id.distinct, TableStats::kSampledStatsRows);
  EXPECT_LE(id.distinct, 100000u);
  // e_status has 4 classes regardless of scale.
  EXPECT_EQ(stats.column("e_status").distinct, 4u);
  // Deterministic: recomputing yields the same estimates.
  const TableStats again = TableStats::Compute(events);
  EXPECT_EQ(again.column("e_id").distinct, id.distinct);
  // Column combinations scale from the retained sample.
  const uint64_t combo =
      stats.DistinctOfColumns(events, {"e_status", "e_region"});
  EXPECT_GE(combo, 4u);
  EXPECT_LE(combo, 80u);  // 4 statuses x 20 regions
}

TEST(ScaleWorkloadTest, BigTableSampleAllocatesOSample) {
  const std::unique_ptr<Database> db = BuildScaleDb(kBigRows);
  const Table& events = db->table("events");
  ASSERT_EQ(events.num_rows(), kBigRows);

  // Full materialization of kBigRows events rows would allocate gigabytes
  // (8 Values/row at ~56 bytes each). The streaming sample path must stay
  // within a small fixed budget above the baseline: the sample rows, one
  // block's wanted offsets and the sorted index vector.
  const long long baseline = ResetPeakAllocBytes();
  Random rng(7);
  const double f =
      static_cast<double>(10000) / static_cast<double>(kBigRows);
  const std::unique_ptr<Table> sample =
      CreateUniformSample(events, f, /*min_rows=*/50, &rng);
  const long long peak_delta = PeakAllocBytes() - baseline;

  EXPECT_EQ(sample->num_rows(), 10000u);
  constexpr long long kBudgetBytes = 64ll << 20;  // 64 MiB
  EXPECT_LT(peak_delta, kBudgetBytes)
      << "sample extraction allocated " << peak_delta
      << " bytes — O(table), not O(sample)?";
}

// Pinned generated bytes of a scale events table of kPinnedRows rows (its
// last block is partial): the full scan, the SampleManager samples at four
// fractions and the sampled stats' distinct counts (NDV). Any change to a
// source's draw order, or to which draws a skipped row takes, moves them.
constexpr uint64_t kPinnedRows = 100017;
constexpr uint64_t kPinnedScanHash = 0xa7d3d2cd6097804aull;
constexpr double kPinnedFractions[] = {0.01, 0.025, 0.05, 0.10};
constexpr uint64_t kPinnedSampleRows[] = {1000, 2500, 5001, 10002};
constexpr uint64_t kPinnedSampleHashes[] = {
    0xf7abaf21f34c96d3ull, 0x3ff061635cfecf79ull, 0xa86777e3a222ff9eull,
    0xc50b148b34e8cbc0ull};
constexpr uint64_t kPinnedNdv[] = {40481, 100, 10186, 731, 1001, 4, 20, 100};

TEST(ScaleBytesPinned, ScanAndMaterializeHash) {
  const std::unique_ptr<Database> db = BuildScaleDb(kPinnedRows);
  const Table& events = db->table("events");
  ASSERT_EQ(events.num_blocks(), 13u);
  ASSERT_NE(kPinnedRows % events.block_rows(), 0u);
  uint64_t scan_hash = kFnvBasis;
  uint64_t visited = 0;
  events.ScanRows([&](uint64_t idx, const Row& row) {
    ASSERT_EQ(idx, visited++);
    HashRow(row, &scan_hash);
  });
  EXPECT_EQ(visited, kPinnedRows);
  EXPECT_EQ(scan_hash, kPinnedScanHash);
  ThreadPool pool(3);
  EXPECT_EQ(HashRows(events.Materialize(&pool)->rows()), kPinnedScanHash);
}

TEST(ScaleBytesPinned, SampleManagerHashes) {
  const std::unique_ptr<Database> db = BuildScaleDb(kPinnedRows);
  const Table& events = db->table("events");
  SampleManager samples(/*seed=*/20110829);
  for (size_t i = 0; i < 4; ++i) {
    const Table& s = samples.GetSample(events, kPinnedFractions[i]);
    EXPECT_EQ(s.num_rows(), kPinnedSampleRows[i]);
    EXPECT_EQ(HashRows(s.rows()), kPinnedSampleHashes[i])
        << "f=" << kPinnedFractions[i];
  }
  EXPECT_EQ(samples.rows_scanned(), 4 * kPinnedRows);
}

TEST(ScaleBytesPinned, SampledStatsDistinct) {
  const std::unique_ptr<Database> db = BuildScaleDb(kPinnedRows);
  const Table& events = db->table("events");
  const TableStats stats = TableStats::Compute(events);
  const Schema& schema = events.schema();
  ASSERT_EQ(schema.num_columns(), 8u);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const std::string& name = schema.column(c).name;
    EXPECT_EQ(stats.column(name).distinct, kPinnedNdv[c]) << name;
  }
}

}  // namespace
}  // namespace capd
