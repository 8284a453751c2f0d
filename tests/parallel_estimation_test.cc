// Tests for the parallel batch-estimation engine and the cross-round
// estimation cache: parallel EstimateAll must be byte-identical to serial,
// and cached rounds must skip re-estimation entirely.
#include <cstring>

#include <gtest/gtest.h>

#include "estimator/size_estimator.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

class ParallelEstimationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 6000;
    tpch::Build(&db_, opt);
  }

  IndexDef Idx(std::vector<std::string> keys,
               CompressionKind kind = CompressionKind::kRow) {
    IndexDef def;
    def.object = "lineitem";
    def.key_columns = std::move(keys);
    def.compression = kind;
    return def;
  }

  std::vector<IndexDef> Targets() {
    return {Idx({"l_shipdate"}),
            Idx({"l_shipmode"}),
            Idx({"l_shipdate", "l_shipmode"}),
            Idx({"l_shipdate", "l_shipmode", "l_quantity"}),
            Idx({"l_partkey", "l_suppkey"}),
            Idx({"l_quantity", "l_discount"}, CompressionKind::kPage),
            Idx({"l_partkey"}, CompressionKind::kPage)};
  }

  // Runs EstimateAll on a fresh SampleManager/estimator pair so every run
  // draws its own samples (per-key seeding makes them identical anyway).
  SizeEstimator::BatchResult RunBatch(SizeEstimationOptions options,
                                      uint64_t seed = 1234) {
    SampleManager samples(seed);
    TableSampleSource source(db_, &samples);
    SizeEstimator estimator(db_, &source, ErrorModel(), std::move(options));
    return estimator.EstimateAll(Targets());
  }

  static void ExpectBitIdentical(const SizeEstimator::BatchResult& a,
                                 const SizeEstimator::BatchResult& b) {
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    EXPECT_EQ(std::memcmp(&a.chosen_f, &b.chosen_f, sizeof(double)), 0);
    EXPECT_EQ(
        std::memcmp(&a.total_cost_pages, &b.total_cost_pages, sizeof(double)),
        0);
    EXPECT_EQ(a.num_sampled, b.num_sampled);
    EXPECT_EQ(a.num_deduced, b.num_deduced);
    auto ita = a.estimates.begin();
    auto itb = b.estimates.begin();
    for (; ita != a.estimates.end(); ++ita, ++itb) {
      EXPECT_EQ(ita->first, itb->first);
      // memcmp, not ==: the criterion is bit-identical doubles.
      EXPECT_EQ(std::memcmp(&ita->second, &itb->second, sizeof(SampleCfResult)),
                0)
          << ita->first;
    }
  }

  Database db_;
};

TEST_F(ParallelEstimationTest, ParallelEstimateAllBitIdenticalToSerial) {
  SizeEstimationOptions serial;
  serial.num_threads = 1;
  const SizeEstimator::BatchResult base = RunBatch(serial);
  EXPECT_EQ(base.estimates.size(), Targets().size());

  for (int threads : {2, 4, 8}) {
    SizeEstimationOptions parallel;
    parallel.num_threads = threads;
    ExpectBitIdentical(base, RunBatch(parallel));
  }
}

TEST_F(ParallelEstimationTest, ParallelIdenticalInNoDeductionMode) {
  SizeEstimationOptions serial;
  serial.use_deduction = false;
  const SizeEstimator::BatchResult base = RunBatch(serial);
  SizeEstimationOptions parallel = serial;
  parallel.num_threads = 4;
  ExpectBitIdentical(base, RunBatch(parallel));
}

TEST_F(ParallelEstimationTest, HardwareConcurrencyKnobWorks) {
  SizeEstimationOptions options;
  options.num_threads = 0;  // hardware concurrency
  const SizeEstimator::BatchResult r = RunBatch(options);
  EXPECT_EQ(r.estimates.size(), Targets().size());
}

TEST_F(ParallelEstimationTest, RepeatedRunsAreDeterministic) {
  // Same seed, fresh samples: estimates must be reproducible run to run
  // (per-key RNG seeding, not draw-order seeding).
  SizeEstimationOptions options;
  options.num_threads = 4;
  ExpectBitIdentical(RunBatch(options), RunBatch(options));
}

TEST_F(ParallelEstimationTest, CacheSkipsReEstimation) {
  SizeEstimationOptions options;
  options.cache = std::make_shared<EstimationCache>();

  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  SizeEstimator estimator(db_, &source, ErrorModel(), options);

  const SizeEstimator::BatchResult first = estimator.EstimateAll(Targets());
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_GT(first.total_cost_pages, 0.0);
  EXPECT_GE(options.cache->size(), Targets().size());

  const SizeEstimator::BatchResult second = estimator.EstimateAll(Targets());
  EXPECT_EQ(second.cache_hits, Targets().size());
  EXPECT_EQ(second.num_sampled, 0u);
  EXPECT_DOUBLE_EQ(second.total_cost_pages, 0.0);
  // Fully cache-served batches pick no fraction; consumers (the advisor's
  // bookkeeping) treat 0 as "keep the previous round's f".
  EXPECT_DOUBLE_EQ(second.chosen_f, 0.0);
  ASSERT_EQ(second.estimates.size(), first.estimates.size());
  for (const auto& [sig, r] : first.estimates) {
    ASSERT_TRUE(second.estimates.count(sig));
    EXPECT_DOUBLE_EQ(second.estimates.at(sig).est_bytes, r.est_bytes) << sig;
  }
}

TEST_F(ParallelEstimationTest, CachePartialHitEstimatesOnlyFreshTargets) {
  SizeEstimationOptions options;
  options.cache = std::make_shared<EstimationCache>();

  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  SizeEstimator estimator(db_, &source, ErrorModel(), options);

  const std::vector<IndexDef> warm = {Idx({"l_shipdate"}), Idx({"l_shipmode"})};
  estimator.EstimateAll(warm);

  const SizeEstimator::BatchResult batch = estimator.EstimateAll(Targets());
  EXPECT_EQ(batch.cache_hits, warm.size());
  EXPECT_EQ(batch.estimates.size(), Targets().size());
  for (const IndexDef& t : Targets()) {
    EXPECT_TRUE(batch.estimates.count(t.Signature())) << t.ToString();
  }
}

TEST_F(ParallelEstimationTest, CacheSharedAcrossEstimators) {
  auto cache = std::make_shared<EstimationCache>();
  SizeEstimationOptions options;
  options.cache = cache;

  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  {
    SizeEstimator first(db_, &source, ErrorModel(), options);
    first.EstimateAll(Targets());
  }
  SizeEstimator second(db_, &source, ErrorModel(), options);
  const SizeEstimator::BatchResult r = second.EstimateAll(Targets());
  EXPECT_EQ(r.cache_hits, Targets().size());
  EXPECT_GT(cache->hits(), 0u);
}

TEST(EstimationCacheTest, LruEvictsLeastRecentlyUsed) {
  EstimationCache cache;
  SampleCfResult r;
  r.est_bytes = 1.0;
  cache.Insert("a", 0.01, r);
  const size_t per_entry = cache.charged_bytes();  // same-length keys below
  cache.set_capacity_bytes(3 * per_entry);
  cache.Insert("b", 0.01, r);
  cache.Insert("c", 0.01, r);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch "a" so "b" becomes least recently used, then overflow.
  EXPECT_TRUE(cache.Lookup("a", 0.01).has_value());
  cache.Insert("d", 0.01, r);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Lookup("b", 0.01).has_value());
  EXPECT_TRUE(cache.Lookup("a", 0.01).has_value());
  EXPECT_TRUE(cache.Lookup("c", 0.01).has_value());
  EXPECT_TRUE(cache.Lookup("d", 0.01).has_value());
}

TEST(EstimationCacheTest, ShrinkingCapacityEvictsImmediately) {
  EstimationCache cache;  // unbounded by default
  SampleCfResult r;
  for (int i = 0; i < 8; ++i) {
    cache.Insert("idx" + std::to_string(i), 0.01, r);
  }
  EXPECT_EQ(cache.size(), 8u);
  const size_t bytes_for_two = cache.charged_bytes() / 4;
  cache.set_capacity_bytes(bytes_for_two);
  EXPECT_LE(cache.size(), 2u);
  EXPECT_LE(cache.charged_bytes(), bytes_for_two);
  EXPECT_GE(cache.evictions(), 6u);
  // The survivors are the most recently inserted.
  EXPECT_TRUE(cache.Lookup("idx7", 0.01).has_value());
}

TEST_F(ParallelEstimationTest, CacheCapacityOptionBoundsTheCache) {
  SizeEstimationOptions options;
  // A bound too small for even one entry: every insert is evicted again,
  // so the cache never grows — the extreme case of the memory bound.
  options.cache = std::make_shared<EstimationCache>(/*capacity_bytes=*/1);

  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  SizeEstimator estimator(db_, &source, ErrorModel(), options);
  EXPECT_EQ(options.cache->capacity_bytes(), 1u);

  const SizeEstimator::BatchResult batch = estimator.EstimateAll(Targets());
  EXPECT_EQ(batch.estimates.size(), Targets().size());
  EXPECT_EQ(options.cache->size(), 0u);
  EXPECT_GT(options.cache->evictions(), 0u);
}

TEST(EstimationCacheTest, LookupBestPrefersLargestFraction) {
  EstimationCache cache;
  SampleCfResult coarse;
  coarse.est_bytes = 100.0;
  SampleCfResult fine;
  fine.est_bytes = 120.0;
  cache.Insert("idx", 0.01, coarse);
  cache.Insert("idx", 0.10, fine);
  const auto best = cache.LookupBest("idx", {0.01, 0.025, 0.05, 0.10});
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->est_bytes, 120.0);
  EXPECT_FALSE(cache.Lookup("idx", 0.05).has_value());
  EXPECT_FALSE(cache.LookupBest("other", {0.01}).has_value());
}

}  // namespace
}  // namespace capd
