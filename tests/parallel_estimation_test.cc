// Tests for the parallel batch-estimation engine and the cross-round
// estimation cache: parallel EstimateAll must be byte-identical to serial,
// and cached rounds must skip re-estimation entirely.
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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
  const SizeEstimator::BatchResult base = RunBatch(SizeEstimationOptions());
  EXPECT_EQ(base.estimates.size(), Targets().size());

  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    SizeEstimationOptions parallel;
    parallel.pool = &pool;
    ExpectBitIdentical(base, RunBatch(parallel));
  }
}

TEST_F(ParallelEstimationTest, ParallelIdenticalInNoDeductionMode) {
  SizeEstimationOptions serial;
  serial.use_deduction = false;
  const SizeEstimator::BatchResult base = RunBatch(serial);
  ThreadPool pool(4);
  SizeEstimationOptions parallel = serial;
  parallel.pool = &pool;
  ExpectBitIdentical(base, RunBatch(parallel));
}

TEST_F(ParallelEstimationTest, HardwareConcurrencyKnobWorks) {
  ThreadPool pool(0);  // hardware concurrency
  SizeEstimationOptions options;
  options.pool = &pool;
  const SizeEstimator::BatchResult r = RunBatch(options);
  EXPECT_EQ(r.estimates.size(), Targets().size());
}

TEST_F(ParallelEstimationTest, RepeatedRunsAreDeterministic) {
  // Same seed, fresh samples: estimates must be reproducible run to run
  // (per-key RNG seeding, not draw-order seeding).
  ThreadPool pool(4);
  SizeEstimationOptions options;
  options.pool = &pool;
  ExpectBitIdentical(RunBatch(options), RunBatch(options));
}

// Records which thread first asked for each (object, fraction) sample,
// i.e. which thread drew it. A first draw on the constructing thread is
// slowed down, so that if it happened inside a fan-out, pool workers would
// reach the other tables' leaves and draw their samples meanwhile.
class DrawThreadRecorder : public SampleSource {
 public:
  DrawThreadRecorder(const Database& db, SampleManager* samples)
      : inner_(db, samples), caller_(std::this_thread::get_id()) {}

  const Table& Sample(const std::string& object, double f) override {
    bool first = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      first = drawn_by_
                  .emplace(object + "|" + std::to_string(f),
                           std::this_thread::get_id())
                  .second;
    }
    if (first && std::this_thread::get_id() == caller_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return inner_.Sample(object, f);
  }
  // Counting rows draws nothing, so it is not recorded: only real draws
  // (in Execute and for partial indexes) are checked.
  uint64_t SampleRows(const std::string& object, double f) override {
    return inner_.SampleRows(object, f);
  }
  double FullTuples(const std::string& object) override {
    return inner_.FullTuples(object);
  }
  const Schema& ObjectSchema(const std::string& object) override {
    return inner_.ObjectSchema(object);
  }

  std::map<std::string, std::thread::id> drawn_by() const {
    std::lock_guard<std::mutex> lock(mu_);
    return drawn_by_;
  }

 private:
  TableSampleSource inner_;
  const std::thread::id caller_;
  mutable std::mutex mu_;
  std::map<std::string, std::thread::id> drawn_by_;
};

TEST_F(ParallelEstimationTest, SamplesAreDrawnOnTheCallingThread) {
  // Where a sample is drawn decides which allocator arena holds it; a
  // worker-drawn sample makes the process's peak memory depend on
  // scheduling. Both parallel batch entry points draw on the caller.
  ThreadPool pool(4);
  SizeEstimationOptions options;
  options.pool = &pool;
  SampleManager samples(1234);
  DrawThreadRecorder source(db_, &samples);
  SizeEstimator estimator(db_, &source, ErrorModel(), options);

  IndexDef partial = Idx({"l_shipdate"}, CompressionKind::kNone);
  partial.filter =
      ColumnFilter{"l_quantity", FilterOp::kLt, Value::Int64(10), {}};
  estimator.UncompressedSizeAll({partial, partial, partial, partial});
  // Leaves on three tables, the first two on tables of their own: without
  // the pre-draw in Execute, the workers that pick up those leaves while
  // the caller draws for the first one would draw their samples.
  IndexDef orders = Idx({"o_orderdate"});
  orders.object = "orders";
  IndexDef part = Idx({"p_brand"});
  part.object = "part";
  std::vector<IndexDef> targets = {orders, part};
  for (const IndexDef& def : Targets()) targets.push_back(def);
  const SizeEstimator::BatchResult r = estimator.EstimateAll(targets);

  const std::map<std::string, std::thread::id> drawn_by = source.drawn_by();
  const std::string at_chosen_f = "|" + std::to_string(r.chosen_f);
  for (const char* object : {"lineitem", "orders", "part"}) {
    EXPECT_EQ(drawn_by.count(object + at_chosen_f), 1u) << object;
  }
  for (const auto& [key, thread] : drawn_by) {
    EXPECT_EQ(thread, std::this_thread::get_id()) << key;
  }
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
