// Tests for the per-statement what-if cost cache: cached WorkloadCost must
// match the uncached optimizer to the bit on randomized configurations,
// the relevance bits read from the prepared facts must mirror the
// optimizer's usability rules and be sound, and memoized MV facts must
// match a fresh matcher call.
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "common/random.h"
#include "mv/mv_registry.h"
#include "optimizer/cost_cache.h"
#include "workloads/sales.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

class WhatIfCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 6000;
    tpch::Build(&db_, opt);
    workload_ = tpch::MakeWorkload(db_, opt);
    optimizer_ = std::make_unique<WhatIfOptimizer>(db_, CostModelParams{});
  }

  static PhysicalIndexEstimate Est(std::string table,
                                   std::vector<std::string> keys,
                                   CompressionKind kind, bool clustered,
                                   double bytes) {
    PhysicalIndexEstimate est;
    est.def.object = std::move(table);
    est.def.key_columns = std::move(keys);
    est.def.compression = kind;
    est.def.clustered = clustered;
    est.bytes = bytes;
    est.tuples = bytes / 64.0;
    return est;
  }

  // A deterministic pool of index estimates spanning every workload table,
  // several widths and compressions, plus a clustered index.
  std::vector<PhysicalIndexEstimate> CandidatePool() const {
    std::vector<PhysicalIndexEstimate> pool;
    pool.push_back(Est("lineitem", {"l_shipdate"}, CompressionKind::kRow,
                       false, 240000));
    pool.push_back(Est("lineitem", {"l_shipdate", "l_extendedprice"},
                       CompressionKind::kPage, false, 310000));
    pool.push_back(Est("lineitem", {"l_partkey", "l_extendedprice"},
                       CompressionKind::kNone, false, 380000));
    pool.push_back(Est("lineitem", {"l_orderkey", "l_quantity"},
                       CompressionKind::kRow, false, 300000));
    pool.push_back(
        Est("lineitem", {"l_shipdate"}, CompressionKind::kNone, true, 900000));
    pool.push_back(
        Est("orders", {"o_orderdate"}, CompressionKind::kRow, false, 90000));
    pool.push_back(
        Est("part", {"p_partkey"}, CompressionKind::kNone, false, 40000));
    pool.push_back(
        Est("part", {"p_brand", "p_type"}, CompressionKind::kPage, false,
            45000));
    pool.push_back(Est("supplier", {"s_acctbal", "s_name"},
                       CompressionKind::kRow, false, 20000));
    pool.push_back(Est("customer", {"c_acctbal", "c_nationkey"},
                       CompressionKind::kNone, false, 30000));
    return pool;
  }

  // Random subset of the pool (unique signatures), in random order.
  Configuration RandomConfig(const std::vector<PhysicalIndexEstimate>& pool,
                             Random* rng) const {
    std::vector<size_t> order(pool.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng->Next(i)]);
    }
    const size_t n = rng->Next(pool.size() + 1);
    Configuration config;
    for (size_t i = 0; i < n; ++i) config.Add(pool[order[i]]);
    return config;
  }

  size_t StatementIndex(const std::string& id) const {
    for (size_t i = 0; i < workload_.statements.size(); ++i) {
      if (workload_.statements[i].id == id) return i;
    }
    ADD_FAILURE() << "no statement " << id;
    return 0;
  }

  Database db_;
  Workload workload_;
  std::unique_ptr<WhatIfOptimizer> optimizer_;
};

TEST_F(WhatIfCacheTest, CachedMatchesUncachedOnRandomConfigs) {
  StatementCostCache cache(*optimizer_, workload_);
  const std::vector<PhysicalIndexEstimate> pool = CandidatePool();
  Random rng(20260729);
  for (int trial = 0; trial < 60; ++trial) {
    const Configuration config = RandomConfig(pool, &rng);
    const double cached = cache.WorkloadCost(config);
    const double direct = optimizer_->WorkloadCost(workload_, config);
    // memcmp, not ==: the criterion is bit-identical doubles.
    EXPECT_EQ(std::memcmp(&cached, &direct, sizeof(double)), 0)
        << "trial " << trial << " config " << config.ToString();
  }
  // The random-order configs revisit relevant subsequences, so the cache
  // must have produced hits — and every one of them matched bitwise above.
  EXPECT_GT(cache.hits(), 0u);
}

TEST_F(WhatIfCacheTest, RepeatedQueryIsServedFromCache) {
  StatementCostCache cache(*optimizer_, workload_);
  const std::vector<PhysicalIndexEstimate> pool = CandidatePool();
  Configuration config;
  config.Add(pool[0]);
  config.Add(pool[5]);

  const double first = cache.WorkloadCost(config);
  const uint64_t misses_after_first = cache.misses();
  EXPECT_EQ(misses_after_first, workload_.statements.size());
  EXPECT_EQ(cache.hits(), 0u);

  const double second = cache.WorkloadCost(config);
  EXPECT_EQ(std::memcmp(&first, &second, sizeof(double)), 0);
  EXPECT_EQ(cache.misses(), misses_after_first);
  EXPECT_EQ(cache.hits(), workload_.statements.size());
}

TEST_F(WhatIfCacheTest, IrrelevantIndexReusesStatementCosts) {
  StatementCostCache cache(*optimizer_, workload_);
  const std::vector<PhysicalIndexEstimate> pool = CandidatePool();
  Configuration config;
  config.Add(pool[0]);  // lineitem(l_shipdate)
  cache.WorkloadCost(config);
  const uint64_t misses_before = cache.misses();

  // Adding a supplier-only index can only affect statements that touch
  // supplier (Q2, Q5, Q11 in this workload) — everything else must hit.
  Configuration extended = config;
  extended.Add(pool[8]);
  const double cached = cache.WorkloadCost(extended);
  const double direct = optimizer_->WorkloadCost(workload_, extended);
  EXPECT_EQ(std::memcmp(&cached, &direct, sizeof(double)), 0);
  EXPECT_LT(cache.misses() - misses_before, workload_.statements.size() / 2);
}

TEST_F(WhatIfCacheTest, RelevanceMirrorsOptimizerGates) {
  StatementCostCache cache(*optimizer_, workload_);
  const std::vector<PhysicalIndexEstimate> pool = CandidatePool();
  // Q1 reads lineitem only (l_returnflag/l_linestatus/l_quantity/
  // l_extendedprice/l_shipdate), no joins.
  const size_t q1 = StatementIndex("Q1");
  // Seekable: predicate on l_shipdate matches the leading key.
  EXPECT_TRUE(cache.Relevant(q1, pool[0].def));
  // Neither seekable nor covering for Q1: keyed on l_partkey.
  EXPECT_FALSE(cache.Relevant(q1, pool[2].def));
  // Clustered indexes replace the heap: always relevant on their table.
  EXPECT_TRUE(cache.Relevant(q1, pool[4].def));
  // Other tables never matter to Q1.
  EXPECT_FALSE(cache.Relevant(q1, pool[6].def));
  EXPECT_FALSE(cache.Relevant(q1, pool[8].def));

  // Q8 joins part on p_partkey: the part PK index serves index-NL.
  const size_t q8 = StatementIndex("Q8");
  EXPECT_TRUE(cache.Relevant(q8, pool[6].def));

  // A bulk INSERT maintains every index on the loaded table and nothing
  // else.
  const size_t bulk = StatementIndex("BULK_LINEITEM");
  EXPECT_TRUE(cache.Relevant(bulk, pool[2].def));
  EXPECT_TRUE(cache.Relevant(bulk, pool[4].def));
  EXPECT_FALSE(cache.Relevant(bulk, pool[6].def));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The sales star schema with everything the what-if optimizer can cost:
// an MV matcher with MV indexes, partial, BITMAP and clustered indexes, and
// the workload's two bulk INSERTs. Candidates and sizes come from the
// advisor's own generation and estimation phases.
class SalesWhatIfCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sales::Options opt;
    opt.fact_rows = 3000;
    sales::Build(&db_, opt);
    workload_ = sales::MakeWorkload(db_, opt);
    samples_ = std::make_unique<SampleManager>(4242);
    mvs_ = std::make_unique<MVRegistry>(db_, samples_.get());
    optimizer_ = std::make_unique<WhatIfOptimizer>(db_, CostModelParams{});
    optimizer_->set_mv_matcher(mvs_.get());
    options_ = AdvisorOptions::DTAcBitmap();
    options_.enable_mv = true;
    options_.enable_partial = true;
    estimator_ = std::make_unique<SizeEstimator>(db_, mvs_.get(), ErrorModel(),
                                                 options_.size_options);
    advisor_ = std::make_unique<Advisor>(db_, *optimizer_, estimator_.get(),
                                         mvs_.get(), options_);
    candidates_ = CandidateGenerator(db_, *optimizer_, mvs_.get(), options_)
                      .GenerateForWorkload(workload_);
    sizes_ = advisor_->EstimateSizes(candidates_, nullptr);
    for (const IndexDef& def : candidates_) {
      // A clustered partial index would remove the heap yet be unusable to
      // statements its filter does not cover; the generator never makes one.
      if (def.clustered && def.filter.has_value()) continue;
      pool_.push_back(sizes_.at(def.Signature()));
    }
  }

  bool IsMV(const IndexDef& def) const { return !db_.HasTable(def.object); }

  // Random subset of `pool` with unique signatures, in random order.
  Configuration RandomConfig(const std::vector<PhysicalIndexEstimate>& pool,
                             size_t max_members, Random* rng) const {
    const size_t n = rng->Next(max_members + 1);
    Configuration config;
    for (size_t tries = 0; config.size() < n && tries < 4 * n; ++tries) {
      const PhysicalIndexEstimate& pick = pool[rng->Next(pool.size())];
      if (config.Contains(pick.def.Signature())) continue;
      config.Add(pick);
    }
    return config;
  }

  Database db_;
  Workload workload_;
  std::unique_ptr<SampleManager> samples_;
  std::unique_ptr<MVRegistry> mvs_;
  std::unique_ptr<WhatIfOptimizer> optimizer_;
  AdvisorOptions options_;
  std::unique_ptr<SizeEstimator> estimator_;
  std::unique_ptr<Advisor> advisor_;
  std::vector<IndexDef> candidates_;
  std::map<std::string, PhysicalIndexEstimate> sizes_;
  std::vector<PhysicalIndexEstimate> pool_;
};

TEST_F(SalesWhatIfCacheTest, PoolCoversEveryIndexKind) {
  bool mv = false, partial = false, bitmap = false, clustered = false;
  for (const PhysicalIndexEstimate& est : pool_) {
    mv |= IsMV(est.def);
    partial |= est.def.filter.has_value();
    bitmap |= est.def.compression == CompressionKind::kBitmap;
    clustered |= est.def.clustered;
  }
  EXPECT_TRUE(mv);
  EXPECT_TRUE(partial);
  EXPECT_TRUE(bitmap);
  EXPECT_TRUE(clustered);
  bool insert = false;
  for (const Statement& s : workload_.statements) {
    insert |= s.type == StatementType::kInsert;
  }
  EXPECT_TRUE(insert);
}

TEST_F(SalesWhatIfCacheTest, CachedMatchesUncachedOnRandomConfigs) {
  // One MV index appears twice, at two sizes: facts are shared by
  // signature, but a cost computed at one size must never serve the other.
  std::vector<PhysicalIndexEstimate> pool = pool_;
  size_t twin = pool.size();
  for (size_t i = 0; i < pool.size(); ++i) {
    if (IsMV(pool[i].def)) {
      twin = i;
      break;
    }
  }
  ASSERT_LT(twin, pool.size());
  PhysicalIndexEstimate larger = pool[twin];
  larger.bytes *= 3.0;
  larger.tuples *= 2.0;
  pool.push_back(larger);

  StatementCostCache cache(*optimizer_, workload_);
  Random rng(20261019);
  for (int trial = 0; trial < 80; ++trial) {
    const Configuration config = RandomConfig(pool, 12, &rng);
    const double cached = cache.WorkloadCost(config);
    const double direct = optimizer_->WorkloadCost(workload_, config);
    EXPECT_TRUE(SameBits(cached, direct))
        << "trial " << trial << " config " << config.ToString();
  }
  // The twin at both sizes, costed through the cache in turn.
  Configuration small, large;
  small.Add(pool[twin]);
  large.Add(larger);
  const double cached_small = cache.WorkloadCost(small);
  const double cached_large = cache.WorkloadCost(large);
  EXPECT_TRUE(
      SameBits(cached_small, optimizer_->WorkloadCost(workload_, small)));
  EXPECT_TRUE(
      SameBits(cached_large, optimizer_->WorkloadCost(workload_, large)));
  EXPECT_FALSE(SameBits(cached_small, cached_large));
  EXPECT_GT(cache.hits(), 0u);
}

TEST_F(SalesWhatIfCacheTest, PlanTotalEqualsCost) {
  Random rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const Configuration config = RandomConfig(pool_, 10, &rng);
    for (const Statement& s : workload_.statements) {
      const double plan = optimizer_->CostWithPlan(s, config).total();
      const double cost = optimizer_->Cost(s, config);
      EXPECT_TRUE(SameBits(plan, cost)) << s.id << " " << config.ToString();
    }
  }
}

TEST_F(SalesWhatIfCacheTest, DroppingIrrelevantIndexesKeepsEveryCost) {
  StatementCostCache cache(*optimizer_, workload_);
  Random rng(99);
  size_t dropped = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Configuration config = RandomConfig(pool_, 12, &rng);
    for (size_t i = 0; i < workload_.statements.size(); ++i) {
      Configuration relevant;
      for (const PhysicalIndexEstimate& idx : config.indexes()) {
        if (cache.Relevant(i, idx.def)) {
          relevant.Add(idx);
        } else {
          ++dropped;
        }
      }
      const Statement& s = workload_.statements[i];
      EXPECT_TRUE(SameBits(optimizer_->Cost(s, config),
                           optimizer_->Cost(s, relevant)))
          << s.id << " " << config.ToString();
    }
  }
  EXPECT_GT(dropped, 0u);
}

TEST_F(SalesWhatIfCacheTest, MemoizedMVFactsMatchAFreshMatchAfterTheSearch) {
  // The search phases of a Tune on a cache built after estimation:
  // selection, then enumeration-style costings of random configurations.
  StatementCostCache cache(*optimizer_, workload_);
  advisor_->SelectCandidates(workload_, candidates_, sizes_, &cache, nullptr);
  Random rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    cache.WorkloadCost(RandomConfig(pool_, 8, &rng));
  }

  size_t checked = 0;
  for (const IndexDef& def : candidates_) {
    if (!IsMV(def)) continue;
    for (size_t i = 0; i < workload_.statements.size(); ++i) {
      const Statement& s = workload_.statements[i];
      if (s.type != StatementType::kSelect) continue;
      const WhatIfOptimizer::IndexFacts* facts = cache.FindFacts(i, def);
      ASSERT_NE(facts, nullptr) << def.ToString();
      const std::optional<MVMatcher::MVAccess> fresh =
          mvs_->Match(def, s.select);
      ASSERT_EQ(facts->mv.has_value(), fresh.has_value()) << s.id;
      if (!fresh.has_value()) continue;
      EXPECT_TRUE(SameBits(facts->mv->mv_tuples, fresh->mv_tuples)) << s.id;
      EXPECT_TRUE(SameBits(facts->mv->selected_frac, fresh->selected_frac));
      EXPECT_EQ(facts->mv->used_columns, fresh->used_columns);
      EXPECT_EQ(facts->mv->leading_key_seek, fresh->leading_key_seek);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(SalesWhatIfCacheTest, TunedCostsMatchAFreshUncachedCosting) {
  // A whole Tune on a fresh stack: its cached initial and final costs must
  // equal the uncached optimizer's once the run is over.
  SampleManager samples(4242);
  MVRegistry mvs(db_, &samples);
  WhatIfOptimizer optimizer(db_, CostModelParams{});
  optimizer.set_mv_matcher(&mvs);
  SizeEstimator estimator(db_, &mvs, ErrorModel(), options_.size_options);
  Advisor advisor(db_, optimizer, &estimator, &mvs, options_);
  const AdvisorResult r = advisor.Tune(
      workload_, 0.3 * static_cast<double>(db_.BaseDataBytes()));
  EXPECT_GT(r.stmt_costs_cached, 0u);
  EXPECT_TRUE(SameBits(r.initial_cost,
                       optimizer.WorkloadCost(workload_, Configuration())));
  EXPECT_TRUE(
      SameBits(r.final_cost, optimizer.WorkloadCost(workload_, r.config)));
}

}  // namespace
}  // namespace capd
