// Determinism tests for the advisor's enumeration: Advisor::Tune with the
// per-statement cost cache on must reproduce the uncached result to the
// bit, for the benefit greedy and the density greedy alike.
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

class EnumerationCostCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 4000;
    tpch::Build(&db_, opt);
    workload_ = tpch::MakeWorkload(db_, opt);
  }

  // Fresh stack per run (samples re-drawn; per-key seeding makes them
  // identical), mirroring bench_common's wiring.
  AdvisorResult Tune(AdvisorOptions options, double budget_frac) {
    SampleManager samples(4242);
    MVRegistry mvs(db_, &samples);
    WhatIfOptimizer optimizer(db_, CostModelParams{});
    optimizer.set_mv_matcher(&mvs);
    SizeEstimator estimator(db_, &mvs, ErrorModel(), options.size_options);
    Advisor advisor(db_, optimizer, &estimator, &mvs, options);
    return advisor.Tune(workload_,
                        budget_frac * static_cast<double>(db_.BaseDataBytes()));
  }

  static void ExpectBitIdentical(const AdvisorResult& a,
                                 const AdvisorResult& b) {
    // memcmp, not ==: the criterion is bit-identical doubles.
    EXPECT_EQ(std::memcmp(&a.initial_cost, &b.initial_cost, sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&a.final_cost, &b.final_cost, sizeof(double)), 0);
    EXPECT_EQ(
        std::memcmp(&a.charged_bytes, &b.charged_bytes, sizeof(double)), 0);
    ASSERT_EQ(a.config.size(), b.config.size());
    const auto& ia = a.config.indexes();
    const auto& ib = b.config.indexes();
    for (size_t i = 0; i < ia.size(); ++i) {
      EXPECT_EQ(ia[i].def.Signature(), ib[i].def.Signature()) << i;
      EXPECT_EQ(std::memcmp(&ia[i].bytes, &ib[i].bytes, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&ia[i].tuples, &ib[i].tuples, sizeof(double)), 0);
    }
  }

  Database db_;
  Workload workload_;
};

TEST_F(EnumerationCostCacheTest, CostCacheDoesNotChangeTheResult) {
  AdvisorOptions uncached = AdvisorOptions::DTAcBoth();
  uncached.cost_cache = false;
  AdvisorOptions cached = AdvisorOptions::DTAcBoth();
  cached.cost_cache = true;
  for (double budget : {0.05, 0.25}) {
    const AdvisorResult base = Tune(uncached, budget);
    const AdvisorResult r = Tune(cached, budget);
    ExpectBitIdentical(base, r);
    EXPECT_GT(r.stmt_costs_cached, 0u);
    // Same logical what-if traffic either way; the cache only changes how
    // many costings actually ran the optimizer.
    EXPECT_EQ(base.what_if_calls, r.what_if_calls);
    EXPECT_LT(r.stmt_costs_computed, base.stmt_costs_computed);
  }
}

TEST_F(EnumerationCostCacheTest, DensityGreedyCostCacheMatchesUncached) {
  AdvisorOptions uncached = AdvisorOptions::DTAcBoth();
  uncached.enumeration = EnumerationMode::kDensityGreedy;
  uncached.cost_cache = false;
  const AdvisorResult base = Tune(uncached, 0.05);
  // With the cost cache off every costing runs the optimizer.
  EXPECT_EQ(base.stmt_costs_cached, 0u);
  EXPECT_GT(base.stmt_costs_computed, 0u);

  AdvisorOptions cached = uncached;
  cached.cost_cache = true;
  const AdvisorResult r = Tune(cached, 0.05);
  ExpectBitIdentical(base, r);
  EXPECT_EQ(base.what_if_calls, r.what_if_calls);
  EXPECT_EQ(r.stmt_costs_computed + r.stmt_costs_cached,
            base.stmt_costs_computed);
}

}  // namespace
}  // namespace capd
