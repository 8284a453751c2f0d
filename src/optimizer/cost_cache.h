// Per-statement what-if cost cache: the advisor's greedy search costs the
// whole workload once per trial configuration, but adding one index only
// changes the cost of statements that can actually see it — every other
// statement's cost is unchanged from the previous trial. Memoizing
// Cost(statement, config) by (statement, the ordered subsequence of config
// indexes relevant to that statement, each named by signature and size)
// turns each greedy step from
// O(pool × workload) full costings into O(pool × affected statements),
// while staying bit-identical to the uncached optimizer: a miss runs the
// optimizer's own assembly over facts prepared once, and a hit returns a
// double that assembly produced.
//
// The cache keeps the optimizer's prepared facts (what_if.h): one
// StatementFacts per statement, and one IndexFacts per (statement, index
// signature), built the first time the signature is interned. Relevance is
// read from those facts (IndexFacts::relevant), so the optimizer's
// usability gates are written once. An index is relevant to a SELECT iff
// it sits on a touched table and is clustered (replaces the heap), usable
// as an access path, or usable for an index-nested-loops join; it is
// relevant to an INSERT iff it must be maintained (same table, or an MV
// over it). An MV index is kept relevant to every SELECT whenever a
// matcher is set, matched or not: tightening that would change which
// costings count as cached.
#ifndef CAPD_OPTIMIZER_COST_CACHE_H_
#define CAPD_OPTIMIZER_COST_CACHE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "optimizer/what_if.h"
#include "query/query.h"

namespace capd {

// Built per Advisor::Tune and used only by its (serial) search, so it is
// not thread-safe. misses() is the number of distinct keys costed.
class StatementCostCache {
 public:
  // Both referents must outlive the cache.
  StatementCostCache(const WhatIfOptimizer& optimizer,
                     const Workload& workload);

  // Id of one index at one size, for the costing calls below. The
  // first sight of a signature renders it and prepares its facts for every
  // statement; later calls with that signature only look it up.
  uint32_t Intern(const PhysicalIndexEstimate& idx);

  // Unweighted Cost(statement, config), served from the cache when the
  // relevant subsequence has been costed before. `ids[k]` must be
  // Intern(config.indexes()[k]).
  double Cost(size_t stmt_index, const Configuration& config,
              const std::vector<uint32_t>& ids);

  // Sum of weight * Cost over the workload — bit-identical to
  // WhatIfOptimizer::WorkloadCost (same per-statement terms, summed in the
  // same statement order). Without ids, the members are interned first.
  double WorkloadCost(const Configuration& config);
  double WorkloadCost(const Configuration& config,
                      const std::vector<uint32_t>& ids);

  // Statement costings served from the cache / computed by the optimizer.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  // True if `idx` can influence the cost of statement `stmt_index`
  // (exposed for tests; interns the signature).
  bool Relevant(size_t stmt_index, const IndexDef& idx);
  // The facts kept for (statement, signature), or null when the signature
  // was never interned (exposed for tests).
  const WhatIfOptimizer::IndexFacts* FindFacts(size_t stmt_index,
                                               const IndexDef& idx) const;

 private:
  // One interned signature: its facts by statement, and the ids it was
  // interned under (one per distinct size).
  struct Signature {
    std::vector<WhatIfOptimizer::IndexFacts> facts;
    std::vector<uint32_t> ids;
  };
  // What an id stands for: a signature at one size.
  struct Sized {
    const Signature* signature;
    double bytes;
    double tuples;
  };

  Signature& SignatureOf(const IndexDef& idx);

  const WhatIfOptimizer* optimizer_;
  const Workload* workload_;
  std::vector<WhatIfOptimizer::StatementFacts> statement_facts_;

  // Node-based, so Signature pointers stay valid across inserts.
  std::unordered_map<std::string, Signature> signatures_;
  std::vector<Sized> ids_;

  // One map per workload statement: byte key (the relevant ids in
  // configuration order) -> cost.
  std::vector<std::unordered_map<std::string, double>> costs_;
  // Scratch reused by every costing.
  std::string key_;
  std::vector<const WhatIfOptimizer::IndexFacts*> facts_buf_;

  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace capd

#endif  // CAPD_OPTIMIZER_COST_CACHE_H_
