// Per-statement what-if cost cache: the advisor's greedy search costs the
// whole workload once per trial configuration, but adding one index only
// changes the cost of statements that can actually see it — every other
// statement's cost is unchanged from the previous trial. Memoizing
// Cost(statement, config) by (statement, the ordered subsequence of config
// indexes relevant to that statement) turns each greedy step from
// O(pool × workload) full costings into O(pool × affected statements),
// while staying bit-identical to the uncached optimizer: a hit returns a
// double produced by the exact computation a miss would run.
//
// Relevance mirrors the optimizer's own gates conservatively (an index
// marked relevant may still contribute nothing; an index marked irrelevant
// provably cannot change the plan): an index is relevant to a SELECT iff
// it sits on a touched table and is clustered (replaces the heap), usable
// as an access path (seekable prefix or covering, partial filter
// subsumed), or usable for an index-nested-loops join; it is relevant to
// an INSERT iff it must be maintained (same table, or an MV over it).
#ifndef CAPD_OPTIMIZER_COST_CACHE_H_
#define CAPD_OPTIMIZER_COST_CACHE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/database.h"
#include "optimizer/what_if.h"
#include "query/query.h"

namespace capd {

// Built per Advisor::Tune and used only by its (serial) search, so it is
// not thread-safe. misses() is the number of distinct keys costed.
class StatementCostCache {
 public:
  // All three referents must outlive the cache.
  StatementCostCache(const Database& db, const WhatIfOptimizer& optimizer,
                     const Workload& workload);

  // Unweighted Cost(statement, config), served from the cache when the
  // relevant subsequence has been costed before.
  double Cost(size_t stmt_index, const Configuration& config);

  // Sum of weight * Cost over the workload — bit-identical to
  // WhatIfOptimizer::WorkloadCost (same per-statement terms, summed in the
  // same statement order).
  double WorkloadCost(const Configuration& config);

  // Statement costings served from the cache / computed by the optimizer.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  // True if `idx` can influence the cost of statement `stmt_index`
  // (exposed for tests; memoized by index signature).
  bool Relevant(size_t stmt_index, const IndexDef& idx);

 private:
  // Per touched table: the statement's predicates, used columns and join
  // keys there — everything the relevance gates need, precomputed once.
  struct TableScope {
    std::string table;
    std::vector<ColumnFilter> preds;
    std::vector<std::string> cols_used;
    std::vector<std::string> join_keys;  // dim keys when joined as dimension
  };
  struct StatementScope {
    std::vector<TableScope> tables;
    bool is_insert = false;
  };
  // Interned per distinct index signature: a compact id for key building
  // plus the per-statement relevance bitmap. Cache keys are byte strings of
  // ids, so building one costs no signature re-rendering.
  struct IndexInfo {
    uint32_t id = 0;
    std::vector<char> relevant;  // indexed by statement
  };

  bool ComputeRelevant(size_t stmt_index, const IndexDef& idx) const;
  const IndexInfo& InfoFor(const IndexDef& idx);
  double CostWithInfos(size_t stmt_index, const Configuration& config,
                       const std::vector<const IndexInfo*>& infos);

  const Database* db_;
  const WhatIfOptimizer* optimizer_;
  const Workload* workload_;
  std::vector<StatementScope> scopes_;

  // One map per workload statement: byte key (the relevant index ids in
  // configuration order) -> cost.
  std::vector<std::unordered_map<std::string, double>> costs_;

  std::unordered_map<std::string, IndexInfo> index_info_;  // by signature
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace capd

#endif  // CAPD_OPTIMIZER_COST_CACHE_H_
