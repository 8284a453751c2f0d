// The what-if optimizer: Cost(statement, hypothetical configuration) — the
// API every physical design tool is built on (Section 3). Access paths:
// heap scan, (covering) index scan, index seek with optional RID lookups,
// partial-index use when the query's predicates subsume the index filter,
// and MV-index answering via a pluggable matcher (implemented in src/mv).
// The cost model is compression aware per Appendix A.
//
// A costing is split into three parts so that a search costing thousands
// of configurations derives every size-independent fact once:
//   1. StatementFacts (PrepareStatement): per touched table its predicates,
//      their selectivities, the used columns and the heap-scan cost; root
//      and dimension row counts; the grouping term; the INSERT base terms.
//   2. IndexFacts (PrepareIndex): everything one index contributes to one
//      statement that its IndexDef alone decides — usability, covering,
//      sargable prefix and its selectivity, beta/alpha, index-NL
//      eligibility, the MV matcher's answer, the INSERT maintenance terms,
//      and whether the index can change the statement's cost at all.
//   3. Assembly (CostPrepared): walks the configuration in order and does
//      the size-dependent arithmetic with each member's bytes and tuples.
// Cost() runs all three on the spot, so a caller that keeps parts 1 and 2
// (StatementCostCache) gets the same doubles from the same arithmetic.
// Facts hold no sizes: one signature may be costed at several sizes. Only
// CostWithPlan renders the access-path string; Cost renders no strings.
#ifndef CAPD_OPTIMIZER_WHAT_IF_H_
#define CAPD_OPTIMIZER_WHAT_IF_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "optimizer/configuration.h"
#include "optimizer/cost_model.h"
#include "query/query.h"

namespace capd {

// Lets the optimizer ask whether an index on a materialized view can answer
// a query (implemented by MVRegistry in src/mv to keep layering acyclic).
class MVMatcher {
 public:
  virtual ~MVMatcher() = default;

  struct MVAccess {
    double mv_tuples = 0.0;      // rows in the MV
    double selected_frac = 1.0;  // fraction the query reads from the MV
    size_t used_columns = 1;     // columns the query touches in the MV
    bool leading_key_seek = false;  // index key supports the residual filter
  };

  // Returns the access description if `idx` (an index on an MV) can answer
  // `query`; std::nullopt otherwise.
  virtual std::optional<MVAccess> Match(const IndexDef& idx,
                                        const SelectQuery& query) const = 0;

  // If `object` is a registered MV, the fact table it is defined over
  // (INSERTs into that table must maintain the MV's indexes).
  virtual std::optional<std::string> FactTableOf(
      const std::string& object) const {
    (void)object;
    return std::nullopt;
  }
};

// Breakdown of one costed plan (useful for tests and examples).
struct PlanCost {
  double io = 0.0;
  double cpu = 0.0;
  std::string access_path;  // human-readable description of the chosen plan

  double total() const { return io + cpu; }
};

class WhatIfOptimizer {
 public:
  // Part 1: what one statement decides, independent of any configuration.
  struct TableFacts {
    std::string table;
    std::vector<ColumnFilter> preds;  // the statement's predicates on it
    std::vector<double> pred_sel;     // FilterSelectivity of each pred
    std::vector<std::string> cols_used;
    double heap_io = 0.0;  // heap scan of the whole table
    double heap_cpu = 0.0;
  };
  struct JoinFacts {
    size_t table = 0;  // TableFacts entry of the dimension
    double dim_rows = 0.0;
    size_t dim_cols = 0;  // columns the statement uses on the dimension
  };
  struct StatementFacts {
    StatementType type = StatementType::kSelect;
    // SELECT: the root table first, then each further joined table once.
    // INSERT: the loaded table (table, heap terms unused).
    std::vector<TableFacts> tables;
    std::vector<JoinFacts> joins;  // in the statement's join order
    double root_rows = 0.0;  // qualifying root rows
    bool grouped = false;    // pays the grouping/aggregation CPU term
    double insert_rows = 0.0;
    double insert_io = 0.0;  // heap append of the loaded rows
    double insert_cpu = 0.0;
  };

  // Part 2: what one index contributes to one statement, from its IndexDef.
  struct IndexFacts {
    // False only if no configuration holding the index can cost the
    // statement differently from the same configuration without it.
    bool relevant = false;
    // SELECT on a base table: TableFacts entry the index sits on (-1 when
    // the statement never touches its object).
    int table = -1;
    bool clustered = false;
    bool usable = false;  // access path: filter subsumed, seekable or covering
    bool covering = false;
    bool bitmap = false;
    size_t sargable = 0;  // seekable key prefix length
    size_t used_in_index = 0;
    double prefix_frac = 1.0;  // entries reached through the prefix
    double stored_frac = 1.0;  // entries passing every resolvable predicate
    double beta = 0.0;
    std::vector<char> nl_join;  // by join: usable as an index-NL probe
    std::optional<MVMatcher::MVAccess> mv;  // SELECT answered from the MV
    // INSERT: what maintaining the index costs per loaded row.
    enum class Upkeep : uint8_t { kNone, kTable, kMV };
    Upkeep upkeep = Upkeep::kNone;
    double enter_frac = 1.0;  // share of loaded rows a partial index takes
    double alpha = 0.0;
  };

  WhatIfOptimizer(const Database& db, CostModelParams params)
      : db_(&db), params_(params) {}

  // `mv_matcher` may be null (MV indexes in the configuration are ignored).
  void set_mv_matcher(const MVMatcher* matcher) { mv_matcher_ = matcher; }
  const MVMatcher* mv_matcher() const { return mv_matcher_; }

  // Optimizer-estimated cost of the statement under the configuration
  // (unweighted; callers apply Statement::weight).
  double Cost(const Statement& stmt, const Configuration& config) const;
  PlanCost CostWithPlan(const Statement& stmt, const Configuration& config) const;

  // Sum of weight * Cost over the workload.
  double WorkloadCost(const Workload& workload,
                      const Configuration& config) const;

  StatementFacts PrepareStatement(const Statement& stmt) const;
  // MV facts snapshot the matcher's MV row estimate at this call.
  IndexFacts PrepareIndex(const Statement& stmt, const StatementFacts& facts,
                          const IndexDef& idx) const;
  // Cost(stmt, config) from prepared facts: `index_facts[k]` describes
  // config.indexes()[k] for the statement `facts` was prepared from.
  double CostPrepared(const StatementFacts& facts, const Configuration& config,
                      const std::vector<const IndexFacts*>& index_facts) const;

  // Estimated combined selectivity of `filters` on `table` (independence
  // across columns, histograms within a column). Exposed for candidate
  // generation and partial-index size estimation.
  double Selectivity(const std::string& table,
                     const std::vector<ColumnFilter>& filters) const;
  double FilterSelectivity(const std::string& table,
                           const ColumnFilter& filter) const;

  const CostModelParams& params() const { return params_; }

 private:
  struct Choice;

  // Parts 1 and 2 built for this one costing, then part 3.
  PlanCost CostOnTheSpot(const Statement& stmt, const Configuration& config,
                         std::string* path) const;
  // Part 3. When `path` is set, the chosen plan is rendered into it.
  PlanCost Assemble(const StatementFacts& facts, const Configuration& config,
                    const std::vector<const IndexFacts*>& index_facts,
                    std::string* path) const;
  // Cheapest access to TableFacts entry `table` under the configuration.
  Choice BestTableAccess(const StatementFacts& facts, size_t table,
                         const Configuration& config,
                         const std::vector<const IndexFacts*>& index_facts)
      const;
  // Cost of reading through one usable index of `size`, or nullopt.
  std::optional<Choice> IndexAccessCost(const IndexFacts& f,
                                        const PhysicalIndexEstimate& size)
      const;

  const Database* db_;
  CostModelParams params_;
  const MVMatcher* mv_matcher_ = nullptr;
};

// True if query predicates `preds` imply the partial-index filter `filter`
// (i.e. every row the query needs is inside the partial index).
bool PredicatesSubsumeFilter(const std::vector<ColumnFilter>& preds,
                             const ColumnFilter& filter);

}  // namespace capd

#endif  // CAPD_OPTIMIZER_WHAT_IF_H_
