// The physical-design tool driver (Figure 1): candidate generation →
// per-query candidate selection (top-k or skyline) → merging → size
// estimation (Section 5 framework) → enumeration (greedy, optionally
// density-based, optionally with the Section 6.2 backtracking recovery).
#ifndef CAPD_ADVISOR_ADVISOR_H_
#define CAPD_ADVISOR_ADVISOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor_options.h"
#include "advisor/candidates.h"
#include "estimator/size_estimator.h"
#include "optimizer/cost_cache.h"
#include "optimizer/what_if.h"

namespace capd {

struct AdvisorResult {
  Configuration config;
  double initial_cost = 0.0;
  double final_cost = 0.0;
  double charged_bytes = 0.0;  // budget consumption of the final config

  // Estimation bookkeeping (the Figure 11 accounting).
  double estimation_cost_pages = 0.0;
  double chosen_f = 0.0;
  size_t num_candidates = 0;
  size_t num_sampled = 0;
  size_t num_deduced = 0;
  size_t what_if_calls = 0;  // logical per-statement cost requests

  // Cost-cache accounting over every statement costing the search issued
  // (candidate selection and enumeration): how many ran the optimizer vs.
  // were served from the per-statement cost cache. With the cache off,
  // every costing is computed.
  size_t stmt_costs_computed = 0;
  size_t stmt_costs_cached = 0;

  // Per-phase wall times of the run (candidate generation + size
  // estimation / per-query candidate selection / enumeration incl. the
  // initial+final workload costings). Informational only — never part of
  // the determinism contract or the rendered report.
  double estimation_ms = 0.0;
  double selection_ms = 0.0;
  double enumeration_ms = 0.0;

  // True when a cooperative cancel (AdvisorOptions::cancel) stopped the
  // run early; config then holds the best configuration found so far.
  bool cancelled = false;

  // Paper's headline metric: % improvement over the initial database.
  double improvement_percent() const {
    if (initial_cost <= 0) return 0.0;
    return 100.0 * (1.0 - final_cost / initial_cost);
  }
};

class Advisor {
 public:
  // `mvs` may be null when options.enable_mv is false. The optimizer's MV
  // matcher should already be wired to `mvs` by the caller when MVs are on.
  Advisor(const Database& db, const WhatIfOptimizer& optimizer,
          SizeEstimator* sizes, MVRegistry* mvs, AdvisorOptions options)
      : db_(&db),
        optimizer_(&optimizer),
        sizes_(sizes),
        mvs_(mvs),
        options_(std::move(options)) {}

  AdvisorResult Tune(const Workload& workload, double budget_bytes);

  // Budget charge of a configuration: clustered indexes replace the heap,
  // so they are charged (size - heap size), which can be negative — that is
  // how DTAc frees space at a 0% budget by compressing base data.
  double ChargedBytes(const Configuration& config) const;

  // The naive staged baseline of Example 1/2: tune without compression,
  // then compress every chosen index with `kind`.
  AdvisorResult TuneStagedBaseline(const Workload& workload,
                                   double budget_bytes, CompressionKind kind);

  // Estimate sizes for all candidates; returns them as configuration
  // entries keyed by signature. Uncompressed candidates are sized on the
  // estimation pool in one batch; compressed ones go through the Section 5
  // framework. Public for tests and tooling.
  std::map<std::string, PhysicalIndexEstimate> EstimateSizes(
      const std::vector<IndexDef>& candidates, AdvisorResult* result);

  // Per-query candidate selection: keep candidates that appear in the
  // query's top-k configurations or on its size/cost skyline. The
  // single-index costings go through `cost_cache` (may be null), where
  // they double as warm-up for the first enumeration step. Queries and
  // candidates are scanned in input order. Public for tests and tooling.
  std::vector<IndexDef> SelectCandidates(
      const Workload& workload, const std::vector<IndexDef>& candidates,
      const std::map<std::string, PhysicalIndexEstimate>& sizes,
      StatementCostCache* cost_cache, AdvisorResult* result) const;

 private:
  // Greedy enumeration with optional backtracking. `cost_cache` may be
  // null (uncached costing). Trials are costed in pool order and the first
  // strictly better one wins.
  Configuration Enumerate(
      const Workload& workload, const std::vector<IndexDef>& pool,
      const std::map<std::string, PhysicalIndexEstimate>& sizes,
      double budget_bytes, StatementCostCache* cost_cache,
      AdvisorResult* result) const;

  double WorkloadCost(const Workload& workload, const Configuration& config,
                      StatementCostCache* cost_cache,
                      AdvisorResult* result) const;

  bool CanAdd(const Configuration& config, const IndexDef& def) const;

  // Cooperative cancellation / progress plumbing (no-ops when the options
  // leave them unset).
  bool CancelRequested() const;
  void ReportProgress(const char* phase) const;

  const Database* db_;
  const WhatIfOptimizer* optimizer_;
  SizeEstimator* sizes_;
  MVRegistry* mvs_;
  AdvisorOptions options_;
};

}  // namespace capd

#endif  // CAPD_ADVISOR_ADVISOR_H_
