// The index/deduction graph of Section 5.2 (Figure 3). Index nodes carry a
// state (NONE / DEDUCED / SAMPLED); deduction nodes connect a parent index
// to the child indexes its size can be inferred from. The greedy search
// assigns states narrow-to-wide; the exact exponential search (Appendix D)
// is available for small graphs as the quality baseline of Table 4.
#ifndef CAPD_ESTIMATOR_ESTIMATION_GRAPH_H_
#define CAPD_ESTIMATOR_ESTIMATION_GRAPH_H_

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "common/thread_pool.h"
#include "estimator/deduction.h"
#include "estimator/error_model.h"
#include "estimator/estimation_cache.h"
#include "estimator/sample_cf.h"

namespace capd {

enum class NodeState { kNone, kDeduced, kSampled };

// kColSet: ORD-IND same-column-set transfer. kColExt: column partition
// arithmetic. kSortOrder: ORD-DEP same-column-set, different-key-order
// sibling — once any sort order of a column set is sampled, every other
// order is a SampleCF run of its own definition on that same sample,
// charged 0 pages instead of a fresh sampling pass (SampleCF-accurate by
// construction). Execute runs it with the sampled leaves.
enum class DeductionType { kColSet, kColExt, kSortOrder };

struct DeductionNode {
  DeductionType type = DeductionType::kColExt;
  size_t parent = 0;
  std::vector<size_t> children;
};

struct IndexNode {
  IndexDef def;
  bool is_target = false;
  bool is_existing = false;  // size known exactly from the catalog
  bool deductions_generated = false;
  NodeState state = NodeState::kNone;
  int chosen_deduction = -1;  // index into deductions() when kDeduced
  double cost_pages = 0.0;    // sampling cost at the current f
  size_t num_stored_columns = 0;
};

class EstimationGraph {
 public:
  EstimationGraph(const Database& db, SampleSource* source,
                  const ErrorModel& model);

  // Adds targets plus their helper nodes (singletons, subsets) and all
  // deduction candidates.
  void AddTargets(const std::vector<IndexDef>& targets);

  // Section 5.2 greedy. Assigns states; returns total sampling cost in
  // pages. e/q per Section 5.1. Each node is priced by PredictCostPages,
  // which reads the sample's row count and draws only for partial indexes
  // and MVs, so trying several fractions draws no unused base-table sample.
  double Greedy(double f, double e, double q);

  // Appendix D exact search (exponential; small graphs only). Returns the
  // optimal total cost and applies the optimal assignment.
  double Optimal(double f, double e, double q);

  // Baseline: SampleCF on every target.
  double AllSampledCost(double f);
  // Assigns SAMPLED to every target (the "w/o deduction" plan); returns the
  // total cost.
  double SampleAllTargets(double f);

  // True if, under the current assignment, every target's composed error
  // satisfies P(within e) >= q — or is at least as good as plain sampling
  // (the paper's greedy "never violates the constraint unless even All
  // does").
  bool AssignmentSatisfies(double e, double q, double f) const;

  // Runs the assigned plan: SampleCF for SAMPLED and kSortOrder nodes (the
  // latter charged 0 pages), deduction formulas for the other DEDUCED ones.
  // Returns estimates keyed by IndexDef signature (targets only).
  //
  // With a pool, the SampleCF runs (the dominant cost: index builds on
  // samples) run concurrently, one task per structure; their samples are
  // drawn on the calling thread first. kColSet/kColExt formulas then
  // compose serially in dependency order. Output is bit-identical to
  // the serial path: every node's computation is self-contained and the
  // shared sample caches seed per key, not per draw order.
  //
  // With a cache, SAMPLED leaves are memoized at exactly (signature, f):
  // a hit skips the index build and a miss fills the cache. Because a
  // SampleCF run at a fixed fraction is a pure function of the definition
  // (samples are seeded per cache key), serving a hit is bit-identical to
  // recomputing — the plan, the chosen fraction, and every estimate match
  // an uncached run exactly. Deduced values are never cached: they depend
  // on the batch's plan, not on (signature, f) alone. `cache_hits` (may be
  // null) is incremented once per served leaf.
  std::map<std::string, SampleCfResult> Execute(double f,
                                                ThreadPool* pool = nullptr,
                                                EstimationCache* cache = nullptr,
                                                size_t* cache_hits = nullptr);

  // Composed error of node i under the current assignment.
  ErrorStats NodeError(size_t i, double f) const;

  // Enables kSortOrder deduction candidates. Must be called before
  // AddTargets (deductions are generated there). Off by default: the plan
  // for pre-existing target batches stays byte-identical unless a caller
  // opts in (SizeEstimationOptions::enable_sort_order_deduction).
  void set_enable_sort_order(bool enabled) { enable_sort_order_ = enabled; }

  const std::vector<IndexNode>& nodes() const { return nodes_; }
  const std::vector<DeductionNode>& deductions() const { return deductions_; }
  size_t NumSampled() const;
  size_t NumDeduced() const;  // among targets
  size_t NumSortOrderDeduced() const;  // among targets

  void ResetStates();

  // Cooperative cancellation for the expensive batch loops (the cost
  // probes of Greedy/Optimal/SampleAllTargets and the SampleCF leaves of
  // Execute): when the flag fires, remaining probes/leaves are skipped and
  // Execute returns only the estimates completed so far. The caller
  // (SizeEstimator::EstimateAll) is responsible for discarding the
  // now-meaningless plan. Null (the default) disables polling; a flag that
  // never fires leaves every result bit-identical.
  void set_cancel(const std::atomic<bool>* cancel) { cancel_ = cancel; }

 private:
  bool Cancelled() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }
  size_t AddNode(const IndexDef& def, bool is_target);
  std::optional<size_t> FindNode(const std::string& signature) const;
  void GenerateDeductionsFor(size_t node_id);
  // Composed error of deduction `d` for parent node `parent`, given the
  // children's error terms. kSortOrder short-circuits to the parent's own
  // SampleCf error (execution runs SampleCF on the donor's sample).
  ErrorStats DeductionError(const DeductionNode& d, size_t parent, double f,
                            std::vector<ErrorStats> child_terms) const;
  void PruneUnused();
  double TotalSampledCost() const;
  void RefreshCosts(double f);

  // Recursive helper for Optimal(): decides the next required-but-undecided
  // node in `order`; `required` marks nodes that must become known.
  void OptimalRecurse(const std::vector<size_t>& order,
                      std::vector<char>* required, double cost_so_far,
                      double e, double q, double f, double* best_cost,
                      std::vector<IndexNode>* best_assignment);

  // True if making `node` depend on `child` would create a deduction cycle
  // under the current (partial) assignment.
  bool DependsOn(size_t child, size_t node) const;

  const Database* db_;
  SampleSource* source_;
  ErrorModel model_;  // by value: callers often pass temporaries
  SampleCfEstimator sampler_;
  const std::atomic<bool>* cancel_ = nullptr;  // not owned; may be null
  bool enable_sort_order_ = false;

  std::vector<IndexNode> nodes_;
  std::vector<DeductionNode> deductions_;
  std::map<std::string, size_t> by_signature_;
  // deductions_ indexes grouped by parent node.
  std::map<size_t, std::vector<size_t>> deductions_by_parent_;
};

}  // namespace capd

#endif  // CAPD_ESTIMATOR_ESTIMATION_GRAPH_H_
