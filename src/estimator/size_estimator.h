// Top-level entry point of the index-size-estimation framework (Section 5):
// given a batch of compressed target indexes plus accuracy parameters
// (e, q), choose a sampling fraction f and a per-index method (SampleCF or
// deduction) minimizing total estimation cost, then execute the plan.
#ifndef CAPD_ESTIMATOR_SIZE_ESTIMATOR_H_
#define CAPD_ESTIMATOR_SIZE_ESTIMATOR_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "estimator/estimation_cache.h"
#include "estimator/estimation_graph.h"

namespace capd {

struct SizeEstimationOptions {
  double e = 0.5;  // tolerable error ratio
  double q = 0.9;  // confidence that error stays within e
  std::vector<double> fractions = {0.01, 0.025, 0.05, 0.10};
  // When false, every target is SampleCF'd (the "w/o deduction" baseline of
  // Figure 11; the shared SampleManager is still used).
  bool use_deduction = true;
  // Opt-in kSortOrder deduction: sibling sort orders of an ORD-DEP
  // structure (same column set, different key order) are recomputed on the
  // first sibling's sample instead of each being charged a sampling pass.
  // Off by default so pre-existing batch plans stay byte-identical.
  bool enable_sort_order_deduction = false;
  // Worker threads for the batch-execution phase (independent SampleCF
  // runs). 1 = serial, 0 = hardware concurrency. Any value produces
  // byte-identical results: per-key sample seeding makes the parallel
  // path bit-equal to the serial one.
  int num_threads = 1;
  // Optional cross-round cache: targets already priced at a candidate
  // fraction are reused instead of re-estimated (see estimation_cache.h).
  // Shared (and thread-safe), so one cache can serve several estimators.
  std::shared_ptr<EstimationCache> cache;
  // How `cache` is consulted.
  //   false (default, the PR-1 behavior): a target cached at ANY candidate
  //     fraction is served up front and skips graph planning entirely —
  //     the cheapest mode, but a warm cache can shift the fraction search
  //     over the remaining targets, so results are only guaranteed to
  //     match an uncached run when the cache was filled by identical
  //     batches.
  //   true (the AdvisorEngine contract): every target enters the graph,
  //     the fraction search runs exactly as if the cache were cold, and
  //     only the SampleCF executions are memoized at (signature, chosen
  //     f). Estimates, chosen_f, total_cost_pages, and the sampled /
  //     deduced counts are all bit-identical to an uncached run no matter
  //     what the cache already holds — the property that lets one warm
  //     cache serve concurrent tuning requests deterministically.
  bool cache_fraction_exact = false;
  // External pool for the batch-execution phase. When set it is used
  // instead of (and regardless of) num_threads, and is not owned: the
  // AdvisorEngine shares one estimation pool across requests this way.
  ThreadPool* pool = nullptr;
  // Cooperative cancellation, polled inside the batch itself (per fraction
  // probe and per SampleCF leaf) so a deadline binds within a long
  // estimation phase, not just at its boundary. On cancel EstimateAll
  // returns early with whatever estimates completed (possibly none); the
  // advisor discards such partial batches. When the flag never fires,
  // results are bit-identical to running without it — polling a relaxed
  // atomic is the only added work. The AdvisorEngine wires this to the
  // request's CancellationToken automatically.
  std::shared_ptr<const std::atomic<bool>> cancel;
};

class SizeEstimator {
 public:
  SizeEstimator(const Database& db, SampleSource* source, ErrorModel model,
                SizeEstimationOptions options)
      : db_(&db),
        source_(source),
        model_(std::move(model)),
        options_(std::move(options)) {}

  struct BatchResult {
    std::map<std::string, SampleCfResult> estimates;  // by IndexDef signature
    double chosen_f = 0.0;
    double total_cost_pages = 0.0;
    size_t num_sampled = 0;
    size_t num_deduced = 0;
    // Servings from the cross-round cache: whole targets in the fast mode,
    // SampleCF leaves (targets or helper nodes) in fraction-exact mode.
    size_t cache_hits = 0;
  };

  // Estimates sizes of all (compressed) targets. Uncompressed targets are
  // sized deterministically and never enter the graph.
  BatchResult EstimateAll(const std::vector<IndexDef>& targets);

  // Deterministic size of an uncompressed index.
  SampleCfResult UncompressedSize(const IndexDef& def);

  // Batch variant: sizes every (uncompressed) def concurrently on the
  // estimation pool, returning results in input order. Bit-identical to
  // calling UncompressedSize in a loop — shared samples are seeded per
  // cache key, never per draw order.
  std::vector<SampleCfResult> UncompressedSizeAll(
      const std::vector<IndexDef>& defs);

  const SizeEstimationOptions& options() const { return options_; }
  const ErrorModel& model() const { return model_; }

 private:
  // The pool for EstimateAll's execution phase: options_.pool when set,
  // otherwise created on first use and reused across batches; null when
  // options_.num_threads == 1.
  ThreadPool* Pool();

  const Database* db_;
  SampleSource* source_;
  ErrorModel model_;
  SizeEstimationOptions options_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace capd

#endif  // CAPD_ESTIMATOR_SIZE_ESTIMATOR_H_
