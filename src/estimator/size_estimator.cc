#include "estimator/size_estimator.h"

#include <limits>

#include "common/logging.h"

namespace capd {

SizeEstimator::BatchResult SizeEstimator::EstimateAll(
    const std::vector<IndexDef>& targets) {
  BatchResult result;
  if (targets.empty()) return result;

  // Cross-round cache, fast mode: pull out every target already priced at
  // one of the candidate fractions; only the remainder enters the graph.
  // In fraction-exact mode every target enters the graph instead, and the
  // cache is consulted per SampleCF leaf at the chosen fraction inside
  // Execute — slower on full hits, but provably bit-identical to an
  // uncached run (see SizeEstimationOptions::cache_fraction_exact).
  EstimationCache* exact_cache =
      options_.cache_fraction_exact ? options_.cache.get() : nullptr;
  std::vector<IndexDef> fresh;
  if (options_.cache != nullptr && exact_cache == nullptr) {
    fresh.reserve(targets.size());
    for (const IndexDef& t : targets) {
      const std::string sig = t.Signature();
      if (std::optional<SampleCfResult> cached =
              options_.cache->LookupBest(sig, options_.fractions)) {
        result.estimates[sig] = *cached;
        ++result.cache_hits;
      } else {
        fresh.push_back(t);
      }
    }
    if (fresh.empty()) return result;  // nothing to estimate, zero cost
  } else {
    fresh = targets;
  }

  EstimationGraph graph(*db_, source_, model_);
  // Must precede AddTargets: deduction candidates are generated there.
  graph.set_enable_sort_order(options_.enable_sort_order_deduction);
  graph.AddTargets(fresh);
  graph.set_cancel(options_.cancel.get());
  auto cancelled = [this] {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_relaxed);
  };

  // Runs the assigned plan at f, merges the fresh estimates into the
  // result (cached entries are already there), and fills the cache.
  auto execute_plan = [&](double f) {
    result.chosen_f = f;
    for (auto& [sig, r] :
         graph.Execute(f, options_.pool, exact_cache, &result.cache_hits)) {
      if (options_.cache != nullptr && exact_cache == nullptr) {
        options_.cache->Insert(sig, f, r);
      }
      result.estimates[sig] = std::move(r);
    }
    result.num_sampled = graph.NumSampled();
    result.num_deduced = graph.NumDeduced();
  };

  if (!options_.use_deduction) {
    // Baseline mode: SampleCF every target at the smallest fraction whose
    // SampleCF error meets the constraint (or the largest fraction if none
    // does — matching the paper's "even All misses it" tolerance).
    double best_f = options_.fractions.back();
    for (double f : options_.fractions) {
      if (cancelled()) return result;  // deadline binds between probes
      graph.SampleAllTargets(f);
      if (graph.AssignmentSatisfies(options_.e, options_.q, f)) {
        best_f = f;
        break;
      }
    }
    if (cancelled()) return result;
    result.total_cost_pages = graph.SampleAllTargets(best_f);
    execute_plan(best_f);
    result.num_deduced = 0;
    return result;
  }

  // Try each sampling fraction; keep the valid plan with least cost
  // (Section 5.2: "we try several different values of f and pick the f for
  // which the greedy algorithm produces a solution with the smallest total
  // cost"). If even SampleCF-everywhere cannot meet the constraint at any
  // f, fall back to the largest (most accurate) fraction — the paper's
  // "unless even All does" tolerance.
  double best_cost = std::numeric_limits<double>::infinity();
  double best_f = options_.fractions.back();
  for (double f : options_.fractions) {
    // A cancelled batch returns early with whatever is in `result` so far
    // (nothing yet): partial plans are worthless, and the advisor discards
    // the batch anyway. The graph also polls inside its own probe and leaf
    // loops, so a deadline binds mid-fraction, not just between fractions.
    if (cancelled()) return result;
    const double cost = graph.Greedy(f, options_.e, options_.q);
    if (!graph.AssignmentSatisfies(options_.e, options_.q, f)) continue;
    if (cost < best_cost) {
      best_cost = cost;
      best_f = f;
    }
  }
  if (cancelled()) return result;
  // Re-run the winning plan (the graph holds the last run's states).
  result.total_cost_pages =
      graph.Greedy(best_f, options_.e, options_.q);
  execute_plan(best_f);
  return result;
}

SampleCfResult SizeEstimator::UncompressedSize(const IndexDef& def) {
  CAPD_CHECK(def.compression == CompressionKind::kNone);
  SampleCfEstimator sampler(*db_, source_);
  const double f = options_.fractions.front();
  SampleCfResult r;
  r.est_tuples = sampler.EstimateFullTuples(def, f);
  r.est_uncompressed_bytes = sampler.UncompressedFullBytes(def, r.est_tuples);
  r.est_bytes = r.est_uncompressed_bytes;
  r.cf = 1.0;
  r.cost_pages = 0.0;
  return r;
}

std::vector<SampleCfResult> SizeEstimator::UncompressedSizeAll(
    const std::vector<IndexDef>& defs) {
  auto cancelled = [this] {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_relaxed);
  };
  // Partial indexes count filter hits on the sample: draw it on the
  // calling thread, as EstimationGraph::Execute does, so its memory
  // does not land in whichever worker got there first.
  for (const IndexDef& def : defs) {
    if (def.filter.has_value() && !cancelled()) {
      source_->Sample(def.object, options_.fractions.front());
    }
  }
  return ParallelMap<SampleCfResult>(options_.pool, defs.size(), [&](size_t i) {
    // Skipped entries come back zeroed; a cancelled advisor run discards
    // the whole batch, so they are never read.
    if (cancelled()) return SampleCfResult{};
    return UncompressedSize(defs[i]);
  });
}

}  // namespace capd
