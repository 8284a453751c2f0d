#include "advisor/advisor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <set>
#include <unordered_map>

#include "common/logging.h"

namespace capd {

double Advisor::ChargedBytes(const Configuration& config) const {
  double charged = 0.0;
  for (const PhysicalIndexEstimate& idx : config.indexes()) {
    charged += idx.bytes;
    if (idx.def.clustered && db_->HasTable(idx.def.object)) {
      charged -= static_cast<double>(db_->table(idx.def.object).HeapBytes());
    }
  }
  return charged;
}

bool Advisor::CancelRequested() const {
  return options_.cancel != nullptr &&
         options_.cancel->load(std::memory_order_relaxed);
}

void Advisor::ReportProgress(const char* phase) const {
  // Fault hooks run first so an injected fault (thrown TransientTuningError
  // or a flipped cancel flag) lands before observers hear about the phase.
  if (options_.fault_hook) options_.fault_hook(phase);
  if (options_.progress) options_.progress(phase);
}

double Advisor::WorkloadCost(const Workload& workload,
                             const Configuration& config,
                             StatementCostCache* cost_cache,
                             AdvisorResult* result) const {
  if (result != nullptr) {
    result->what_if_calls += workload.statements.size();
    // Cached costings are tallied from the cache's own counters at the end
    // of Tune; only uncached costing is known to run the optimizer here.
    if (cost_cache == nullptr) {
      result->stmt_costs_computed += workload.statements.size();
    }
  }
  if (cost_cache != nullptr) return cost_cache->WorkloadCost(config);
  return optimizer_->WorkloadCost(workload, config);
}

std::map<std::string, PhysicalIndexEstimate> Advisor::EstimateSizes(
    const std::vector<IndexDef>& candidates, AdvisorResult* result) {
  std::map<std::string, PhysicalIndexEstimate> sizes;
  std::vector<IndexDef> uncompressed;
  std::vector<IndexDef> compressed;
  for (const IndexDef& def : candidates) {
    (def.compression == CompressionKind::kNone ? uncompressed : compressed)
        .push_back(def);
  }
  const std::vector<SampleCfResult> plain =
      sizes_->UncompressedSizeAll(uncompressed);
  for (size_t i = 0; i < uncompressed.size(); ++i) {
    PhysicalIndexEstimate est;
    est.def = uncompressed[i];
    est.bytes = plain[i].est_bytes;
    est.tuples = plain[i].est_tuples;
    sizes[uncompressed[i].Signature()] = est;
  }
  const SizeEstimator::BatchResult batch = sizes_->EstimateAll(compressed);
  for (const IndexDef& def : compressed) {
    const auto it = batch.estimates.find(def.Signature());
    if (it == batch.estimates.end()) {
      // A batch may only come back short when a cooperative cancel stopped
      // it mid-estimation; every caller discards the partial map once the
      // flag is up, so skipping the hole is safe. Anything else is a bug.
      CAPD_CHECK(CancelRequested()) << def.ToString();
      continue;
    }
    PhysicalIndexEstimate est;
    est.def = def;
    est.bytes = it->second.est_bytes;
    est.tuples = it->second.est_tuples;
    sizes[def.Signature()] = est;
  }
  if (result != nullptr) {
    result->estimation_cost_pages += batch.total_cost_pages;
    // A fully cache-served batch never picks a fraction (chosen_f == 0);
    // keep the last real one rather than clobbering the report.
    if (batch.chosen_f > 0.0) result->chosen_f = batch.chosen_f;
    result->num_sampled += batch.num_sampled;
    result->num_deduced += batch.num_deduced;
  }
  return sizes;
}

std::vector<IndexDef> Advisor::SelectCandidates(
    const Workload& workload, const std::vector<IndexDef>& candidates,
    const std::map<std::string, PhysicalIndexEstimate>& sizes,
    StatementCostCache* cost_cache, AdvisorResult* result) const {
  std::vector<IndexDef> selected;
  std::set<std::string> kept;

  // Per candidate, resolved once: its signature, its one-index
  // configuration and that configuration's cost-cache ids.
  std::vector<std::string> sigs;
  std::vector<Configuration> singles(candidates.size());
  std::vector<std::vector<uint32_t>> single_ids(candidates.size());
  sigs.reserve(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    sigs.push_back(candidates[c].Signature());
    const auto it = sizes.find(sigs[c]);
    CAPD_CHECK(it != sizes.end());
    singles[c].Add(it->second);
    if (cost_cache != nullptr) {
      single_ids[c].push_back(cost_cache->Intern(it->second));
    }
  }
  const Configuration empty;
  const std::vector<uint32_t> no_ids;

  auto stmt_cost = [&](size_t stmt_index, const Configuration& config,
                       const std::vector<uint32_t>& ids) {
    // Skipped costings yield 0.0, which makes every candidate look
    // irrelevant (cost >= base_cost) — harmless, because Tune discards the
    // selection as soon as it sees the cancel flag. The cost cache is never
    // fed skipped values.
    if (CancelRequested()) return 0.0;
    return cost_cache != nullptr
               ? cost_cache->Cost(stmt_index, config, ids)
               : optimizer_->Cost(workload.statements[stmt_index], config);
  };

  for (size_t si = 0; si < workload.statements.size(); ++si) {
    if (workload.statements[si].type != StatementType::kSelect) continue;
    // The base (empty-configuration) cost plus one single-index cost per
    // candidate.
    if (result != nullptr) {
      result->what_if_calls += candidates.size();
      if (cost_cache == nullptr) {
        result->stmt_costs_computed += 1 + candidates.size();
      }
    }
    struct Entry {
      size_t candidate;
      double cost;
      double bytes;
    };
    std::vector<Entry> entries;
    const double base_cost = stmt_cost(si, empty, no_ids);
    for (size_t c = 0; c < candidates.size(); ++c) {
      const double cost = stmt_cost(si, singles[c], single_ids[c]);
      if (cost >= base_cost) continue;  // irrelevant to this query
      // Size dimension of the skyline is the *budget charge*: a clustered
      // index replaces the heap, so its effective footprint can be tiny (or
      // negative when compressed) even though the structure is large.
      entries.push_back(Entry{c, cost, ChargedBytes(singles[c])});
    }

    if (options_.selection == CandidateSelectionMode::kTopK) {
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) { return a.cost < b.cost; });
      const size_t k = std::min<size_t>(options_.top_k, entries.size());
      for (size_t i = 0; i < k; ++i) {
        if (kept.insert(sigs[entries[i].candidate]).second) {
          selected.push_back(candidates[entries[i].candidate]);
        }
      }
    } else {
      // Skyline of (bytes, cost): keep entries no other entry dominates
      // (smaller AND faster). O(n^2), negligible next to what-if calls.
      for (const Entry& e : entries) {
        bool dominated = false;
        for (const Entry& o : entries) {
          if (o.candidate == e.candidate) continue;
          const bool better_or_equal = o.cost <= e.cost && o.bytes <= e.bytes;
          const bool strictly_better = o.cost < e.cost || o.bytes < e.bytes;
          if (better_or_equal && strictly_better) {
            dominated = true;
            break;
          }
        }
        if (!dominated && kept.insert(sigs[e.candidate]).second) {
          selected.push_back(candidates[e.candidate]);
        }
      }
    }
  }
  return selected;
}

Configuration Advisor::Enumerate(
    const Workload& workload, const std::vector<IndexDef>& pool,
    const std::map<std::string, PhysicalIndexEstimate>& sizes,
    double budget_bytes, StatementCostCache* cost_cache,
    AdvisorResult* result) const {
  // The pool's signatures are rendered once. A configuration is tracked by
  // the pool positions of its members, in configuration order, so the
  // search compares and looks up ids, never strings.
  const size_t n = pool.size();
  std::vector<const PhysicalIndexEstimate*> est(n);
  std::vector<size_t> sig_id(n), structure_id(n);
  std::vector<uint32_t> cache_id(n);
  {
    std::unordered_map<std::string, size_t> sig_ids, structure_ids;
    for (size_t p = 0; p < n; ++p) {
      std::string sig = pool[p].Signature();
      const auto it = sizes.find(sig);
      CAPD_CHECK(it != sizes.end()) << pool[p].ToString();
      est[p] = &it->second;
      sig_id[p] =
          sig_ids.emplace(std::move(sig), sig_ids.size()).first->second;
      structure_id[p] =
          structure_ids
              .emplace(pool[p].StructureSignature(), structure_ids.size())
              .first->second;
      if (cost_cache != nullptr) cache_id[p] = cost_cache->Intern(*est[p]);
    }
  }
  auto materialize = [&est](const std::vector<size_t>& at) {
    Configuration config;
    for (size_t p : at) config.Add(*est[p]);
    return config;
  };
  // Member `m` swapped for pool entry `p`: the others keep their order and
  // the replacement goes last.
  auto swapped = [](std::vector<size_t> at, size_t m, size_t p) {
    at.erase(at.begin() + static_cast<std::ptrdiff_t>(m));
    at.push_back(p);
    return at;
  };
  auto can_add = [&](const std::vector<size_t>& at, size_t p) {
    for (size_t m : at) {
      // The same structure with a different compression is a competing
      // index: physically legal but never useful together with its sibling
      // for our optimizer, and it bloats enumeration, so forbid duplicates
      // (and, with them, the index itself).
      if (structure_id[m] == structure_id[p]) return false;
      // At most one clustered index per object.
      if (pool[p].clustered && pool[m].clustered &&
          pool[m].object == pool[p].object) {
        return false;
      }
    }
    return true;
  };

  Configuration config;
  std::vector<size_t> members;
  double current_cost = WorkloadCost(workload, config, cost_cache, result);

  // Trial costing. Every trial is charged, but once a cancel fires its
  // costing is skipped and reads +inf ("no benefit"), so a skipped trial or
  // swap can never be picked; the next step then observes the flag and
  // stops with the coherent best-so-far configuration.
  std::vector<uint32_t> trial_ids;
  auto trial_cost = [&](const Configuration& trial,
                        const std::vector<size_t>& at) {
    if (result != nullptr) {
      result->what_if_calls += workload.statements.size();
      if (cost_cache == nullptr) {
        result->stmt_costs_computed += workload.statements.size();
      }
    }
    if (CancelRequested()) return std::numeric_limits<double>::infinity();
    if (cost_cache == nullptr) {
      return optimizer_->WorkloadCost(workload, trial);
    }
    trial_ids.clear();
    for (size_t p : at) trial_ids.push_back(cache_id[p]);
    return cost_cache->WorkloadCost(trial, trial_ids);
  };

  while (true) {
    // Cooperative cancel: between greedy steps the configuration is always
    // coherent, so stopping here leaves the best design found so far.
    if (CancelRequested()) {
      if (result != nullptr) result->cancelled = true;
      break;
    }
    // Evaluate every addable candidate in pool order; strict comparisons
    // keep the first of equally good candidates.
    int best_fit = -1;       // best candidate that fits the budget
    double best_fit_score = 0.0;
    double best_fit_cost = current_cost;
    int best_any = -1;       // best candidate ignoring the budget
    double best_any_benefit = 0.0;

    for (size_t i = 0; i < n; ++i) {
      if (!can_add(members, i)) continue;
      Configuration trial = config;
      trial.Add(*est[i]);
      members.push_back(i);
      const double cost = trial_cost(trial, members);
      members.pop_back();
      const double benefit = current_cost - cost;
      if (benefit <= 1e-9) continue;
      const bool fits = ChargedBytes(trial) <= budget_bytes;
      const double score =
          options_.enumeration == EnumerationMode::kDensityGreedy
              ? benefit / std::max(1.0, est[i]->bytes)
              : benefit;
      if (fits && score > best_fit_score) {
        best_fit_score = score;
        best_fit = static_cast<int>(i);
        best_fit_cost = cost;
      }
      if (benefit > best_any_benefit) {
        best_any_benefit = benefit;
        best_any = static_cast<int>(i);
      }
    }

    if (options_.trace) {
      std::fprintf(stderr, "[enum] step: best_fit=%s best_any=%s\n",
                   best_fit >= 0 ? pool[best_fit].ToString().c_str() : "-",
                   best_any >= 0 ? pool[best_any].ToString().c_str() : "-");
    }

    // Backtracking (Section 6.2): if the overall-best choice is oversized,
    // try to recover it by swapping one or more members for compressed
    // variants. Swaps are applied greedily until the configuration fits:
    // prefer a swap that fits immediately with the best workload cost,
    // otherwise the one freeing the most space (to converge).
    if (options_.backtracking && best_any >= 0 && best_any != best_fit) {
      std::vector<size_t> work_at = members;
      work_at.push_back(static_cast<size_t>(best_any));
      Configuration work = materialize(work_at);
      if (ChargedBytes(work) > budget_bytes) {
        Configuration best_recovered;
        std::vector<size_t> best_recovered_at;
        double best_recovered_cost = std::numeric_limits<double>::infinity();
        for (int round = 0; round < 8; ++round) {
          // In-budget swaps are what-if costed in (member, replacement)
          // scan order and the first cheapest wins; otherwise remember the
          // swap freeing the most space.
          Configuration fit_swap;
          std::vector<size_t> fit_swap_at;
          double fit_swap_cost = std::numeric_limits<double>::infinity();
          int reduce_member = -1, reduce_repl = -1;
          double reduce_amount = 0.0;
          for (size_t m = 0; m < work_at.size(); ++m) {
            const size_t at = work_at[m];
            const double member_bytes = work.indexes()[m].bytes;
            for (size_t p = 0; p < n; ++p) {
              if (structure_id[p] != structure_id[at]) continue;
              if (sig_id[p] == sig_id[at]) continue;
              const double repl_bytes = est[p]->bytes;
              if (repl_bytes >= member_bytes) continue;
              std::vector<size_t> trial_at = swapped(work_at, m, p);
              Configuration trial = materialize(trial_at);
              if (ChargedBytes(trial) <= budget_bytes) {
                const double cost = trial_cost(trial, trial_at);
                if (cost < fit_swap_cost) {
                  fit_swap_cost = cost;
                  fit_swap = std::move(trial);
                  fit_swap_at = std::move(trial_at);
                }
              } else if (member_bytes - repl_bytes > reduce_amount) {
                reduce_amount = member_bytes - repl_bytes;
                reduce_member = static_cast<int>(m);
                reduce_repl = static_cast<int>(p);
              }
            }
          }
          if (fit_swap.size() > 0) {
            if (fit_swap_cost < best_recovered_cost) {
              best_recovered_cost = fit_swap_cost;
              best_recovered = std::move(fit_swap);
              best_recovered_at = std::move(fit_swap_at);
            }
            break;
          }
          if (reduce_member < 0) break;  // no further swaps possible
          work_at = swapped(work_at, static_cast<size_t>(reduce_member),
                            static_cast<size_t>(reduce_repl));
          work = materialize(work_at);
        }
        if (options_.trace) {
          std::fprintf(stderr, "[enum] backtrack: recovered=%s cost=%.1f vs fit=%.1f cur=%.1f\n",
                       best_recovered.size() > 0 ? best_recovered.ToString().c_str() : "-",
                       best_recovered_cost, best_fit_cost, current_cost);
        }
        if (best_recovered.size() > 0 &&
            best_recovered_cost < std::min(best_fit_cost, current_cost)) {
          config = std::move(best_recovered);
          members = std::move(best_recovered_at);
          current_cost = best_recovered_cost;
          continue;
        }
      }
    }

    if (best_fit < 0) break;
    config.Add(*est[best_fit]);
    members.push_back(static_cast<size_t>(best_fit));
    current_cost = best_fit_cost;
  }
  return config;
}

AdvisorResult Advisor::Tune(const Workload& workload, double budget_bytes) {
  AdvisorResult result;
  CandidateGenerator generator(*db_, *optimizer_, mvs_, options_);
  using Clock = std::chrono::steady_clock;
  auto millis_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };

  // Cancellation can land between any two phases; the partial result (best
  // configuration so far, flagged `cancelled`) is always coherent.
  auto cancelled = [&]() {
    if (!CancelRequested()) return false;
    result.cancelled = true;
    return true;
  };

  // 1. Syntactically relevant candidates + compressed variants.
  auto t0 = Clock::now();
  std::vector<IndexDef> candidates = generator.GenerateForWorkload(workload);
  ReportProgress("candidates");
  if (cancelled()) return result;

  // 2. Size estimation for every candidate (Section 5 framework).
  std::map<std::string, PhysicalIndexEstimate> sizes =
      EstimateSizes(candidates, &result);
  result.estimation_ms += millis_since(t0);
  ReportProgress("estimation");
  if (cancelled()) return result;

  // The per-statement what-if cost cache lives for the whole run: nothing
  // within one Tune invalidates a statement cost (database and sizes are
  // fixed), and the single-index costings of candidate selection double as
  // warm-up for the first enumeration step.
  std::unique_ptr<StatementCostCache> cost_cache;
  if (options_.cost_cache) {
    cost_cache = std::make_unique<StatementCostCache>(*optimizer_, workload);
  }

  // 3. Per-query candidate selection (top-k or skyline).
  t0 = Clock::now();
  std::vector<IndexDef> selected =
      SelectCandidates(workload, candidates, sizes, cost_cache.get(), &result);
  result.selection_ms += millis_since(t0);
  ReportProgress("selection");
  if (cancelled()) {
    if (cost_cache != nullptr) {
      result.stmt_costs_computed += cost_cache->misses();
      result.stmt_costs_cached += cost_cache->hits();
    }
    return result;
  }

  // 4. Index merging over the selected pool. A merged index that step 2
  // already sized keeps that size: one size per signature per Tune.
  const std::vector<IndexDef> merged = generator.MergeCandidates(selected);
  std::vector<IndexDef> unsized;
  for (const IndexDef& def : merged) {
    if (sizes.count(def.Signature()) == 0) unsized.push_back(def);
  }
  if (!unsized.empty()) {
    t0 = Clock::now();
    const std::map<std::string, PhysicalIndexEstimate> merged_sizes =
        EstimateSizes(unsized, &result);
    result.estimation_ms += millis_since(t0);
    sizes.insert(merged_sizes.begin(), merged_sizes.end());
  }
  // A cancel inside the merged batch leaves some merged index unsized;
  // merged candidates are only admitted when every one of them was sized.
  if (!CancelRequested()) {
    selected.insert(selected.end(), merged.begin(), merged.end());
  }
  result.num_candidates = selected.size();
  if (options_.trace) {
    for (const IndexDef& def : selected) {
      std::fprintf(stderr, "[pool] %s ~%.0fKB\n", def.ToString().c_str(),
                   sizes.at(def.Signature()).bytes / 1024.0);
    }
  }
  ReportProgress("merging");
  if (cancelled()) {
    if (cost_cache != nullptr) {
      result.stmt_costs_computed += cost_cache->misses();
      result.stmt_costs_cached += cost_cache->hits();
    }
    return result;
  }

  // 5. Enumeration. A cancel inside Enumerate still falls through here, so
  // a cancelled result carries real initial/final costs for its partial
  // configuration.
  t0 = Clock::now();
  const Configuration empty;
  result.initial_cost = WorkloadCost(workload, empty, cost_cache.get(), &result);
  result.config = Enumerate(workload, selected, sizes, budget_bytes,
                            cost_cache.get(), &result);
  result.final_cost =
      WorkloadCost(workload, result.config, cost_cache.get(), &result);
  result.charged_bytes = ChargedBytes(result.config);
  result.enumeration_ms += millis_since(t0);
  ReportProgress("enumeration");
  if (cost_cache != nullptr) {
    result.stmt_costs_computed += cost_cache->misses();
    result.stmt_costs_cached += cost_cache->hits();
  }
  return result;
}

AdvisorResult Advisor::TuneStagedBaseline(const Workload& workload,
                                          double budget_bytes,
                                          CompressionKind kind) {
  // Stage 1: classic tuning without compression. The stage-1 advisor
  // shares this advisor's SizeEstimator, so its samples (and, when
  // options_.size_options.cache is set, its cross-round EstimationCache)
  // are reused by the stage-2 re-estimation instead of re-drawn.
  AdvisorOptions staged_options = options_;
  staged_options.enable_compression = false;
  Advisor stage1(*db_, *optimizer_, sizes_, mvs_, staged_options);
  AdvisorResult result = stage1.Tune(workload, budget_bytes);
  if (result.cancelled || CancelRequested()) {
    result.cancelled = true;
    return result;  // stage-1 design, uncompressed
  }

  // Stage 2: compress every chosen index, re-estimating sizes (one batch
  // across the estimation pool) and re-costing the workload uncached.
  using Clock = std::chrono::steady_clock;
  auto t0 = Clock::now();
  std::vector<IndexDef> compressed;
  for (const PhysicalIndexEstimate& idx : result.config.indexes()) {
    compressed.push_back(idx.def.WithCompression(kind));
  }
  const std::map<std::string, PhysicalIndexEstimate> sizes =
      EstimateSizes(compressed, &result);
  result.estimation_ms +=
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  // A cancel anywhere in stage 2 (mid-estimation or mid-re-cost) keeps the
  // coherent stage-1 design: `sizes` may be short, so result.config and
  // final_cost are only overwritten once stage 2 finished clean.
  if (CancelRequested()) {
    result.cancelled = true;
    return result;  // stage-1 design, uncompressed
  }
  Configuration config;
  for (const IndexDef& def : compressed) {
    config.Add(sizes.at(def.Signature()));
  }
  t0 = Clock::now();
  const double final_cost = WorkloadCost(workload, config, nullptr, &result);
  result.enumeration_ms +=
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (CancelRequested()) {
    result.cancelled = true;
    return result;  // stage-1 design, uncompressed
  }
  result.config = std::move(config);
  result.final_cost = final_cost;
  result.charged_bytes = ChargedBytes(result.config);
  ReportProgress("staged-recompress");
  return result;
}

}  // namespace capd
