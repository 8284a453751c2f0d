#include "estimator/estimation_graph.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace capd {
namespace {

// Stored columns minus the implicit row locator.
std::vector<std::string> UserColumns(const IndexDef& def, const Schema& base) {
  std::vector<std::string> cols = def.StoredColumns(base);
  cols.erase(std::remove(cols.begin(), cols.end(), "__rowid"), cols.end());
  return cols;
}

bool IsSubset(const std::vector<std::string>& a,
              const std::vector<std::string>& b) {
  for (const std::string& x : a) {
    if (std::find(b.begin(), b.end(), x) == b.end()) return false;
  }
  return true;
}

}  // namespace

EstimationGraph::EstimationGraph(const Database& db, SampleSource* source,
                                 const ErrorModel& model)
    : db_(&db), source_(source), model_(model), sampler_(db, source) {}

std::optional<size_t> EstimationGraph::FindNode(
    const std::string& signature) const {
  const auto it = by_signature_.find(signature);
  if (it == by_signature_.end()) return std::nullopt;
  return it->second;
}

size_t EstimationGraph::AddNode(const IndexDef& def, bool is_target) {
  const std::string sig = def.Signature();
  if (std::optional<size_t> existing = FindNode(sig); existing.has_value()) {
    if (is_target) nodes_[*existing].is_target = true;
    return *existing;
  }
  IndexNode node;
  node.def = def;
  node.is_target = is_target;
  node.is_existing = db_->IsExistingIndex(def);
  node.num_stored_columns =
      UserColumns(def, source_->ObjectSchema(def.object)).size();
  if (node.is_existing) node.state = NodeState::kSampled;  // free + exact
  nodes_.push_back(std::move(node));
  by_signature_[sig] = nodes_.size() - 1;
  return nodes_.size() - 1;
}

void EstimationGraph::AddTargets(const std::vector<IndexDef>& targets) {
  std::vector<size_t> ids;
  ids.reserve(targets.size());
  for (const IndexDef& t : targets) {
    CAPD_CHECK(t.compression != CompressionKind::kNone)
        << "only compressed indexes need size estimation: " << t.ToString();
    ids.push_back(AddNode(t, /*is_target=*/true));
  }
  // Helper singleton nodes + deductions. Do this after all targets exist so
  // subset-target deductions are discoverable. New helper nodes appended
  // during generation are singletons and need no deductions of their own.
  const size_t initial = nodes_.size();
  for (size_t i = 0; i < initial; ++i) {
    if (!nodes_[i].deductions_generated) {
      nodes_[i].deductions_generated = true;
      GenerateDeductionsFor(i);
    }
  }
}

void EstimationGraph::GenerateDeductionsFor(size_t node_id) {
  const IndexDef def = nodes_[node_id].def;  // copy: nodes_ may reallocate
  const Schema base = source_->ObjectSchema(def.object);
  const std::vector<std::string> cols = UserColumns(def, base);
  if (cols.size() <= 1) return;  // singleton: nothing to extrapolate from

  // --- ColSet: any other node with the same column set, for ORD-IND. ---
  if (!IsOrderDependent(def.compression)) {
    const std::string colset_sig = def.ColumnSetSignature(base);
    for (size_t j = 0; j < nodes_.size(); ++j) {
      if (j == node_id) continue;
      const IndexDef& other = nodes_[j].def;
      if (other.compression != def.compression) continue;
      if (other.ColumnSetSignature(base) != colset_sig) continue;
      DeductionNode d;
      d.type = DeductionType::kColSet;
      d.parent = node_id;
      d.children = {j};
      deductions_.push_back(d);
      deductions_by_parent_[node_id].push_back(deductions_.size() - 1);
    }
  }

  // --- SortOrder: same column set under a different key order, ORD-DEP
  // only. The donor's sampled build pays for drawing the sample, so this
  // node's exact-on-sample SampleCF run costs no further sample I/O. Donor
  // pairs are symmetric; the greedy ready-check (child must already be
  // known) breaks the tie, so the first member of a sort-order clique
  // always samples. ---
  if (enable_sort_order_ && IsOrderDependent(def.compression)) {
    const std::string colset_sig = def.ColumnSetSignature(base);
    for (size_t j = 0; j < nodes_.size(); ++j) {
      if (j == node_id) continue;
      const IndexDef& other = nodes_[j].def;
      if (other.compression != def.compression) continue;
      if (other.ColumnSetSignature(base) != colset_sig) continue;
      DeductionNode d;
      d.type = DeductionType::kSortOrder;
      d.parent = node_id;
      d.children = {j};
      deductions_.push_back(d);
      deductions_by_parent_[node_id].push_back(deductions_.size() - 1);
    }
  }

  // --- ColExt: all-singletons partition. ---
  auto singleton_def = [&](const std::string& col) {
    IndexDef s;
    s.object = def.object;
    s.key_columns = {col};
    s.clustered = false;
    s.compression = def.compression;
    s.filter = def.filter;
    return s;
  };
  {
    DeductionNode d;
    d.type = DeductionType::kColExt;
    d.parent = node_id;
    for (const std::string& col : cols) {
      d.children.push_back(AddNode(singleton_def(col), /*is_target=*/false));
    }
    deductions_.push_back(d);
    deductions_by_parent_[node_id].push_back(deductions_.size() - 1);
  }

  // --- ColExt: subset-node + singletons-of-remainder partitions. ---
  for (size_t j = 0; j < nodes_.size(); ++j) {
    if (j == node_id) continue;
    const IndexDef& other = nodes_[j].def;
    if (other.object != def.object) continue;
    if (other.compression != def.compression) continue;
    if (other.clustered) continue;  // clustered donors only via ColSet
    const bool same_filter =
        (!other.filter.has_value() && !def.filter.has_value()) ||
        (other.filter.has_value() && def.filter.has_value() &&
         other.filter->ToString() == def.filter->ToString());
    if (!same_filter) continue;
    const std::vector<std::string> other_cols = UserColumns(other, base);
    if (other_cols.size() <= 1 || other_cols.size() >= cols.size()) continue;
    if (!IsSubset(other_cols, cols)) continue;
    DeductionNode d;
    d.type = DeductionType::kColExt;
    d.parent = node_id;
    d.children.push_back(j);
    for (const std::string& col : cols) {
      if (std::find(other_cols.begin(), other_cols.end(), col) ==
          other_cols.end()) {
        d.children.push_back(AddNode(singleton_def(col), /*is_target=*/false));
      }
    }
    deductions_.push_back(d);
    deductions_by_parent_[node_id].push_back(deductions_.size() - 1);
  }
}

void EstimationGraph::RefreshCosts(double f) {
  // A probe of an unfiltered base-table index is arithmetic on the sample's
  // row count; only partial indexes and MVs draw (on this thread), so the
  // probes run serially. Once a cancel fires, remaining probes are skipped
  // (cost 0) — the plan built from them is discarded by the cancelled caller
  // anyway.
  for (IndexNode& node : nodes_) {
    node.cost_pages = node.is_existing || Cancelled()
                          ? 0.0
                          : sampler_.PredictCostPages(node.def, f);
  }
}

ErrorStats EstimationGraph::DeductionError(
    const DeductionNode& d, size_t parent, double f,
    std::vector<ErrorStats> child_terms) const {
  if (d.type == DeductionType::kSortOrder) {
    // Executed as a SampleCF recompute on the donor's sample: accuracy is
    // exactly a sampled run's, independent of the donor's own error.
    return model_.SampleCf(nodes_[parent].def.compression, f);
  }
  child_terms.push_back(d.type == DeductionType::kColSet
                            ? model_.ColSet(nodes_[parent].def.compression)
                            : model_.ColExt(nodes_[parent].def.compression,
                                            static_cast<int>(d.children.size())));
  return ComposeErrors(child_terms);
}

ErrorStats EstimationGraph::NodeError(size_t i, double f) const {
  const IndexNode& node = nodes_[i];
  if (node.is_existing) return ErrorStats{};  // exact
  switch (node.state) {
    case NodeState::kSampled:
      return model_.SampleCf(node.def.compression, f);
    case NodeState::kDeduced: {
      CAPD_CHECK_GE(node.chosen_deduction, 0);
      const DeductionNode& d = deductions_[node.chosen_deduction];
      std::vector<ErrorStats> terms;
      if (d.type != DeductionType::kSortOrder) {
        for (size_t c : d.children) terms.push_back(NodeError(c, f));
      }
      return DeductionError(d, i, f, std::move(terms));
    }
    case NodeState::kNone:
      break;
  }
  // Unknown: effectively infinite error.
  return ErrorStats{0.0, 1e9};
}

void EstimationGraph::ResetStates() {
  for (IndexNode& node : nodes_) {
    node.state = node.is_existing ? NodeState::kSampled : NodeState::kNone;
    node.chosen_deduction = -1;
  }
}

double EstimationGraph::TotalSampledCost() const {
  double cost = 0.0;
  for (const IndexNode& node : nodes_) {
    if (node.state == NodeState::kSampled && !node.is_existing) {
      cost += node.cost_pages;
    }
  }
  return cost;
}

double EstimationGraph::AllSampledCost(double f) {
  RefreshCosts(f);
  double cost = 0.0;
  for (const IndexNode& node : nodes_) {
    if (node.is_target && !node.is_existing) cost += node.cost_pages;
  }
  return cost;
}

double EstimationGraph::SampleAllTargets(double f) {
  ResetStates();
  RefreshCosts(f);
  for (IndexNode& node : nodes_) {
    if (node.is_target && node.state == NodeState::kNone) {
      node.state = NodeState::kSampled;
    }
  }
  return TotalSampledCost();
}

void EstimationGraph::PruneUnused() {
  // From wider to narrower: drop helper nodes not used by any deduced
  // parent (paper's lines 13-14).
  std::vector<size_t> order(nodes_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return nodes_[a].num_stored_columns > nodes_[b].num_stored_columns;
  });
  for (size_t i : order) {
    IndexNode& node = nodes_[i];
    if (node.is_target || node.is_existing || node.state == NodeState::kNone) {
      continue;
    }
    bool used = false;
    for (size_t j = 0; j < nodes_.size() && !used; ++j) {
      if (nodes_[j].state != NodeState::kDeduced) continue;
      const DeductionNode& d = deductions_[nodes_[j].chosen_deduction];
      used = std::find(d.children.begin(), d.children.end(), i) != d.children.end();
    }
    if (!used) {
      node.state = NodeState::kNone;
      node.chosen_deduction = -1;
    }
  }
}

double EstimationGraph::Greedy(double f, double e, double q) {
  ResetStates();
  RefreshCosts(f);

  // Narrow to wide over targets.
  std::vector<size_t> targets;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_target && nodes_[i].state == NodeState::kNone) {
      targets.push_back(i);
    }
  }
  std::sort(targets.begin(), targets.end(), [this](size_t a, size_t b) {
    return nodes_[a].num_stored_columns < nodes_[b].num_stored_columns;
  });

  for (size_t t : targets) {
    if (nodes_[t].state != NodeState::kNone) continue;  // e.g. existing
    const auto dit = deductions_by_parent_.find(t);

    // Line 6-7: a deduction whose children are all known and which meets
    // the accuracy constraint. Pick the one with the highest probability.
    int best_ded = -1;
    double best_prob = -1.0;
    if (dit != deductions_by_parent_.end()) {
      for (size_t di : dit->second) {
        const DeductionNode& d = deductions_[di];
        bool ready = true;
        std::vector<ErrorStats> terms;
        for (size_t c : d.children) {
          if (nodes_[c].state == NodeState::kNone) {
            ready = false;
            break;
          }
          terms.push_back(NodeError(c, f));
        }
        if (!ready) continue;
        const double prob = ErrorWithinProbability(
            DeductionError(d, t, f, std::move(terms)), e);
        if (prob >= q && prob > best_prob) {
          best_prob = prob;
          best_ded = static_cast<int>(di);
        }
      }
    }
    if (best_ded >= 0) {
      nodes_[t].state = NodeState::kDeduced;
      nodes_[t].chosen_deduction = best_ded;
      continue;
    }

    // Line 8-9: enable a deduction by sampling its unknown children if that
    // is cheaper than sampling this node.
    int best_enable = -1;
    double best_enable_cost = nodes_[t].cost_pages;
    if (dit != deductions_by_parent_.end()) {
      for (size_t di : dit->second) {
        const DeductionNode& d = deductions_[di];
        double extra = 0.0;
        std::vector<ErrorStats> terms;
        for (size_t c : d.children) {
          if (nodes_[c].state == NodeState::kNone) {
            extra += nodes_[c].cost_pages;
            terms.push_back(model_.SampleCf(nodes_[c].def.compression, f));
          } else {
            terms.push_back(NodeError(c, f));
          }
        }
        const double prob = ErrorWithinProbability(
            DeductionError(d, t, f, std::move(terms)), e);
        if (prob >= q && extra < best_enable_cost) {
          best_enable_cost = extra;
          best_enable = static_cast<int>(di);
        }
      }
    }
    if (best_enable >= 0) {
      const DeductionNode& d = deductions_[best_enable];
      for (size_t c : d.children) {
        if (nodes_[c].state == NodeState::kNone) {
          nodes_[c].state = NodeState::kSampled;
        }
      }
      nodes_[t].state = NodeState::kDeduced;
      nodes_[t].chosen_deduction = best_enable;
      continue;
    }

    // Line 11: sample it.
    nodes_[t].state = NodeState::kSampled;
  }

  PruneUnused();
  return TotalSampledCost();
}

bool EstimationGraph::AssignmentSatisfies(double e, double q, double f) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const IndexNode& node = nodes_[i];
    if (!node.is_target) continue;
    if (ErrorWithinProbability(NodeError(i, f), e) < q) return false;
  }
  return true;
}

bool EstimationGraph::DependsOn(size_t child, size_t node) const {
  if (child == node) return true;
  if (nodes_[child].state != NodeState::kDeduced) return false;
  const DeductionNode& d = deductions_[nodes_[child].chosen_deduction];
  for (size_t c : d.children) {
    if (DependsOn(c, node)) return true;
  }
  return false;
}

void EstimationGraph::OptimalRecurse(const std::vector<size_t>& order,
                                     std::vector<char>* required,
                                     double cost_so_far, double e, double q,
                                     double f, double* best_cost,
                                     std::vector<IndexNode>* best_assignment) {
  if (cost_so_far >= *best_cost) return;  // bound
  // Next undecided required node (targets are always required). Scan from
  // the front each time: ColSet donors share the parent's width and may sit
  // anywhere in `order`.
  size_t pos = order.size();
  for (size_t p = 0; p < order.size(); ++p) {
    const size_t i = order[p];
    if ((nodes_[i].is_target || (*required)[i]) &&
        nodes_[i].state == NodeState::kNone) {
      pos = p;
      break;
    }
  }
  if (pos == order.size()) {
    // Complete assignment; errors were enforced per choice below.
    *best_cost = cost_so_far;
    *best_assignment = nodes_;
    return;
  }
  const size_t i = order[pos];

  // Branch 1: sample it.
  nodes_[i].state = NodeState::kSampled;
  OptimalRecurse(order, required, cost_so_far + nodes_[i].cost_pages, e, q, f,
                 best_cost, best_assignment);
  nodes_[i].state = NodeState::kNone;

  // Branch 2: each deduction whose composed error can satisfy the
  // constraint assuming each child is at best SampleCF-accurate (children
  // are never better than that, so this is an admissible filter).
  const auto dit = deductions_by_parent_.find(i);
  if (dit != deductions_by_parent_.end()) {
    for (size_t di : dit->second) {
      const DeductionNode& d = deductions_[di];
      bool cyclic = false;
      std::vector<ErrorStats> terms;
      for (size_t c : d.children) {
        if (DependsOn(c, i)) {
          cyclic = true;
          break;
        }
        terms.push_back(nodes_[c].is_existing
                            ? ErrorStats{}
                            : model_.SampleCf(nodes_[c].def.compression, f));
      }
      if (cyclic) continue;
      if (ErrorWithinProbability(DeductionError(d, i, f, std::move(terms)), e) <
          q) {
        continue;
      }

      nodes_[i].state = NodeState::kDeduced;
      nodes_[i].chosen_deduction = static_cast<int>(di);
      std::vector<size_t> newly;
      for (size_t c : d.children) {
        if (!(*required)[c]) {
          (*required)[c] = 1;
          newly.push_back(c);
        }
      }
      OptimalRecurse(order, required, cost_so_far, e, q, f, best_cost,
                     best_assignment);
      for (size_t c : newly) (*required)[c] = 0;
      nodes_[i].state = NodeState::kNone;
      nodes_[i].chosen_deduction = -1;
    }
  }
}

double EstimationGraph::Optimal(double f, double e, double q) {
  ResetStates();
  RefreshCosts(f);
  std::vector<size_t> order(nodes_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Widest first so deduction children (narrower) are decided after their
  // parents.
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return nodes_[a].num_stored_columns > nodes_[b].num_stored_columns;
  });
  std::vector<char> required(nodes_.size(), 0);
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<IndexNode> best_assignment;
  OptimalRecurse(order, &required, 0.0, e, q, f, &best_cost,
                 &best_assignment);
  if (!best_assignment.empty()) {
    nodes_ = std::move(best_assignment);
    // Final verification pass: if the lazily-composed errors violate the
    // constraint, fall back to greedy (which never does worse than All).
    if (!AssignmentSatisfies(e, q, f)) return Greedy(f, e, q);
  }
  return best_cost;
}

std::map<std::string, SampleCfResult> EstimationGraph::Execute(
    double f, ThreadPool* pool, EstimationCache* cache, size_t* cache_hits) {
  std::map<std::string, SampleCfResult> results;  // every known node
  DeductionEngine engine(*db_, source_, f);

  // Leaf entries are namespaced apart from the advisor's per-target entries
  // (EstimateAll's LookupBest path): only SampleCF-pure values — never
  // deduced ones — may be served here, or a hit could diverge from what a
  // fresh run at f computes.
  auto leaf_key = [](const std::string& signature) {
    return "scf|" + signature;
  };

  // A kSortOrder node's result depends on (def, f) alone: a SampleCF run
  // on the sample its donor paid for.
  auto sort_order_deduced = [this](const IndexNode& node) {
    return node.state == NodeState::kDeduced &&
           deductions_[node.chosen_deduction].type ==
               DeductionType::kSortOrder;
  };

  // Phase 1: SAMPLED and kSortOrder nodes are independent of each other and
  // carry the index-build cost, so they are the parallel section. Nodes of
  // one structure (codec variants of one key order) are grouped so they
  // share the materialized sample rows, their rendering and the NONE pack
  // (one materialize, N compressed packs); existing (catalog-served) nodes
  // stay singleton groups. SAMPLED leaves already in the cross-round cache
  // at exactly this fraction are served up front; kSortOrder nodes never
  // touch the cache, so its hits and contents stay those of the leaves.
  std::vector<std::vector<size_t>> groups;
  std::map<std::string, size_t> group_of;  // structure signature -> group
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const IndexNode& node = nodes_[i];
    const bool sort_order = sort_order_deduced(node);
    if (node.state != NodeState::kSampled && !sort_order) continue;
    if (node.is_existing) {
      groups.push_back({i});
      continue;
    }
    const std::string sig = node.def.Signature();
    if (cache != nullptr && !sort_order) {
      if (std::optional<SampleCfResult> served = cache->Lookup(leaf_key(sig), f)) {
        results[sig] = *served;
        if (cache_hits != nullptr) ++(*cache_hits);
        continue;
      }
    }
    const std::string key = node.def.StructureSignature();
    const auto it = group_of.find(key);
    if (it == group_of.end()) {
      group_of[key] = groups.size();
      groups.push_back({i});
    } else {
      groups[it->second].push_back(i);
    }
  }
  // Samples are drawn here, on the calling thread, before the fan-out.
  // Drawing one is serialized inside the sample source anyway, and doing
  // it from whichever worker reached an object first would scatter the
  // samples' memory over the workers' allocator arenas by scheduling luck,
  // making the process's peak memory vary from run to run. An existing
  // node reads the sample only to count a partial index's filter hits.
  for (const std::vector<size_t>& members : groups) {
    if (Cancelled()) break;
    const IndexNode& first = nodes_[members.front()];
    if (!first.is_existing || first.def.filter.has_value()) {
      source_->Sample(first.def.object, f);
    }
  }
  std::vector<std::vector<SampleCfResult>> group_results =
      ParallelMap<std::vector<SampleCfResult>>(
          pool, groups.size(), [&](size_t g) -> std::vector<SampleCfResult> {
            // Deadlines must bind inside the batch: once a cancel fires,
            // remaining index builds are skipped. An empty vector (a group
            // always has >= 1 member) marks the group as not computed.
            if (Cancelled()) return {};
            const std::vector<size_t>& members = groups[g];
            const IndexNode& first = nodes_[members.front()];
            if (first.is_existing) {
              SampleCfResult r;
              r.est_bytes = static_cast<double>(
                  db_->existing_index_bytes().at(first.def.Signature()));
              r.est_tuples = sampler_.EstimateFullTuples(first.def, f);
              r.est_uncompressed_bytes =
                  sampler_.UncompressedFullBytes(first.def, r.est_tuples);
              r.cf = r.est_bytes / std::max(1.0, r.est_uncompressed_bytes);
              return {r};
            }
            std::vector<IndexDef> defs;
            defs.reserve(members.size());
            for (size_t m : members) defs.push_back(nodes_[m].def);
            return sampler_.EstimateGroup(defs, f);
          });
  for (size_t g = 0; g < groups.size(); ++g) {
    if (group_results[g].size() != groups[g].size()) continue;  // cancelled
    for (size_t m = 0; m < groups[g].size(); ++m) {
      const IndexNode& node = nodes_[groups[g][m]];
      const std::string sig = node.def.Signature();
      results[sig] = group_results[g][m];
      if (sort_order_deduced(node)) {
        results[sig].cost_pages = 0.0;  // the donor's build paid the sample
      } else if (cache != nullptr && !node.is_existing) {
        cache->Insert(leaf_key(sig), f, group_results[g][m]);
      }
    }
  }
  // A cancelled batch returns the completed leaves only; deduction would
  // compose from missing children, so the caller gets the partial map and
  // is expected to discard it (EstimateAll reports the cancellation).
  if (Cancelled()) return results;

  // Phase 2: DEDUCED nodes without a result compose their children's
  // results via the deduction formulas — cheap arithmetic, run serially in
  // dependency order: a deduced node runs only after all its children have
  // results (narrow-to-wide alone cannot order same-width ColSet pairs).
  std::vector<size_t> pending;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].state == NodeState::kDeduced &&
        results.count(nodes_[i].def.Signature()) == 0) {
      pending.push_back(i);
    }
  }
  std::sort(pending.begin(), pending.end(), [this](size_t a, size_t b) {
    return nodes_[a].num_stored_columns < nodes_[b].num_stored_columns;
  });
  size_t stall_guard = 0;
  while (!pending.empty()) {
    CAPD_CHECK_LT(stall_guard++, nodes_.size() * nodes_.size() + 16u)
        << "cyclic deduction plan";
    const size_t i = pending.front();
    pending.erase(pending.begin());
    IndexNode& node = nodes_[i];
    {
      const DeductionNode& dd = deductions_[node.chosen_deduction];
      bool ready = true;
      for (size_t c : dd.children) {
        if (results.find(nodes_[c].def.Signature()) == results.end()) {
          ready = false;
          break;
        }
      }
      if (!ready) {
        pending.push_back(i);  // retry after its children
        continue;
      }
    }
    const std::string sig = node.def.Signature();
    const DeductionNode& d = deductions_[node.chosen_deduction];
    SampleCfResult r;
    r.est_tuples = sampler_.EstimateFullTuples(node.def, f);
    r.est_uncompressed_bytes =
        sampler_.UncompressedFullBytes(node.def, r.est_tuples);
    if (d.type == DeductionType::kColSet) {
      const SampleCfResult& donor = results.at(nodes_[d.children[0]].def.Signature());
      r.est_bytes = donor.est_bytes;
    } else {
      std::vector<KnownSize> children;
      for (size_t c : d.children) {
        const SampleCfResult& cr = results.at(nodes_[c].def.Signature());
        KnownSize k;
        k.def = nodes_[c].def;
        k.compressed_bytes = cr.est_bytes;
        k.uncompressed_bytes = cr.est_uncompressed_bytes;
        k.ns_bytes = cr.est_ns_bytes;
        k.tuples = cr.est_tuples;
        children.push_back(std::move(k));
      }
      r.est_bytes = engine.DeduceColExt(node.def, r.est_uncompressed_bytes,
                                        r.est_tuples, children);
    }
    r.cf = r.est_bytes / std::max(1.0, r.est_uncompressed_bytes);
    r.cost_pages = 0.0;
    results[sig] = r;
  }

  // Return only targets.
  std::map<std::string, SampleCfResult> targets;
  for (const IndexNode& node : nodes_) {
    if (!node.is_target) continue;
    const auto it = results.find(node.def.Signature());
    CAPD_CHECK(it != results.end())
        << "target not estimated: " << node.def.ToString();
    targets[node.def.Signature()] = it->second;
  }
  return targets;
}

size_t EstimationGraph::NumSampled() const {
  size_t n = 0;
  for (const IndexNode& node : nodes_) {
    if (node.state == NodeState::kSampled && !node.is_existing) ++n;
  }
  return n;
}

size_t EstimationGraph::NumDeduced() const {
  size_t n = 0;
  for (const IndexNode& node : nodes_) {
    if (node.is_target && node.state == NodeState::kDeduced) ++n;
  }
  return n;
}

size_t EstimationGraph::NumSortOrderDeduced() const {
  size_t n = 0;
  for (const IndexNode& node : nodes_) {
    if (node.is_target && node.state == NodeState::kDeduced &&
        node.chosen_deduction >= 0 &&
        deductions_[node.chosen_deduction].type == DeductionType::kSortOrder) {
      ++n;
    }
  }
  return n;
}

}  // namespace capd
