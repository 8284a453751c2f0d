#include "optimizer/cost_cache.h"

#include <cstring>

namespace capd {
namespace {

void AppendU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

StatementCostCache::StatementCostCache(const WhatIfOptimizer& optimizer,
                                       const Workload& workload)
    : optimizer_(&optimizer),
      workload_(&workload),
      costs_(workload.statements.size()) {
  statement_facts_.reserve(workload.statements.size());
  for (const Statement& stmt : workload.statements) {
    statement_facts_.push_back(optimizer.PrepareStatement(stmt));
  }
}

StatementCostCache::Signature& StatementCostCache::SignatureOf(
    const IndexDef& idx) {
  const auto [it, inserted] = signatures_.try_emplace(idx.Signature());
  Signature& sig = it->second;
  if (!inserted) return sig;
  sig.facts.reserve(workload_->statements.size());
  for (size_t i = 0; i < workload_->statements.size(); ++i) {
    sig.facts.push_back(optimizer_->PrepareIndex(
        workload_->statements[i], statement_facts_[i], idx));
  }
  return sig;
}

uint32_t StatementCostCache::Intern(const PhysicalIndexEstimate& idx) {
  Signature& sig = SignatureOf(idx.def);
  for (uint32_t id : sig.ids) {
    if (SameBits(ids_[id].bytes, idx.bytes) &&
        SameBits(ids_[id].tuples, idx.tuples)) {
      return id;
    }
  }
  // Ids are only unique labels within this cache instance — cost values
  // never depend on their numeric order.
  const uint32_t id = static_cast<uint32_t>(ids_.size());
  ids_.push_back(Sized{&sig, idx.bytes, idx.tuples});
  sig.ids.push_back(id);
  return id;
}

bool StatementCostCache::Relevant(size_t stmt_index, const IndexDef& idx) {
  return SignatureOf(idx).facts[stmt_index].relevant;
}

const WhatIfOptimizer::IndexFacts* StatementCostCache::FindFacts(
    size_t stmt_index, const IndexDef& idx) const {
  const auto it = signatures_.find(idx.Signature());
  return it == signatures_.end() ? nullptr : &it->second.facts[stmt_index];
}

double StatementCostCache::Cost(size_t stmt_index, const Configuration& config,
                                const std::vector<uint32_t>& ids) {
  // The cost of a statement is a function of the *ordered subsequence* of
  // relevant indexes (best-path ties and floating-point sums follow
  // configuration order), so the key preserves that order — never sorts.
  // The statement index selects the map, so it never enters the key.
  key_.clear();
  for (uint32_t id : ids) {
    if (ids_[id].signature->facts[stmt_index].relevant) AppendU32(&key_, id);
  }
  std::unordered_map<std::string, double>& costs = costs_[stmt_index];
  const auto it = costs.find(key_);
  if (it != costs.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  facts_buf_.clear();
  for (uint32_t id : ids) {
    facts_buf_.push_back(&ids_[id].signature->facts[stmt_index]);
  }
  const double cost = optimizer_->CostPrepared(statement_facts_[stmt_index],
                                               config, facts_buf_);
  costs.emplace(key_, cost);
  return cost;
}

double StatementCostCache::WorkloadCost(const Configuration& config,
                                        const std::vector<uint32_t>& ids) {
  double total = 0.0;
  for (size_t i = 0; i < workload_->statements.size(); ++i) {
    total += workload_->statements[i].weight * Cost(i, config, ids);
  }
  return total;
}

double StatementCostCache::WorkloadCost(const Configuration& config) {
  std::vector<uint32_t> ids;
  ids.reserve(config.size());
  for (const PhysicalIndexEstimate& idx : config.indexes()) {
    ids.push_back(Intern(idx));
  }
  return WorkloadCost(config, ids);
}

}  // namespace capd
