#include "optimizer/cost_cache.h"

#include <algorithm>

namespace capd {
namespace {

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

void AppendU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

}  // namespace

StatementCostCache::StatementCostCache(const Database& db,
                                       const WhatIfOptimizer& optimizer,
                                       const Workload& workload)
    : db_(&db),
      optimizer_(&optimizer),
      workload_(&workload),
      costs_(workload.statements.size()) {
  scopes_.reserve(workload.statements.size());
  for (const Statement& stmt : workload.statements) {
    StatementScope scope;
    switch (stmt.type) {
      case StatementType::kSelect: {
        const SelectQuery& q = stmt.select;
        auto add_table = [&](const std::string& t) -> TableScope& {
          for (TableScope& ts : scope.tables) {
            if (ts.table == t) return ts;
          }
          TableScope ts;
          ts.table = t;
          ts.preds = q.PredicatesOn(t, db);
          ts.cols_used = q.ColumnsUsedOn(t, db);
          scope.tables.push_back(std::move(ts));
          return scope.tables.back();
        };
        add_table(q.table);
        for (const JoinClause& j : q.joins) {
          add_table(j.dim_table).join_keys.push_back(j.dim_key);
        }
        break;
      }
      case StatementType::kInsert: {
        scope.is_insert = true;
        TableScope ts;
        ts.table = stmt.insert.table;
        scope.tables.push_back(std::move(ts));
        break;
      }
    }
    scopes_.push_back(std::move(scope));
  }
}

bool StatementCostCache::ComputeRelevant(size_t stmt_index,
                                         const IndexDef& idx) const {
  const StatementScope& scope = scopes_[stmt_index];
  if (!db_->HasTable(idx.object)) {
    // Index on a materialized view: invisible to the optimizer without a
    // matcher; otherwise it may answer any SELECT, and an INSERT maintains
    // it only when the MV is defined over the inserted table (mirrors
    // CostSelect/CostInsert exactly).
    const MVMatcher* matcher = optimizer_->mv_matcher();
    if (matcher == nullptr) return false;
    if (!scope.is_insert) return true;
    return matcher->FactTableOf(idx.object) == scope.tables.front().table;
  }

  const TableScope* ts = nullptr;
  for (const TableScope& t : scope.tables) {
    if (t.table == idx.object) {
      ts = &t;
      break;
    }
  }
  if (ts == nullptr) return false;  // statement never touches the object
  // Every index on the loaded table is maintained by a bulk INSERT.
  if (scope.is_insert) return true;
  // A clustered index replaces the heap, changing the base access path
  // whether or not it is itself chosen.
  if (idx.clustered) return true;
  // Mirror IndexAccessCost's usability gates. A partial index whose filter
  // the statement's predicates do not subsume is unusable (and the
  // index-NL join skips filtered indexes too).
  if (idx.filter.has_value() &&
      !PredicatesSubsumeFilter(ts->preds, *idx.filter)) {
    return false;
  }
  // Index-nested-loops join probe: leading key equals a join's dim key.
  if (!idx.filter.has_value() && !idx.key_columns.empty() &&
      Contains(ts->join_keys, idx.key_columns.front())) {
    return true;
  }
  // Seekable: a predicate on the leading key column (equality-only for
  // BITMAP structures — mirrors IndexAccessCost's sargable-prefix gate).
  if (!idx.key_columns.empty()) {
    const bool bitmap = idx.compression == CompressionKind::kBitmap;
    for (const ColumnFilter& p : ts->preds) {
      if (p.column != idx.key_columns.front()) continue;
      if (bitmap && p.op != FilterOp::kEq) continue;
      return true;
    }
  }
  // Covering: every column the statement uses on this table is stored.
  const std::vector<std::string> stored =
      idx.StoredColumns(db_->table(idx.object).schema());
  return std::all_of(
      ts->cols_used.begin(), ts->cols_used.end(),
      [&stored](const std::string& c) { return Contains(stored, c); });
}

const StatementCostCache::IndexInfo& StatementCostCache::InfoFor(
    const IndexDef& idx) {
  // References into the node-based map stay valid across later inserts.
  const auto [it, inserted] = index_info_.try_emplace(idx.Signature());
  IndexInfo& info = it->second;
  if (!inserted) return info;
  // Ids are only unique labels within this cache instance — cost values
  // never depend on their numeric order.
  info.id = static_cast<uint32_t>(index_info_.size());
  info.relevant.resize(workload_->statements.size());
  for (size_t i = 0; i < workload_->statements.size(); ++i) {
    info.relevant[i] = ComputeRelevant(i, idx) ? 1 : 0;
  }
  return info;
}

bool StatementCostCache::Relevant(size_t stmt_index, const IndexDef& idx) {
  return InfoFor(idx).relevant[stmt_index] != 0;
}

double StatementCostCache::CostWithInfos(
    size_t stmt_index, const Configuration& config,
    const std::vector<const IndexInfo*>& infos) {
  // The cost of a statement is a function of the *ordered subsequence* of
  // relevant indexes (best-path ties and floating-point sums follow
  // configuration order), so the key preserves that order — never sorts.
  // The statement index selects the map, so it never enters the key.
  std::string key;
  key.reserve(4 * infos.size());
  for (const IndexInfo* info : infos) {
    if (info->relevant[stmt_index]) AppendU32(&key, info->id);
  }
  const auto [it, inserted] = costs_[stmt_index].try_emplace(std::move(key));
  if (!inserted) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  it->second = optimizer_->Cost(workload_->statements[stmt_index], config);
  return it->second;
}

double StatementCostCache::Cost(size_t stmt_index,
                                const Configuration& config) {
  std::vector<const IndexInfo*> infos;
  infos.reserve(config.indexes().size());
  for (const PhysicalIndexEstimate& idx : config.indexes()) {
    infos.push_back(&InfoFor(idx.def));
  }
  return CostWithInfos(stmt_index, config, infos);
}

double StatementCostCache::WorkloadCost(const Configuration& config) {
  // Signatures are rendered (and relevance computed) once per call, not
  // once per statement — the dominant key-building cost.
  std::vector<const IndexInfo*> infos;
  infos.reserve(config.indexes().size());
  for (const PhysicalIndexEstimate& idx : config.indexes()) {
    infos.push_back(&InfoFor(idx.def));
  }
  double total = 0.0;
  for (size_t i = 0; i < workload_->statements.size(); ++i) {
    total += workload_->statements[i].weight * CostWithInfos(i, config, infos);
  }
  return total;
}

}  // namespace capd
