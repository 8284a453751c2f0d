#include "optimizer/what_if.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace capd {
namespace {

// Numeric [lo, hi] range selected by a filter, given column stats.
void FilterRange(const ColumnFilter& f, const ColumnStats& cs, double* lo,
                 double* hi) {
  switch (f.op) {
    case FilterOp::kEq:
      *lo = *hi = f.lo.NumericKey();
      return;
    case FilterOp::kLt:
    case FilterOp::kLe:
      *lo = cs.min_key;
      *hi = f.lo.NumericKey();
      return;
    case FilterOp::kGt:
    case FilterOp::kGe:
      *lo = f.lo.NumericKey();
      *hi = cs.max_key;
      return;
    case FilterOp::kBetween:
      *lo = f.lo.NumericKey();
      *hi = f.hi.NumericKey();
      return;
  }
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

}  // namespace

bool PredicatesSubsumeFilter(const std::vector<ColumnFilter>& preds,
                             const ColumnFilter& filter) {
  // A predicate on the same column whose range is inside the filter's range
  // implies the filter. Ranges are compared on the numeric key; unbounded
  // sides are +-infinity.
  auto range_of = [](const ColumnFilter& f, double* lo, double* hi) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    switch (f.op) {
      case FilterOp::kEq:
        *lo = *hi = f.lo.NumericKey();
        return;
      case FilterOp::kLt:
      case FilterOp::kLe:
        *lo = -kInf;
        *hi = f.lo.NumericKey();
        return;
      case FilterOp::kGt:
      case FilterOp::kGe:
        *lo = f.lo.NumericKey();
        *hi = kInf;
        return;
      case FilterOp::kBetween:
        *lo = f.lo.NumericKey();
        *hi = f.hi.NumericKey();
        return;
    }
  };
  double flo = 0.0, fhi = 0.0;
  range_of(filter, &flo, &fhi);
  for (const ColumnFilter& p : preds) {
    if (p.column != filter.column) continue;
    double plo = 0.0, phi = 0.0;
    range_of(p, &plo, &phi);
    if (plo >= flo && phi <= fhi) return true;
  }
  return false;
}

double WhatIfOptimizer::FilterSelectivity(const std::string& table,
                                          const ColumnFilter& filter) const {
  const ColumnStats& cs = db_->stats(table).column(filter.column);
  if (cs.num_rows == 0) return 0.0;
  if (filter.op == FilterOp::kEq) {
    return 1.0 / static_cast<double>(std::max<uint64_t>(cs.distinct, 1));
  }
  double lo = 0.0, hi = 0.0;
  FilterRange(filter, cs, &lo, &hi);
  return cs.histogram.SelectivityBetween(lo, hi);
}

double WhatIfOptimizer::Selectivity(
    const std::string& table, const std::vector<ColumnFilter>& filters) const {
  double sel = 1.0;
  for (const ColumnFilter& f : filters) sel *= FilterSelectivity(table, f);
  return sel;
}

// One costed access or plan and, for CostWithPlan, what it was.
struct WhatIfOptimizer::Choice {
  enum class Kind : uint8_t { kHeap, kScan, kSeek, kSeekLookup, kMV };
  double io = 0.0;
  double cpu = 0.0;
  Kind kind = Kind::kHeap;
  size_t member = 0;  // configuration position of the index used

  double total() const { return io + cpu; }
};

WhatIfOptimizer::StatementFacts WhatIfOptimizer::PrepareStatement(
    const Statement& stmt) const {
  StatementFacts facts;
  facts.type = stmt.type;
  switch (stmt.type) {
    case StatementType::kSelect: {
      const SelectQuery& q = stmt.select;
      auto table_of = [&](const std::string& name) -> size_t {
        for (size_t i = 0; i < facts.tables.size(); ++i) {
          if (facts.tables[i].table == name) return i;
        }
        TableFacts tf;
        tf.table = name;
        tf.preds = q.PredicatesOn(name, *db_);
        tf.pred_sel.reserve(tf.preds.size());
        for (const ColumnFilter& p : tf.preds) {
          tf.pred_sel.push_back(FilterSelectivity(name, p));
        }
        tf.cols_used = q.ColumnsUsedOn(name, *db_);
        const Table& t = db_->table(name);
        tf.heap_io = params_.seq_page_io * static_cast<double>(t.HeapPages());
        tf.heap_cpu =
            params_.cpu_per_tuple_read * static_cast<double>(t.num_rows());
        facts.tables.push_back(std::move(tf));
        return facts.tables.size() - 1;
      };
      table_of(q.table);
      double root_sel = 1.0;
      for (double s : facts.tables[0].pred_sel) root_sel *= s;
      facts.root_rows =
          static_cast<double>(db_->table(q.table).num_rows()) * root_sel;
      for (const JoinClause& j : q.joins) {
        JoinFacts jf;
        jf.table = table_of(j.dim_table);
        jf.dim_rows = static_cast<double>(db_->table(j.dim_table).num_rows());
        jf.dim_cols = facts.tables[jf.table].cols_used.size();
        facts.joins.push_back(jf);
      }
      facts.grouped = !q.group_by.empty() || !q.aggregates.empty();
      break;
    }
    case StatementType::kInsert: {
      const InsertStatement& ins = stmt.insert;
      TableFacts tf;
      tf.table = ins.table;
      facts.tables.push_back(std::move(tf));
      const double rows = static_cast<double>(ins.num_rows);
      facts.insert_rows = rows;
      // Heap (or clustered index) append.
      const double heap_row_bytes =
          db_->table(ins.table).schema().RowWidth() + kRowOverhead;
      facts.insert_io =
          params_.seq_page_io * rows * heap_row_bytes / kPageCapacity;
      facts.insert_cpu = params_.cpu_per_tuple_write * rows;
      break;
    }
  }
  return facts;
}

WhatIfOptimizer::IndexFacts WhatIfOptimizer::PrepareIndex(
    const Statement& stmt, const StatementFacts& facts,
    const IndexDef& idx) const {
  IndexFacts f;
  f.beta = params_.Beta(idx.compression);
  f.alpha = params_.Alpha(idx.compression);
  const bool on_table = db_->HasTable(idx.object);

  if (stmt.type == StatementType::kInsert) {
    const std::string& table = facts.tables.front().table;
    if (idx.object == table) {
      f.upkeep = IndexFacts::Upkeep::kTable;
      if (idx.filter.has_value()) {
        f.enter_frac = FilterSelectivity(table, *idx.filter);
      }
    } else if (mv_matcher_ != nullptr &&
               mv_matcher_->FactTableOf(idx.object) == table) {
      // Indexes on MVs over this fact table must be maintained too.
      f.upkeep = IndexFacts::Upkeep::kMV;
    }
    f.relevant = f.upkeep != IndexFacts::Upkeep::kNone;
    return f;
  }

  const SelectQuery& q = stmt.select;
  // Any index may answer the whole query from an MV. An index on an MV
  // stays relevant to every SELECT whenever a matcher is set.
  if (mv_matcher_ != nullptr) {
    f.mv = mv_matcher_->Match(idx, q);
    if (!on_table || f.mv.has_value()) f.relevant = true;
  }
  for (size_t i = 0; i < facts.tables.size(); ++i) {
    if (facts.tables[i].table == idx.object) f.table = static_cast<int>(i);
  }
  if (!on_table || f.table < 0) return f;
  const TableFacts& tf = facts.tables[static_cast<size_t>(f.table)];
  f.clustered = idx.clustered;

  // Index nested loops: the join's dimension key leads an unfiltered index.
  if (!idx.filter.has_value() && !idx.key_columns.empty()) {
    for (size_t j = 0; j < facts.joins.size(); ++j) {
      if (facts.joins[j].table != static_cast<size_t>(f.table) ||
          idx.key_columns[0] != q.joins[j].dim_key) {
        continue;
      }
      f.nl_join.resize(facts.joins.size());
      f.nl_join[j] = 1;
    }
  }

  // Partial index: usable only when the query cannot need rows outside it.
  double filter_sel = 1.0;
  bool subsumed = true;
  if (idx.filter.has_value()) {
    subsumed = PredicatesSubsumeFilter(tf.preds, *idx.filter);
    if (subsumed) filter_sel = FilterSelectivity(tf.table, *idx.filter);
  }

  const std::vector<std::string> stored =
      idx.StoredColumns(db_->table(tf.table).schema());
  f.covering = std::all_of(
      tf.cols_used.begin(), tf.cols_used.end(),
      [&stored](const std::string& c) { return Contains(stored, c); });

  // Selectivity of a predicate *within the index's population*: for the
  // partial-index filter column the filter is already applied, so condition
  // on it; other columns are treated as independent of the filter.
  auto sel_in_index = [&](size_t p) {
    double s = tf.pred_sel[p];
    if (idx.filter.has_value() && tf.preds[p].column == idx.filter->column &&
        filter_sel > 0.0) {
      s = std::min(1.0, s / filter_sel);
    }
    return s;
  };

  // Fraction of index entries reached through the sargable key prefix. A
  // BITMAP structure keys per-value bitmaps, so only equality predicates
  // seek it — range predicates fall through to the covering-scan path.
  f.bitmap = idx.compression == CompressionKind::kBitmap;
  for (const std::string& key_col : idx.key_columns) {
    bool found = false;
    for (size_t p = 0; p < tf.preds.size(); ++p) {
      if (tf.preds[p].column != key_col) continue;
      if (f.bitmap && tf.preds[p].op != FilterOp::kEq) continue;
      f.prefix_frac *= sel_in_index(p);
      found = true;
      break;
    }
    if (!found) break;
    ++f.sargable;
  }
  f.usable = subsumed && (f.sargable > 0 || f.covering);

  // Fraction of index entries satisfying every predicate resolvable inside
  // the index (these survive to the RID-lookup stage).
  for (size_t p = 0; p < tf.preds.size(); ++p) {
    if (Contains(stored, tf.preds[p].column)) f.stored_frac *= sel_in_index(p);
  }
  f.used_in_index = static_cast<size_t>(std::count_if(
      tf.cols_used.begin(), tf.cols_used.end(),
      [&stored](const std::string& c) { return Contains(stored, c); }));

  // A clustered index replaces the heap whether or not it is chosen.
  if (f.clustered || f.usable || !f.nl_join.empty()) f.relevant = true;
  return f;
}

std::optional<WhatIfOptimizer::Choice> WhatIfOptimizer::IndexAccessCost(
    const IndexFacts& f, const PhysicalIndexEstimate& size) const {
  if (!f.usable) return std::nullopt;
  const double tuples = std::max(size.tuples, 1.0);
  const double pages = std::max(size.pages(), 1.0);

  Choice best;
  best.io = std::numeric_limits<double>::infinity();

  if (f.covering) {
    Choice scan;
    scan.kind = Choice::Kind::kScan;
    scan.io = params_.seq_page_io * pages;
    scan.cpu = tuples * (params_.cpu_per_tuple_read +
                         static_cast<double>(f.used_in_index) * f.beta);
    if (scan.total() < best.total()) best = scan;
  }

  if (f.sargable > 0) {
    const double entries = tuples * f.prefix_frac;
    Choice seek;
    seek.io = params_.random_page_io * 2.0 +
              params_.seq_page_io * std::max(1.0, pages * f.prefix_frac);
    seek.cpu = entries * (params_.cpu_per_tuple_read +
                          static_cast<double>(f.used_in_index) * f.beta);
    if (f.bitmap) {
      // One WAH expansion + rank/select AND per sargable equality key.
      seek.cpu += params_.bitmap_probe_cpu * static_cast<double>(f.sargable);
    }
    if (!f.covering) {
      const double lookups = tuples * std::min(1.0, f.stored_frac);
      seek.io += params_.random_page_io * lookups;
      seek.cpu += params_.cpu_per_tuple_read * lookups;
      seek.kind = Choice::Kind::kSeekLookup;
    } else {
      seek.kind = Choice::Kind::kSeek;
    }
    if (seek.total() < best.total()) best = seek;
  }

  if (best.io == std::numeric_limits<double>::infinity()) return std::nullopt;
  return best;
}

WhatIfOptimizer::Choice WhatIfOptimizer::BestTableAccess(
    const StatementFacts& facts, size_t table, const Configuration& config,
    const std::vector<const IndexFacts*>& index_facts) const {
  const std::vector<PhysicalIndexEstimate>& members = config.indexes();
  const int on = static_cast<int>(table);
  bool heap = true;  // the heap exists unless a clustered index replaced it
  for (const IndexFacts* f : index_facts) {
    if (f->table == on && f->clustered) heap = false;
  }
  Choice best;
  bool have = false;
  if (heap) {
    best.io = facts.tables[table].heap_io;
    best.cpu = facts.tables[table].heap_cpu;
    have = true;
  }
  for (size_t k = 0; k < members.size(); ++k) {
    if (index_facts[k]->table != on) continue;
    std::optional<Choice> c = IndexAccessCost(*index_facts[k], members[k]);
    if (c.has_value() && (!have || c->total() < best.total())) {
      best = *c;
      best.member = k;
      have = true;
    }
  }
  CAPD_CHECK(have) << "no access path for table " << facts.tables[table].table
                   << " (clustered index removed the heap but is unusable?)";
  return best;
}

PlanCost WhatIfOptimizer::Assemble(
    const StatementFacts& facts, const Configuration& config,
    const std::vector<const IndexFacts*>& index_facts,
    std::string* path) const {
  const std::vector<PhysicalIndexEstimate>& members = config.indexes();
  CAPD_CHECK(index_facts.size() == members.size());
  PlanCost out;

  if (facts.type == StatementType::kInsert) {
    const double rows = facts.insert_rows;
    out.io = facts.insert_io;
    out.cpu = facts.insert_cpu;
    for (size_t k = 0; k < members.size(); ++k) {
      const IndexFacts& f = *index_facts[k];
      const PhysicalIndexEstimate& idx = members[k];
      if (f.upkeep == IndexFacts::Upkeep::kMV) {
        // Each inserted row updates one group (count/sums) in the MV.
        out.cpu += rows * (params_.cpu_per_tuple_write + f.alpha);
        const double pages = std::max(idx.pages(), 1.0);
        const double touched = pages * (1.0 - std::exp(-rows / pages));
        out.io += params_.random_page_io * touched *
                  params_.index_maintenance_io_factor;
      } else if (f.upkeep == IndexFacts::Upkeep::kTable) {
        const double rows_idx = rows * f.enter_frac;
        // CPUCost_update = BaseCPUCost + alpha * #tuples_written (A.1).
        out.cpu += rows_idx * (params_.cpu_per_tuple_write + f.alpha);
        // Sequential write volume of the new entries...
        const double bytes_per_tuple = idx.bytes / std::max(idx.tuples, 1.0);
        out.io += params_.seq_page_io * rows_idx * bytes_per_tuple /
                  kPageCapacity;
        // ...plus scattered B-tree leaf maintenance, damped by buffer-pool
        // hits.
        const double pages = std::max(idx.pages(), 1.0);
        const double touched = pages * (1.0 - std::exp(-rows_idx / pages));
        out.io += params_.random_page_io * touched *
                  params_.index_maintenance_io_factor;
      }
    }
    if (path != nullptr) {
      *path = "bulk insert(" + facts.tables.front().table + ")";
    }
    return out;
  }

  // Base relational plan: root access + one join at a time.
  Choice plan = BestTableAccess(facts, 0, config, index_facts);
  const double root_rows = facts.root_rows;
  for (size_t j = 0; j < facts.joins.size(); ++j) {
    const JoinFacts& jf = facts.joins[j];
    // Hash join: build on the dimension side, probe with root rows.
    Choice hash = BestTableAccess(facts, jf.table, config, index_facts);
    hash.cpu += params_.cpu_per_tuple_read * (jf.dim_rows + root_rows);

    // Index nested loops: per-row seek into a dimension index keyed on the
    // join key, if the configuration has one.
    Choice nl;
    nl.io = std::numeric_limits<double>::infinity();
    for (const IndexFacts* f : index_facts) {
      if (f->nl_join.empty() || f->nl_join[j] == 0) continue;
      Choice c;
      c.io = root_rows * params_.random_page_io;
      c.cpu = root_rows * (params_.cpu_per_tuple_read +
                           static_cast<double>(jf.dim_cols) * f->beta);
      if (c.total() < nl.total()) nl = c;
    }

    const Choice& join = nl.total() < hash.total() ? nl : hash;
    plan.io += join.io;
    plan.cpu += join.cpu;
  }

  // Grouping/aggregation/output CPU.
  if (facts.grouped) plan.cpu += params_.cpu_per_tuple_read * root_rows;

  // Alternative: answer the whole query from an MV index.
  for (size_t k = 0; k < members.size(); ++k) {
    const IndexFacts& f = *index_facts[k];
    if (!f.mv.has_value()) continue;
    Choice mv_plan;
    mv_plan.kind = Choice::Kind::kMV;
    mv_plan.member = k;
    const double mv_pages = std::max(members[k].pages(), 1.0);
    const double frac = f.mv->selected_frac;
    if (f.mv->leading_key_seek && frac < 1.0) {
      mv_plan.io = params_.random_page_io * 2.0 +
                   params_.seq_page_io * std::max(1.0, mv_pages * frac);
    } else {
      mv_plan.io = params_.seq_page_io * mv_pages;
    }
    mv_plan.cpu = f.mv->mv_tuples * frac *
                  (params_.cpu_per_tuple_read +
                   static_cast<double>(f.mv->used_columns) * f.beta);
    if (mv_plan.total() < plan.total()) plan = mv_plan;
  }

  out.io = plan.io;
  out.cpu = plan.cpu;
  if (path != nullptr) {
    const std::string def = plan.kind == Choice::Kind::kHeap
                                ? ""
                                : members[plan.member].def.ToString();
    switch (plan.kind) {
      case Choice::Kind::kHeap:
        *path = "heap scan(" + facts.tables.front().table + ")";
        break;
      case Choice::Kind::kScan:
        *path = "index scan(" + def + ")";
        break;
      case Choice::Kind::kSeek:
        *path = "index seek(" + def + ")";
        break;
      case Choice::Kind::kSeekLookup:
        *path = "index seek+lookup(" + def + ")";
        break;
      case Choice::Kind::kMV:
        *path = "MV " + def;
        break;
    }
  }
  return out;
}

double WhatIfOptimizer::CostPrepared(
    const StatementFacts& facts, const Configuration& config,
    const std::vector<const IndexFacts*>& index_facts) const {
  return Assemble(facts, config, index_facts, nullptr).total();
}

PlanCost WhatIfOptimizer::CostOnTheSpot(const Statement& stmt,
                                        const Configuration& config,
                                        std::string* path) const {
  const StatementFacts facts = PrepareStatement(stmt);
  std::vector<IndexFacts> index_facts;
  index_facts.reserve(config.size());
  for (const PhysicalIndexEstimate& idx : config.indexes()) {
    index_facts.push_back(PrepareIndex(stmt, facts, idx.def));
  }
  std::vector<const IndexFacts*> ptrs;
  ptrs.reserve(index_facts.size());
  for (const IndexFacts& f : index_facts) ptrs.push_back(&f);
  return Assemble(facts, config, ptrs, path);
}

PlanCost WhatIfOptimizer::CostWithPlan(const Statement& stmt,
                                       const Configuration& config) const {
  std::string path;
  PlanCost plan = CostOnTheSpot(stmt, config, &path);
  plan.access_path = std::move(path);
  return plan;
}

double WhatIfOptimizer::Cost(const Statement& stmt,
                             const Configuration& config) const {
  return CostOnTheSpot(stmt, config, nullptr).total();
}

double WhatIfOptimizer::WorkloadCost(const Workload& workload,
                                     const Configuration& config) const {
  double total = 0.0;
  for (const Statement& s : workload.statements) {
    total += s.weight * Cost(s, config);
  }
  return total;
}

}  // namespace capd
