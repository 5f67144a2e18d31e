#include "engine/what_if.h"

#include <algorithm>

namespace autoindex {

IndexConfig::IndexConfig(std::vector<IndexDef> defs) : defs_(std::move(defs)) {}

bool IndexConfig::Contains(const IndexDef& def) const {
  for (const IndexDef& d : defs_) {
    if (d == def) return true;
  }
  return false;
}

void IndexConfig::Add(IndexDef def) {
  if (!Contains(def)) defs_.push_back(std::move(def));
}

void IndexConfig::Remove(const IndexDef& def) {
  defs_.erase(std::remove(defs_.begin(), defs_.end(), def), defs_.end());
}

std::vector<IndexStatsView> IndexConfig::ToStatsViews(
    const Catalog& catalog) const {
  std::vector<IndexStatsView> views;
  views.reserve(defs_.size());
  for (const IndexDef& def : defs_) {
    const HeapTable* t = catalog.GetTable(def.table);
    if (t == nullptr) {
      IndexStatsView view;
      view.def = def;
      view.hypothetical = true;
      views.push_back(std::move(view));
      continue;
    }
    views.push_back(EstimateStatsView(def, *t));
  }
  return views;
}

size_t IndexConfig::TotalBytes(const Catalog& catalog) const {
  size_t total = 0;
  for (const IndexStatsView& v : ToStatsViews(catalog)) {
    total += v.size_bytes;
  }
  return total;
}

CostBreakdown WhatIfCostModel::EstimateSelect(
    const SelectStatement& stmt,
    const std::vector<IndexStatsView>& views) const {
  StatusOr<SelectPlan> plan = planner_.PlanSelect(stmt, views);
  return plan.ok() ? plan->est_cost : CostBreakdown();
}

CostBreakdown WhatIfCostModel::EstimateWrite(
    const Statement& stmt, const std::vector<IndexStatsView>& views) const {
  CostBreakdown cost;
  std::string table;
  const Expr* where = nullptr;
  size_t rows_written = 1;
  enum { kIns, kUpd, kDel } op = kIns;
  if (stmt.kind == StatementKind::kInsert) {
    table = stmt.insert->table;
    rows_written = std::max<size_t>(1, stmt.insert->rows.size());
    op = kIns;
  } else if (stmt.kind == StatementKind::kUpdate) {
    table = stmt.update->table;
    where = stmt.update->where.get();
    op = kUpd;
  } else {
    table = stmt.del->table;
    where = stmt.del->where.get();
    op = kDel;
  }
  const HeapTable* t = catalog_->GetTable(table);
  if (t == nullptr) return cost;

  // Read side: locate the rows (UPDATE/DELETE).
  double matched_rows = static_cast<double>(rows_written);
  if (op != kIns) {
    StatusOr<TablePlan> tp_or = planner_.PlanWriteLookup(table, where, views);
    if (tp_or.ok()) {
      const TablePlan& tp = *tp_or;
      cost.data_io += tp.access.use_index
                          ? tp.access.est_cost * 0.8
                          : t->NumPages() * params_.seq_page_cost;
      cost.data_cpu += tp.access.use_index
                           ? tp.access.est_cost * 0.2
                           : t->num_rows() * params_.cpu_tuple_cost;
      matched_rows = std::max(1.0, tp.access.est_rows);
    }
  }

  // Write side: heap page dirtying.
  cost.maint_io += std::max(1.0, matched_rows / t->RowsPerPage()) *
                   params_.seq_page_cost;

  if (op == kDel) return cost;  // deletes defer index maintenance (Sec. V)

  // Index maintenance per affected index. Updates only touch indexes that
  // cover an assigned column.
  for (const IndexStatsView& v : views) {
    if (v.def.table != t->name()) continue;
    if (op == kUpd) {
      bool touched = false;
      for (const auto& [col, _] : stmt.update->assignments) {
        for (const std::string& icol : v.def.columns) {
          if (icol == col) {
            touched = true;
            break;
          }
        }
        if (touched) break;
      }
      if (!touched) continue;
    }
    // C^io: one leaf write per updated entry (updates pay delete+insert).
    const double writes_per_row = (op == kUpd) ? 2.0 : 1.0;
    cost.maint_io +=
        matched_rows * writes_per_row * params_.seq_page_cost;
    // C^cpu per the paper's t_start + t_running.
    cost.maint_cpu += matched_rows *
                      IndexUpdateCpuCost(v.num_entries, v.height, 1, params_);
  }
  return cost;
}

CostBreakdown WhatIfCostModel::EstimateStatement(
    const Statement& stmt, const IndexConfig& config) const {
  const std::vector<IndexStatsView> views = config.ToStatsViews(*catalog_);
  if (stmt.kind == StatementKind::kSelect) {
    return EstimateSelect(*stmt.select, views);
  }
  return EstimateWrite(stmt, views);
}

}  // namespace autoindex
