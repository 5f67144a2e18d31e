#include "engine/operators/lowering.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "engine/operators/join_ops.h"
#include "engine/operators/pipeline_ops.h"
#include "engine/operators/scan_ops.h"

namespace autoindex {
namespace {

// True when `col` binds to a table strictly before `level`: its row will
// be available from the outer tuple at probe time. BindColumn is the same
// binding the runtime resolver uses, so a reference owned by the table
// being placed (or by a later one) is unbindable.
bool StaticallyBindable(const Catalog& catalog, const SelectPlan& plan,
                        size_t level, const ColumnRef& col) {
  const ColumnBinding b = BindColumn(catalog, plan, level, col);
  return b.bound() && static_cast<size_t>(b.slot) != level;
}

// Whether every equality column of the chosen index prefix can be bound at
// probe time — from a literal, or from a statically-resolvable join source.
// Conditions are tried in extraction order, like IndexScanOp::Rebind.
bool PrefixBindable(const Catalog& catalog, const SelectPlan& plan,
                    size_t level) {
  const TablePlan& tp = plan.tables[level];
  for (size_t k = 0; k < tp.access.eq_prefix_len; ++k) {
    const std::string& icol = tp.access.index.columns[k];
    bool bound = false;
    for (const ColumnCondition& c : tp.conditions) {
      if (c.column != icol || c.kind != ColumnCondition::kEq) continue;
      if (c.join_source.has_value() &&
          !StaticallyBindable(catalog, plan, level, *c.join_source)) {
        continue;
      }
      bound = true;
      break;
    }
    if (!bound) return false;
  }
  return true;
}

BuiltIndex* FindBuiltIndex(IndexManager* indexes, const TablePlan& tp) {
  if (!tp.access.use_index) return nullptr;
  for (BuiltIndex* bi : indexes->IndexesOnTable(tp.ref.table)) {
    if (bi->def() == tp.access.index) return bi;
  }
  return nullptr;
}

void NoteIndexUse(BuiltIndex* bi, PhysicalPlan* pp,
                  std::unordered_set<std::string>* seen) {
  bi->RecordUse();
  pp->used_index = true;
  const std::string name = bi->def().DisplayName();
  if (seen->insert(name).second) pp->indexes_used.push_back(name);
}

}  // namespace

std::unique_ptr<PhysicalPlan> LowerSelect(const SelectStatement& stmt,
                                          SelectPlan plan,
                                          const Catalog* catalog,
                                          IndexManager* indexes) {
  auto pp = std::make_unique<PhysicalPlan>();
  pp->logical = std::move(plan);
  pp->ctx = std::make_unique<ExecContext>();
  pp->ctx->catalog = catalog;
  ExecContext* ctx = pp->ctx.get();
  const SelectPlan& logical = pp->logical;
  const std::vector<TablePlan>& tables = logical.tables;

  std::unordered_set<std::string> seen_indexes;
  std::unique_ptr<PhysicalOperator> root;
  double outer_est_rows = 1.0;

  for (size_t level = 0; level < tables.size(); ++level) {
    const TablePlan& tp = tables[level];
    BuiltIndex* bi = FindBuiltIndex(indexes, tp);
    if (bi != nullptr) NoteIndexUse(bi, pp.get(), &seen_indexes);
    const bool index_bindable =
        bi != nullptr && PrefixBindable(*catalog, logical, level);

    if (level == 0) {
      if (index_bindable) {
        auto scan = std::make_unique<IndexScanOp>(ctx, logical, 0, bi);
        scan->set_estimates(tp.access.est_rows, tp.access.est_cost);
        root = std::move(scan);
      } else {
        auto scan = std::make_unique<SeqScanOp>(ctx, logical, 0);
        scan->set_estimates(tp.access.est_rows, tp.access.est_cost);
        root = std::move(scan);
      }
      outer_est_rows = tp.access.est_rows;
      continue;
    }

    const double join_est_rows =
        outer_est_rows * std::max(tp.access.est_match_rows, 0.0);
    const double join_est_cost = root->est_cost() + tp.access.est_cost;
    if (index_bindable) {
      auto inner = std::make_unique<IndexScanOp>(ctx, logical, level, bi);
      inner->set_estimates(tp.access.est_match_rows, tp.access.est_cost);
      auto join = std::make_unique<IndexNestedLoopJoinOp>(
          ctx, logical, level, std::move(root), std::move(inner));
      join->set_estimates(join_est_rows, join_est_cost);
      root = std::move(join);
    } else {
      // No index whose key prefix binds from the outer tuple: hash join on
      // the equality join conditions, or a cartesian nested loop when
      // there are none.
      std::vector<std::string> join_cols;
      std::vector<ColumnRef> join_sources;
      for (const ColumnCondition& c : tp.conditions) {
        if (c.join_source.has_value() && c.kind == ColumnCondition::kEq) {
          join_cols.push_back(c.column);
          join_sources.push_back(*c.join_source);
        }
      }
      auto inner = std::make_unique<SeqScanOp>(ctx, logical, level);
      inner->set_estimates(tp.access.est_rows, tp.access.est_cost);
      if (!join_cols.empty()) {
        auto join = std::make_unique<HashJoinOp>(
            ctx, logical, level, std::move(root), std::move(inner),
            std::move(join_cols), std::move(join_sources));
        join->set_estimates(join_est_rows, join_est_cost);
        root = std::move(join);
      } else {
        auto join = std::make_unique<NestedLoopJoinOp>(
            ctx, logical, level, std::move(root), std::move(inner));
        join->set_estimates(outer_est_rows * tp.access.est_rows,
                            join_est_cost);
        root = std::move(join);
      }
    }
    outer_est_rows = root->est_rows();
  }

  if (stmt.where != nullptr) {
    auto filter = std::make_unique<FilterOp>(ctx, logical, stmt.where.get(),
                                             std::move(root));
    filter->set_estimates(logical.est_result_rows,
                          logical.est_total_cost);
    root = std::move(filter);
  }

  const bool has_agg =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& it) { return it.agg != AggFunc::kNone; });

  if (has_agg) {
    auto agg = std::make_unique<HashAggregateOp>(
        ctx, logical, &stmt.items, &stmt.group_by, std::move(root));
    agg->set_estimates(logical.est_result_rows,
                       logical.est_total_cost);
    root = std::move(agg);
    if (!stmt.order_by.empty()) {
      // ORDER BY over grouped output: match order columns to select items
      // by name; unmatched columns are ignored (historical semantics).
      std::vector<std::pair<int, bool>> slot_keys;
      for (const OrderByItem& o : stmt.order_by) {
        for (size_t k = 0; k < stmt.items.size(); ++k) {
          if (!stmt.items[k].star &&
              stmt.items[k].column.column == o.column.column) {
            slot_keys.emplace_back(static_cast<int>(k), o.desc);
            break;
          }
        }
      }
      auto sort = std::make_unique<SortOp>(
          ctx, logical, &stmt.order_by, std::move(slot_keys),
          SortOp::Mode::kSlotKeys, std::move(root));
      sort->set_estimates(logical.est_result_rows,
                          logical.est_total_cost);
      root = std::move(sort);
    }
    if (stmt.limit >= 0) {
      const double capped =
          std::min(static_cast<double>(stmt.limit), root->est_rows());
      auto limit = std::make_unique<LimitOp>(
          static_cast<size_t>(stmt.limit), std::move(root));
      limit->set_estimates(capped, logical.est_total_cost);
      root = std::move(limit);
    }
  } else {
    if (!stmt.order_by.empty()) {
      auto sort = std::make_unique<SortOp>(ctx, logical, &stmt.order_by,
                                           std::vector<std::pair<int, bool>>{},
                                           SortOp::Mode::kTupleKeys,
                                           std::move(root));
      sort->set_estimates(logical.est_result_rows,
                          logical.est_total_cost);
      root = std::move(sort);
    }
    if (stmt.limit >= 0) {
      const double capped =
          std::min(static_cast<double>(stmt.limit), root->est_rows());
      auto limit = std::make_unique<LimitOp>(
          static_cast<size_t>(stmt.limit), std::move(root));
      limit->set_estimates(capped, logical.est_total_cost);
      root = std::move(limit);
    }
    auto project = std::make_unique<ProjectOp>(ctx, logical, &stmt.items,
                                               std::move(root));
    project->set_estimates(logical.est_result_rows,
                           logical.est_total_cost);
    root = std::move(project);
  }

  pp->root = std::move(root);
  return pp;
}

std::unique_ptr<PhysicalPlan> LowerWriteLookup(TablePlan tp,
                                               const Expr* where,
                                               const Catalog* catalog,
                                               IndexManager* indexes) {
  auto pp = std::make_unique<PhysicalPlan>();
  pp->logical.from.push_back(tp.ref);
  pp->logical.tables.push_back(std::move(tp));
  pp->logical.est_result_rows = pp->logical.tables[0].access.est_rows;
  pp->logical.est_total_cost = pp->logical.tables[0].access.est_cost;
  pp->ctx = std::make_unique<ExecContext>();
  pp->ctx->catalog = catalog;
  ExecContext* ctx = pp->ctx.get();
  const SelectPlan& logical = pp->logical;
  const TablePlan& t0 = logical.tables[0];

  BuiltIndex* bi = FindBuiltIndex(indexes, t0);
  std::unique_ptr<PhysicalOperator> root;
  // Write lookups bind key columns from literals only; an index without an
  // equality prefix cannot seed a probe, so fall back to a scan.
  if (bi != nullptr && t0.access.eq_prefix_len > 0) {
    std::unordered_set<std::string> seen;
    NoteIndexUse(bi, pp.get(), &seen);
    auto scan = std::make_unique<IndexScanOp>(ctx, logical, 0, bi);
    scan->set_estimates(t0.access.est_rows, t0.access.est_cost);
    root = std::move(scan);
  } else {
    auto scan = std::make_unique<SeqScanOp>(ctx, logical, 0);
    scan->set_estimates(t0.access.est_rows, t0.access.est_cost);
    root = std::move(scan);
  }
  if (where != nullptr) {
    auto filter =
        std::make_unique<FilterOp>(ctx, logical, where, std::move(root));
    filter->set_estimates(t0.access.est_rows, t0.access.est_cost);
    root = std::move(filter);
  }
  pp->root = std::move(root);
  return pp;
}

}  // namespace autoindex
