#include "engine/operators/lowering.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "engine/operators/join_ops.h"
#include "engine/operators/pipeline_ops.h"
#include "engine/operators/scan_ops.h"
#include "sql/dnf.h"

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

// The WHERE atoms no ColumnCondition of the plan holds. Every held atom is
// already checked at its own level (LocalConditionsOk/JoinConditionsOk),
// where each of its columns binds to the same row as at the top of the
// plan. What is left: OR/NOT subtrees, same-table column comparisons,
// atoms over unbound columns — or the whole WHERE when it is not a plain
// conjunction.
std::vector<const Expr*> ResidualAtoms(const SelectPlan& plan,
                                       const Expr* where) {
  std::vector<const Expr*> atoms;
  if (where == nullptr) return atoms;
  if (!ExtractConjunctionAtoms(*where, &atoms)) return {where};
  auto held = [&](const Expr* atom) {
    for (const TablePlan& tp : plan.tables) {
      for (const ColumnCondition& c : tp.conditions) {
        if (c.atom == atom) return true;
      }
    }
    return false;
  };
  atoms.erase(std::remove_if(atoms.begin(), atoms.end(), held), atoms.end());
  return atoms;
}

// The left-deep join chain over pp->logical.tables, under a Filter over
// the residual WHERE atoms when there are any. Scans and joins carry the
// planner's estimates: a scan its access path's (per probe for an index
// join's inner side), a join its level's price and output rows.
std::unique_ptr<PhysicalOperator> LowerJoinChain(PhysicalPlan* pp,
                                                 const Expr* where,
                                                 const Catalog* catalog,
                                                 IndexManager* indexes) {
  ExecContext* ctx = pp->ctx.get();
  const SelectPlan& logical = pp->logical;
  std::unordered_set<std::string> seen_indexes;
  std::unique_ptr<PhysicalOperator> root;

  for (size_t level = 0; level < logical.tables.size(); ++level) {
    const TablePlan& tp = logical.tables[level];
    BuiltIndex* bi = FindBuiltIndex(indexes, tp);
    if (bi != nullptr) NoteIndexUse(bi, pp, &seen_indexes);
    const bool index_bindable =
        bi != nullptr && PrefixBindable(*catalog, logical, level);

    if (level == 0) {
      if (index_bindable) {
        root = std::make_unique<IndexScanOp>(ctx, logical, 0, bi);
      } else {
        root = std::make_unique<SeqScanOp>(ctx, logical, 0);
      }
      root->set_estimates(tp.access.est_rows, tp.access.est_cost);
      continue;
    }

    if (index_bindable) {
      auto inner = std::make_unique<IndexScanOp>(ctx, logical, level, bi);
      inner->set_estimates(tp.access.est_match_rows, tp.access.est_cost);
      root = std::make_unique<IndexNestedLoopJoinOp>(
          ctx, logical, level, std::move(root), std::move(inner));
    } else {
      // No index whose key prefix binds from the outer tuple: hash join on
      // the equality join conditions, or a cartesian nested loop when
      // there are none.
      auto inner = std::make_unique<SeqScanOp>(ctx, logical, level);
      inner->set_estimates(tp.access.est_rows, tp.access.est_cost);
      if (tp.equi_join) {
        root = std::make_unique<HashJoinOp>(ctx, logical, level,
                                            std::move(root), std::move(inner));
      } else {
        root = std::make_unique<NestedLoopJoinOp>(
            ctx, logical, level, std::move(root), std::move(inner));
      }
    }
    root->set_estimates(tp.est_rows_out, tp.est_io + tp.est_cpu);
  }

  std::vector<const Expr*> residual = ResidualAtoms(logical, where);
  if (residual.empty()) return root;
  // The planner does not price residual atoms: the Filter shows the
  // estimates of the chain it sits on.
  const double rows = root->est_rows();
  const double cost = root->est_cost();
  auto filter = std::make_unique<FilterOp>(ctx, logical, std::move(residual),
                                           std::move(root));
  filter->set_estimates(rows, cost);
  return filter;
}

// ORDER BY over grouped output: each order column matched to a select
// item by name, as (item slot, desc); unmatched columns are ignored
// (historical semantics).
std::vector<std::pair<int, bool>> GroupedSortKeys(
    const SelectStatement& stmt) {
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
  return slot_keys;
}

std::unique_ptr<PhysicalPlan> NewPhysicalPlan(const Catalog* catalog) {
  auto pp = std::make_unique<PhysicalPlan>();
  pp->ctx = std::make_unique<ExecContext>();
  pp->ctx->catalog = catalog;
  return pp;
}

}  // namespace

std::unique_ptr<PhysicalPlan> LowerSelect(const SelectStatement& stmt,
                                          SelectPlan plan,
                                          const Catalog* catalog,
                                          IndexManager* indexes) {
  std::unique_ptr<PhysicalPlan> pp = NewPhysicalPlan(catalog);
  pp->logical = std::move(plan);
  ExecContext* ctx = pp->ctx.get();
  const SelectPlan& logical = pp->logical;
  std::unique_ptr<PhysicalOperator> root =
      LowerJoinChain(pp.get(), stmt.where.get(), catalog, indexes);

  // Everything above the join chain sees the whole result: the plan's
  // result rows and price.
  auto estimated = [&](std::unique_ptr<PhysicalOperator> op) {
    op->set_estimates(logical.est_result_rows, logical.est_cost.CData());
    return op;
  };
  const bool has_agg =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& it) { return it.agg != AggFunc::kNone; });
  if (has_agg) {
    root = estimated(std::make_unique<HashAggregateOp>(
        ctx, logical, &stmt.items, &stmt.group_by, std::move(root)));
  }
  if (!stmt.order_by.empty()) {
    root = estimated(std::make_unique<SortOp>(
        ctx, logical, &stmt.order_by,
        has_agg ? GroupedSortKeys(stmt) : std::vector<std::pair<int, bool>>{},
        has_agg ? SortOp::Mode::kSlotKeys : SortOp::Mode::kTupleKeys,
        std::move(root)));
  }
  if (stmt.limit >= 0) {
    root = std::make_unique<LimitOp>(static_cast<size_t>(stmt.limit),
                                     std::move(root));
  }
  if (!has_agg) {
    root = estimated(std::make_unique<ProjectOp>(ctx, logical, &stmt.items,
                                                 std::move(root)));
  }
  pp->root = std::move(root);
  return pp;
}

std::unique_ptr<PhysicalPlan> LowerWriteLookup(TablePlan tp,
                                               const Expr* where,
                                               const Catalog* catalog,
                                               IndexManager* indexes) {
  std::unique_ptr<PhysicalPlan> pp = NewPhysicalPlan(catalog);
  pp->logical.from.push_back(tp.ref);
  pp->logical.tables.push_back(std::move(tp));
  pp->root = LowerJoinChain(pp.get(), where, catalog, indexes);
  return pp;
}

}  // namespace autoindex
