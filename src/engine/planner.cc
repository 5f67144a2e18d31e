#include "engine/planner.h"

#include <algorithm>
#include <cmath>

#include "sql/dnf.h"
#include "util/string_util.h"

namespace autoindex {

int ResolveColumnTable(const ColumnRef& col,
                       const std::vector<TableRef>& from,
                       const Catalog& catalog, int* ordinal) {
  for (size_t i = 0; i < from.size(); ++i) {
    if (!col.table.empty() && col.table != from[i].alias &&
        col.table != from[i].table) {
      continue;
    }
    const HeapTable* t = catalog.GetTable(from[i].table);
    const int ord = t == nullptr ? -1 : t->schema().FindColumn(col.column);
    if (ord < 0) continue;
    if (ordinal != nullptr) *ordinal = ord;
    return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::vector<ColumnCondition>> Planner::ExtractConditions(
    const Expr* where, const std::vector<TableRef>& from,
    const std::vector<bool>& placed) const {
  std::vector<std::vector<ColumnCondition>> conditions(from.size());
  if (where == nullptr) return conditions;
  std::vector<const Expr*> atoms;
  if (!ExtractConjunctionAtoms(*where, &atoms)) {
    // OR at the top level: no sargable conjuncts; the executor filters with
    // the full predicate. (DNF-based candidate generation still sees the
    // ORs — this only affects access-path choice.)
    return conditions;
  }
  auto owner = [&](const ColumnRef& col) {
    return ResolveColumnTable(col, from, *catalog_);
  };
  // -1 (no owner) is neither placed nor unplaced.
  auto is_placed = [&](int table) {
    return table >= 0 && placed[static_cast<size_t>(table)];
  };
  auto is_unplaced = [&](int table) {
    return table >= 0 && !placed[static_cast<size_t>(table)];
  };
  // The conditions of `col`'s owner, or null when the column is unbound or
  // its owner already placed.
  auto conditions_of = [&](const ColumnRef& col) {
    const int table = owner(col);
    return is_unplaced(table) ? &conditions[static_cast<size_t>(table)]
                              : nullptr;
  };
  auto add_join = [&](int table, const ColumnRef& col,
                      const ColumnRef& source, const Expr* atom) {
    ColumnCondition c;
    c.column = col.column;
    c.kind = ColumnCondition::kEq;
    c.join_source = source;
    c.atom = atom;
    conditions[static_cast<size_t>(table)].push_back(std::move(c));
  };
  for (const Expr* atom : atoms) {
    if (atom->kind == ExprKind::kCompare) {
      const Expr& lhs = *atom->children[0];
      const Expr& rhs = *atom->children[1];
      // column = column with one side owned by a placed table -> join
      // condition of the other side's (unplaced) owner.
      if (lhs.kind == ExprKind::kColumn && rhs.kind == ExprKind::kColumn &&
          atom->op == CompareOp::kEq) {
        const int lo = owner(lhs.column);
        const int ro = owner(rhs.column);
        if (is_unplaced(lo) && is_placed(ro)) {
          add_join(lo, lhs.column, rhs.column, atom);
        } else if (is_unplaced(ro) && is_placed(lo)) {
          add_join(ro, rhs.column, lhs.column, atom);
        }
        continue;
      }
      // column <op> literal (either side).
      const Expr* col_side = nullptr;
      const Expr* lit_side = nullptr;
      CompareOp op = atom->op;
      if (lhs.kind == ExprKind::kColumn && rhs.kind == ExprKind::kLiteral) {
        col_side = &lhs;
        lit_side = &rhs;
      } else if (lhs.kind == ExprKind::kLiteral &&
                 rhs.kind == ExprKind::kColumn) {
        col_side = &rhs;
        lit_side = &lhs;
        op = SwapCompareOp(op);
      } else {
        continue;
      }
      std::vector<ColumnCondition>* out = conditions_of(col_side->column);
      if (out == nullptr) continue;
      ColumnCondition c;
      c.column = col_side->column.column;
      c.literal = lit_side->literal;
      c.atom = atom;
      switch (op) {
        case CompareOp::kEq:
          c.kind = ColumnCondition::kEq;
          break;
        case CompareOp::kGt:
          c.kind = ColumnCondition::kRangeLo;
          c.inclusive = false;
          break;
        case CompareOp::kGe:
          c.kind = ColumnCondition::kRangeLo;
          c.inclusive = true;
          break;
        case CompareOp::kLt:
          c.kind = ColumnCondition::kRangeHi;
          c.inclusive = false;
          break;
        case CompareOp::kLe:
          c.kind = ColumnCondition::kRangeHi;
          c.inclusive = true;
          break;
        default:
          c.kind = ColumnCondition::kOther;
          break;
      }
      out->push_back(std::move(c));
    } else if (atom->kind == ExprKind::kBetween &&
               atom->children[0]->kind == ExprKind::kColumn) {
      const ColumnRef& col = atom->children[0]->column;
      std::vector<ColumnCondition>* out = conditions_of(col);
      if (out == nullptr) continue;
      ColumnCondition lo;
      lo.column = col.column;
      lo.kind = ColumnCondition::kRangeLo;
      lo.literal = atom->children[1]->literal;
      lo.atom = atom;
      out->push_back(std::move(lo));
      ColumnCondition hi;
      hi.column = col.column;
      hi.kind = ColumnCondition::kRangeHi;
      hi.literal = atom->children[2]->literal;
      hi.atom = atom;
      out->push_back(std::move(hi));
    } else if (atom->kind == ExprKind::kInList && !atom->negated &&
               atom->children[0]->kind == ExprKind::kColumn) {
      const ColumnRef& col = atom->children[0]->column;
      std::vector<ColumnCondition>* out = conditions_of(col);
      if (out == nullptr) continue;
      ColumnCondition c;
      c.column = col.column;
      c.kind = ColumnCondition::kIn;
      c.in_values = atom->in_list;
      c.atom = atom;
      out->push_back(std::move(c));
    }
  }
  return conditions;
}

double Planner::EstimateConditionSelectivity(
    const std::string& table, const ColumnCondition& cond) const {
  const std::shared_ptr<const ColumnStats> stats =
      stats_->GetColumnStats(table, cond.column);
  switch (cond.kind) {
    case ColumnCondition::kEq:
      if (cond.join_source.has_value()) {
        // Join equality: one match per distinct key on average.
        return stats != nullptr && stats->num_distinct() > 0
                   ? 1.0 / static_cast<double>(stats->num_distinct())
                   : 0.01;
      }
      return stats != nullptr ? stats->Selectivity(CompareOp::kEq, cond.literal)
                              : 0.01;
    case ColumnCondition::kRangeLo:
      return stats != nullptr
                 ? stats->Selectivity(
                       cond.inclusive ? CompareOp::kGe : CompareOp::kGt,
                       cond.literal)
                 : 0.33;
    case ColumnCondition::kRangeHi:
      return stats != nullptr
                 ? stats->Selectivity(
                       cond.inclusive ? CompareOp::kLe : CompareOp::kLt,
                       cond.literal)
                 : 0.33;
    case ColumnCondition::kIn:
      return stats != nullptr ? stats->InListSelectivity(cond.in_values) : 0.1;
    case ColumnCondition::kOther:
      return 0.5;
  }
  return 0.5;
}

double Planner::EstimateHeapFetchPages(const std::string& table,
                                       const std::string& column,
                                       double match_rows) const {
  const HeapTable* t = catalog_->GetTable(table);
  if (t == nullptr) return match_rows;
  const double table_pages = static_cast<double>(t->NumPages());
  const double random_pages = std::min(table_pages, match_rows);
  const double clustered_pages = std::max(
      1.0, match_rows / static_cast<double>(t->RowsPerPage()));
  const std::shared_ptr<const ColumnStats> stats =
      stats_->GetColumnStats(table, column);
  const double corr = stats == nullptr ? 0.0 : stats->correlation();
  const double corr2 = corr * corr;
  return corr2 * clustered_pages + (1.0 - corr2) * random_pages;
}

AccessDecision Planner::ChooseAccessPath(
    const std::string& table,
    const std::vector<ColumnCondition>& conditions,
    const std::vector<IndexStatsView>& table_indexes) const {
  const HeapTable* t = catalog_->GetTable(table);
  AccessDecision best;
  const double table_rows =
      t == nullptr ? 0.0 : static_cast<double>(t->num_rows());
  const double table_pages =
      t == nullptr ? 0.0 : static_cast<double>(t->NumPages());

  // Selectivity of ALL table-local conditions (applies to any path).
  double full_sel = 1.0;
  for (const ColumnCondition& c : conditions) {
    full_sel *= EstimateConditionSelectivity(table, c);
  }
  const double result_rows = std::max(0.0, table_rows * full_sel);

  // Sequential scan baseline.
  best.use_index = false;
  best.est_rows = result_rows;
  best.est_match_rows = table_rows;
  best.est_cost = table_pages * params_.seq_page_cost +
                  table_rows * params_.cpu_tuple_cost;

  // Index paths: match the longest leading equality prefix, optionally one
  // range on the next column (classic B+Tree sargability).
  for (const IndexStatsView& view : table_indexes) {
    size_t eq_len = 0;
    double prefix_sel = 1.0;
    bool has_range = false;
    for (const std::string& icol : view.def.columns) {
      const ColumnCondition* eq = nullptr;
      const ColumnCondition* range = nullptr;
      for (const ColumnCondition& c : conditions) {
        if (c.column != icol) continue;
        if (c.kind == ColumnCondition::kEq) eq = &c;
        if (c.kind == ColumnCondition::kRangeLo ||
            c.kind == ColumnCondition::kRangeHi) {
          range = &c;
        }
      }
      if (eq != nullptr) {
        prefix_sel *= EstimateConditionSelectivity(table, *eq);
        ++eq_len;
        continue;
      }
      if (range != nullptr) {
        // Combine every range condition on this column.
        double range_sel = 1.0;
        for (const ColumnCondition& c : conditions) {
          if (c.column == icol && (c.kind == ColumnCondition::kRangeLo ||
                                   c.kind == ColumnCondition::kRangeHi)) {
            range_sel *= EstimateConditionSelectivity(table, c);
          }
        }
        prefix_sel *= range_sel;
        has_range = true;
      }
      break;  // prefix broken
    }
    if (eq_len == 0 && !has_range) continue;  // unusable index

    const double match_rows = std::max(1.0, table_rows * prefix_sel);
    const double height = static_cast<double>(view.height);
    // Local indexes pay one descent per partition unless an equality on
    // the partition column pins the shard (Sec. III index type selection).
    double descents = 1.0;
    if (view.partitions > 1 && t != nullptr && t->partitioned()) {
      const std::string& pcol =
          t->schema()
              .column(static_cast<size_t>(t->partition_column()))
              .name;
      bool pruned = false;
      for (const ColumnCondition& c : conditions) {
        if (c.column == pcol && c.kind == ColumnCondition::kEq) {
          pruned = true;
          break;
        }
      }
      if (!pruned) descents = static_cast<double>(view.partitions);
    }
    // Index descent + leaf traversal + heap fetches blended by physical
    // correlation; classic what-if costing.
    const double leaf_pages =
        std::max(1.0, match_rows / static_cast<double>(LeafCapacityForWidth(
                          t == nullptr ? 8 : view.def.KeyWidth(t->schema()))));
    const double heap_pages =
        EstimateHeapFetchPages(table, view.def.columns[0], match_rows);
    double cost = (descents * height + leaf_pages) * params_.random_page_cost +
                  heap_pages * params_.random_page_cost +
                  match_rows * (params_.cpu_index_tuple_cost +
                                params_.cpu_tuple_cost);
    if (cost < best.est_cost) {
      best.use_index = true;
      best.index = view.def;
      best.eq_prefix_len = eq_len;
      best.has_range = has_range;
      best.est_rows = result_rows;
      best.est_match_rows = match_rows;
      best.est_cost = cost;
    }
  }
  return best;
}

StatusOr<SelectPlan> Planner::PlanSelect(
    const SelectStatement& stmt,
    const std::vector<IndexStatsView>& config) const {
  SelectPlan plan;
  if (stmt.from.empty()) {
    return Status::InvalidArgument("SELECT without FROM");
  }
  for (const TableRef& ref : stmt.from) {
    if (catalog_->GetTable(ref.table) == nullptr) {
      return Status::NotFound("no such table: " + ref.table);
    }
  }

  // Greedy join ordering: repeatedly pick the unplaced table with the
  // smallest estimated cardinality among those connected to the placed set
  // (or any table when none is connected yet / first pick).
  const size_t n = stmt.from.size();
  plan.from = stmt.from;
  std::vector<bool> placed(n, false);
  for (size_t step = 0; step < n; ++step) {
    int best_idx = -1;
    double best_card = 0.0;
    bool best_connected = false;
    std::vector<ColumnCondition> best_conditions;
    std::vector<std::vector<ColumnCondition>> conditions =
        ExtractConditions(stmt.where.get(), stmt.from, placed);
    for (size_t i = 0; i < n; ++i) {
      if (placed[i]) continue;
      const TableRef& ref = stmt.from[i];
      std::vector<ColumnCondition>& conds = conditions[i];
      bool connected = false;
      double sel = 1.0;
      for (const ColumnCondition& c : conds) {
        if (c.join_source.has_value()) connected = true;
        sel *= EstimateConditionSelectivity(ref.table, c);
      }
      const HeapTable* t = catalog_->GetTable(ref.table);
      const double card = std::max(1.0, t->num_rows() * sel);
      // Prefer connected tables after the first placement to avoid
      // cartesian products; among candidates pick the smallest output.
      // The first unplaced table is always a candidate, so a disconnected
      // remainder is joined in FROM order.
      const bool better =
          best_idx < 0 ||
          (connected && !best_connected) ||
          (connected == best_connected && card < best_card);
      if ((step == 0 || connected || best_idx < 0) && better) {
        best_idx = static_cast<int>(i);
        best_card = card;
        best_connected = connected;
        best_conditions = std::move(conds);
      }
    }
    placed[best_idx] = true;
    TablePlan tp;
    tp.ref = stmt.from[best_idx];
    tp.from_index = static_cast<size_t>(best_idx);
    tp.conditions = std::move(best_conditions);
    // Index config entries for this table.
    std::vector<IndexStatsView> table_indexes;
    for (const IndexStatsView& v : config) {
      if (v.def.table == tp.ref.table) table_indexes.push_back(v);
    }
    tp.access = ChooseAccessPath(tp.ref.table, tp.conditions, table_indexes);
    plan.tables.push_back(std::move(tp));
  }

  // Estimated cost: outer cardinality times inner access cost per level.
  // ChooseAccessPath prices a single probe; here, with the outer
  // cardinality known, a join level's index choice is revisited against
  // the hash-join alternative (build once + cheap probes) — otherwise
  // per-tuple random index descents get chosen even when thousands of
  // probes would dwarf one build scan.
  double outer_rows = 1.0;
  double total = 0.0;
  for (TablePlan& tp : plan.tables) {
    bool has_join = false;
    for (const ColumnCondition& c : tp.conditions) {
      if (c.join_source.has_value() &&
          c.kind == ColumnCondition::kEq) {
        has_join = true;
      }
    }
    if (tp.access.use_index && has_join && outer_rows > 1.0) {
      const HeapTable* t = catalog_->GetTable(tp.ref.table);
      const double index_total = outer_rows * tp.access.est_cost;
      const double hash_total =
          t->NumPages() * params_.seq_page_cost +
          t->num_rows() * params_.cpu_tuple_cost +
          outer_rows * params_.cpu_operator_cost;
      if (hash_total < index_total) tp.access.use_index = false;
    }
    if (tp.access.use_index || !has_join) {
      total += outer_rows * tp.access.est_cost;
    } else {
      // Hash join: build once, probe per outer row.
      const HeapTable* t = catalog_->GetTable(tp.ref.table);
      total += t->NumPages() * params_.seq_page_cost +
               t->num_rows() * params_.cpu_tuple_cost +
               outer_rows * params_.cpu_operator_cost;
    }
    // est_rows already folds the join-equality selectivity (1/distinct),
    // so expected matches per outer row times outer cardinality is simply
    // the product.
    outer_rows = std::max(1.0, outer_rows * tp.access.est_rows);
  }
  plan.est_result_rows = outer_rows;
  plan.est_total_cost = total;
  return plan;
}

StatusOr<TablePlan> Planner::PlanWriteLookup(
    const std::string& table, const Expr* where,
    const std::vector<IndexStatsView>& config) const {
  if (catalog_->GetTable(table) == nullptr) {
    return Status::NotFound("no such table: " + table);
  }
  TablePlan tp;
  tp.ref = TableRef(table);
  tp.conditions = std::move(ExtractConditions(where, {tp.ref}, {false})[0]);
  std::vector<IndexStatsView> table_indexes;
  for (const IndexStatsView& v : config) {
    if (v.def.table == ToLower(table)) table_indexes.push_back(v);
  }
  tp.access = ChooseAccessPath(table, tp.conditions, table_indexes);
  return tp;
}

}  // namespace autoindex
