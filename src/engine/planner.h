#pragma once

#include <optional>
#include <string>
#include <vector>

#include "engine/cost_model.h"
#include "index/index_manager.h"
#include "sql/statement.h"
#include "stats/stats_manager.h"

namespace autoindex {

// One atomic condition on a column of a specific table, extracted from the
// WHERE conjunction. `join_source` marks equality with a column owned by a
// table earlier in the join order (the value becomes known per outer
// tuple).
struct ColumnCondition {
  std::string column;
  enum Kind { kEq, kRangeLo, kRangeHi, kIn, kOther } kind = kOther;
  bool inclusive = true;            // for ranges
  Value literal;                    // for kEq/kRangeLo/kRangeHi
  std::vector<Value> in_values;     // for kIn
  std::optional<ColumnRef> join_source;  // equality with an earlier table
  const Expr* atom = nullptr;       // borrowed pointer into the statement
};

// The planner's choice for accessing one table.
struct AccessDecision {
  bool use_index = false;
  IndexDef index;           // valid when use_index
  size_t eq_prefix_len = 0; // leading index columns bound by equality
  bool has_range = false;   // range bound on the column after the prefix
  double est_rows = 0.0;    // rows surviving all table-local predicates
  double est_match_rows = 0.0;  // rows fetched via the index prefix
  double est_cost = 0.0;    // access-path cost (read side only)
};

// Per-table information the planner derives for a SELECT.
struct TablePlan {
  TableRef ref;
  size_t from_index = 0;  // position of `ref` in the statement's FROM list
  std::vector<ColumnCondition> conditions;  // all table-local conditions
  AccessDecision access;
};

// A left-deep plan over the FROM list (joined in `tables` order). `from`
// keeps the FROM order, which decides column ownership
// (ResolveColumnTable).
struct SelectPlan {
  std::vector<TableRef> from;
  std::vector<TablePlan> tables;
  double est_total_cost = 0.0;
  double est_result_rows = 0.0;
};

// Builds access plans from statistics only — usable both for real
// execution (config = built indexes) and what-if estimation (config
// includes hypothetical indexes). Stateless apart from borrowed managers.
class Planner {
 public:
  Planner(Catalog* catalog, StatsManager* stats, const CostParams& params)
      : catalog_(catalog), stats_(stats), params_(params) {}

  // Plans a SELECT against the given per-table index configurations.
  // `config` maps each table (by real name) to the indexes assumed
  // available. Join order: tables are greedily ordered by estimated
  // filtered cardinality, except that tables only reachable by join
  // predicates follow their producers.
  StatusOr<SelectPlan> PlanSelect(
      const SelectStatement& stmt,
      const std::vector<IndexStatsView>& config) const;

  // Plans the row-location part of UPDATE/DELETE (single table).
  StatusOr<TablePlan> PlanWriteLookup(
      const std::string& table, const Expr* where,
      const std::vector<IndexStatsView>& config) const;

  // Chooses the cheapest access path for one table given its conditions.
  AccessDecision ChooseAccessPath(
      const std::string& table,
      const std::vector<ColumnCondition>& conditions,
      const std::vector<IndexStatsView>& table_indexes) const;

  // Splits a WHERE conjunction into per-table conditions, indexed like
  // `from`: each atom goes to the table that owns its column
  // (ResolveColumnTable). `placed[i]` marks from[i] as already in the join
  // order; placed tables get no conditions, and a column equality becomes
  // a join condition of the unplaced side when the other side's owner is
  // placed.
  std::vector<std::vector<ColumnCondition>> ExtractConditions(
      const Expr* where, const std::vector<TableRef>& from,
      const std::vector<bool>& placed) const;

  // Expected heap pages fetched for `match_rows` rows located via an index
  // whose leading column is `column`. Interpolates between the clustered
  // (contiguous pages) and random (one page per row) extremes with the
  // column's physical correlation squared — the PostgreSQL approach.
  double EstimateHeapFetchPages(const std::string& table,
                                const std::string& column,
                                double match_rows) const;

  const CostParams& params() const { return params_; }

 private:
  double EstimateConditionSelectivity(const std::string& table,
                                      const ColumnCondition& cond) const;

  Catalog* catalog_;
  StatsManager* stats_;
  CostParams params_;
};

// The one rule for which table a column reference belongs to: the first
// FROM entry whose schema has the column and, when the reference is
// qualified, whose alias or real name matches the qualifier. Returns that
// entry's index, or -1 when no entry matches (the reference is unbound).
// The answer depends on the statement alone, never on the join order.
// When `ordinal` is non-null it receives the column's position in the
// owner's schema.
int ResolveColumnTable(const ColumnRef& col,
                       const std::vector<TableRef>& from,
                       const Catalog& catalog, int* ordinal = nullptr);

}  // namespace autoindex
