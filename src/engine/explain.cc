#include "engine/explain.h"

#include "engine/planner.h"
#include "sql/parser.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

// One join level as the planner priced it. `rows` and `cost` are the
// level's output rows and price for a SELECT, the access path's for a
// write lookup.
std::string DescribeLevel(const TablePlan& tp, size_t level, double rows,
                          double cost) {
  const std::string est = StrFormat("(est. %.1f rows, cost %.1f)", rows, cost);
  const char* alias = tp.ref.alias.c_str();
  if (tp.access.use_index) {
    std::vector<std::string> bound;
    for (size_t k = 0; k < tp.access.eq_prefix_len; ++k) {
      bound.push_back(tp.access.index.columns[k] + " = ?");
    }
    if (tp.access.has_range &&
        tp.access.eq_prefix_len < tp.access.index.columns.size()) {
      bound.push_back(tp.access.index.columns[tp.access.eq_prefix_len] +
                      " range");
    }
    return StrFormat("-> index scan on %s via %s\n     prefix: %s  %s\n",
                     alias, tp.access.index.DisplayName().c_str(),
                     Join(bound, ", ").c_str(), est.c_str());
  }
  if (tp.equi_join) {
    std::vector<std::string> keys;
    for (const ColumnCondition& c : tp.conditions) {
      if (c.join_source.has_value()) {
        keys.push_back(c.column + " = " + c.join_source->ToString());
      }
    }
    return StrFormat("-> hash join to %s on %s  %s\n", alias,
                     Join(keys, ", ").c_str(), est.c_str());
  }
  if (level > 0) {
    return StrFormat("-> nested loop join to %s (cartesian)  %s\n", alias,
                     est.c_str());
  }
  return StrFormat("-> seq scan on %s  %s\n", alias, est.c_str());
}

}  // namespace

std::string ExplainStatement(const Database& db, const Statement& stmt,
                             const IndexConfig& config) {
  Planner planner(const_cast<Catalog*>(&db.catalog()),
                  const_cast<StatsManager*>(
                      &const_cast<Database&>(db).stats_manager()),
                  db.params());
  const std::vector<IndexStatsView> views =
      config.ToStatsViews(db.catalog());
  std::string out;
  switch (stmt.kind) {
    case StatementKind::kSelect: {
      StatusOr<SelectPlan> plan = planner.PlanSelect(*stmt.select, views);
      if (!plan.ok()) return "error: " + plan.status().ToString();
      for (size_t i = 0; i < plan->tables.size(); ++i) {
        const TablePlan& tp = plan->tables[i];
        out += DescribeLevel(tp, i, tp.est_rows_out, tp.est_io + tp.est_cpu);
      }
      if (!stmt.select->group_by.empty()) out += "-> hash aggregate\n";
      if (!stmt.select->order_by.empty()) out += "-> sort\n";
      out += StrFormat("estimated total cost: %.1f (est. %.1f result rows)\n",
                       plan->est_cost.CData(), plan->est_result_rows);
      return out;
    }
    case StatementKind::kUpdate:
    case StatementKind::kDelete: {
      const std::string table = stmt.kind == StatementKind::kUpdate
                                    ? stmt.update->table
                                    : stmt.del->table;
      StatusOr<TablePlan> tp =
          planner.PlanWriteLookup(table, stmt.where(), views);
      if (!tp.ok()) return "error: " + tp.status().ToString();
      out += DescribeLevel(*tp, 0, tp->access.est_rows, tp->access.est_cost);
      out += stmt.kind == StatementKind::kUpdate ? "-> update rows\n"
                                                 : "-> delete rows\n";
      return out;
    }
    case StatementKind::kInsert:
      out += StrFormat("-> insert into %s (%zu rows)\n",
                       stmt.insert->table.c_str(), stmt.insert->rows.size());
      return out;
  }
  return out;
}

std::string ExplainStatement(const Database& db, const Statement& stmt) {
  return ExplainStatement(db, stmt, db.CurrentConfig());
}

StatusOr<std::string> ExplainSql(const Database& db,
                                 const std::string& sql) {
  StatusOr<Statement> stmt = ParseSql(sql);
  if (!stmt.ok()) return stmt.status();
  return ExplainStatement(db, *stmt);
}

namespace {

void RenderSnapshotNode(const PlanNodeSnapshot& n, size_t depth,
                        std::string* out) {
  out->append(2 * depth, ' ');
  *out += StrFormat("-> %s %s  (est. %.1f rows, cost %.1f)", n.op.c_str(),
                    n.detail.c_str(), n.est_rows, n.est_cost);
  *out += StrFormat("  (actual: rows=%lld",
                    static_cast<long long>(n.actual.rows_out));
  const struct {
    const char* label;
    int64_t value;
  } counters[] = {
      {"heap_pages", n.actual.heap_pages_read},
      {"index_pages", n.actual.index_pages_read},
      {"tuples", n.actual.tuples_examined},
      {"index_tuples", n.actual.index_tuples_read},
      {"sort_rows", n.actual.sort_rows},
      {"comparisons", n.actual.comparisons},
  };
  for (const auto& c : counters) {
    if (c.value != 0) {
      *out += StrFormat(", %s=%lld", c.label,
                        static_cast<long long>(c.value));
    }
  }
  *out += ")\n";
  for (const PlanNodeSnapshot& child : n.children) {
    RenderSnapshotNode(child, depth + 1, out);
  }
}

}  // namespace

std::string RenderPlanSnapshot(const PlanNodeSnapshot& node) {
  std::string out;
  RenderSnapshotNode(node, 0, &out);
  return out;
}

StatusOr<std::string> ExplainAnalyzeStatement(Database& db,
                                              const Statement& stmt) {
  StatusOr<ExecResult> result = db.Execute(stmt);
  if (!result.ok()) return result.status();
  std::string out;
  if (result->plan.has_value()) {
    out += RenderPlanSnapshot(*result->plan);
  } else {
    // INSERT has no read pipeline; show the logical shape instead.
    out += ExplainStatement(db, stmt);
  }
  const CostBreakdown cost = result->stats.ToCost(db.params());
  out += StrFormat("measured cost: %.1f (%zu rows)\n", cost.Total(),
                   result->stats.rows_returned);
  if (!result->feedback.empty()) {
    out += "feedback:\n";
    for (const AccessPathFeedback& fb : result->feedback) {
      out += StrFormat(
          "  %s via %s: est %.1f rows / %.1f cost, actual %.1f rows / %.1f "
          "cost\n",
          fb.table.c_str(),
          fb.index.empty() ? "seq scan" : fb.index.c_str(), fb.est_rows,
          fb.est_cost, fb.actual_rows, fb.actual_cost);
    }
  }
  return out;
}

StatusOr<std::string> ExplainAnalyzeSql(Database& db,
                                        const std::string& sql) {
  StatusOr<Statement> stmt = ParseSql(sql);
  if (!stmt.ok()) return stmt.status();
  return ExplainAnalyzeStatement(db, *stmt);
}

}  // namespace autoindex
