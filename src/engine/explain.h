#pragma once

#include <string>

#include "engine/database.h"
#include "sql/statement.h"

namespace autoindex {

// Renders the plan the engine would run for a statement under a given
// index configuration — access path per table (seq scan / index scan with
// the matched prefix / hash join / cartesian nested loop) in join order,
// each with the output rows and price the planner stored for its level.
// The estimated total is the plan's price, the cost the what-if model
// gives the tuner. The default config is the currently built index set.
//
//   EXPLAIN SELECT ... =>
//     -> index scan on orders via idx_orders_customer_id
//          prefix: customer_id = ?  (est. 10.0 rows, cost 12.4)
//     -> hash join to items on item_id = orders.item_id  (est. 10.0 rows,
//        cost 40.0)
//     estimated total cost: 52.4 (est. 10.0 result rows)
std::string ExplainStatement(const Database& db, const Statement& stmt);
std::string ExplainStatement(const Database& db, const Statement& stmt,
                             const IndexConfig& config);

// Parses and explains one SQL string.
StatusOr<std::string> ExplainSql(const Database& db, const std::string& sql);

// Renders an executed operator-tree snapshot: one line per operator with
// the planner's estimates next to the measured counters.
//
//   -> Project a, b  (est. 10.0 rows)  (actual: rows=10)
//     -> IndexScan on t via idx_t_a (eq prefix 1)  (est. 10.0 rows,
//        cost 12.4)  (actual: rows=10, heap_pages=3, index_pages=2, ...)
std::string RenderPlanSnapshot(const PlanNodeSnapshot& node);

// EXPLAIN ANALYZE: actually executes the statement, then renders the
// per-operator tree with estimated vs. measured rows/costs plus a footer
// with the statement's priced cost. Mutating statements DO mutate the
// database, like the real thing.
StatusOr<std::string> ExplainAnalyzeStatement(Database& db,
                                              const Statement& stmt);

// Parses and EXPLAIN ANALYZEs one SQL string.
StatusOr<std::string> ExplainAnalyzeSql(Database& db, const std::string& sql);

}  // namespace autoindex
