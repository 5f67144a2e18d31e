#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/operators/operator.h"
#include "index/index_manager.h"

namespace autoindex {

// An executable physical plan: the operator tree plus the state it borrows.
// The logical plan is owned here because operators keep references into
// it (FROM list, conditions, access decisions) for their lifetime.
struct PhysicalPlan {
  SelectPlan logical;
  std::unique_ptr<ExecContext> ctx;
  std::unique_ptr<PhysicalOperator> root;
  // Display names of the real indexes this plan probes, deduplicated, in
  // plan (join) order — a self-join probing one index twice lists it once.
  std::vector<std::string> indexes_used;
  bool used_index = false;
};

// Lowers a planned SELECT into a physical operator tree:
//
//   Project / HashAggregate [+ Sort] [+ Limit]
//     Filter                       (residual WHERE atoms, when any)
//       join chain                 (left-deep, one operator per level)
//         SeqScan | IndexScan      (leftmost table)
//
// Join levels become IndexNestedLoopJoin when the planner chose an index
// whose key prefix is statically bindable from the outer tuple, HashJoin
// when the level is an equi-join (TablePlan::equi_join), and a cartesian
// NestedLoopJoin otherwise. Each level's scan or join applies the WHERE
// atoms its ColumnConditions hold; the Filter holds only the rest.
// Estimates are copied from the plan, never recomputed. Side effects
// mirror execution: each probed index gets RecordUse() here, once per
// level.
std::unique_ptr<PhysicalPlan> LowerSelect(const SelectStatement& stmt,
                                          SelectPlan plan,
                                          const Catalog* catalog,
                                          IndexManager* indexes);

// Lowers the row-location part of UPDATE/DELETE the way LowerSelect lowers
// its leftmost table: an IndexScan when the planner chose a built index
// (equality prefix or range), else a SeqScan, under a Filter over the
// residual WHERE atoms when there are any. Matched RowIds surface through
// ExecTuple::rids.
std::unique_ptr<PhysicalPlan> LowerWriteLookup(TablePlan tp,
                                               const Expr* where,
                                               const Catalog* catalog,
                                               IndexManager* indexes);

}  // namespace autoindex
