#pragma once

#include <string>
#include <vector>

#include "engine/cost_model.h"
#include "engine/planner.h"
#include "index/index_manager.h"
#include "sql/statement.h"
#include "stats/stats_manager.h"

namespace autoindex {

// An index configuration a what-if call prices against: an arbitrary set
// of index definitions, independent of what is physically built. This is
// how AutoIndex prices both additions (hypothetical indexes, C2.1) and
// removals (configs that omit existing indexes).
class IndexConfig {
 public:
  IndexConfig() = default;
  explicit IndexConfig(std::vector<IndexDef> defs);

  // Materializes stats views for the defs using table statistics (entry
  // counts, estimated heights/sizes).
  std::vector<IndexStatsView> ToStatsViews(const Catalog& catalog) const;

  const std::vector<IndexDef>& defs() const { return defs_; }
  bool Contains(const IndexDef& def) const;
  void Add(IndexDef def);
  void Remove(const IndexDef& def);

  // Total estimated bytes of all indexes in the config.
  size_t TotalBytes(const Catalog& catalog) const;

 private:
  std::vector<IndexDef> defs_;
};

// Prices statements under arbitrary index configurations without executing
// them — the substrate equivalent of hypopg + EXPLAIN. A SELECT costs its
// plan's price (SelectPlan::est_cost, the number EXPLAIN prints); write
// costs apply the paper's maintenance formulas (Sec. V-A) per affected
// index.
class WhatIfCostModel {
 public:
  WhatIfCostModel(Catalog* catalog, StatsManager* stats,
                  const CostParams& params)
      : catalog_(catalog), params_(params),
        planner_(catalog, stats, params) {}

  // Estimated cost breakdown of one statement under `config`.
  CostBreakdown EstimateStatement(const Statement& stmt,
                                  const IndexConfig& config) const;

  // Convenience: total scalar cost.
  double EstimateStatementCost(const Statement& stmt,
                               const IndexConfig& config) const {
    return EstimateStatement(stmt, config).Total();
  }

  const CostParams& params() const { return params_; }

 private:
  CostBreakdown EstimateSelect(const SelectStatement& stmt,
                               const std::vector<IndexStatsView>& views) const;
  CostBreakdown EstimateWrite(const Statement& stmt,
                              const std::vector<IndexStatsView>& views) const;

  Catalog* catalog_;
  CostParams params_;
  Planner planner_;
};

}  // namespace autoindex
