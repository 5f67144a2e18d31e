#pragma once

#include <string>
#include <vector>

#include "engine/operators/operator.h"
#include "index/index_manager.h"

namespace autoindex {

// Sequential scan over one table, filtered by the level's local (literal)
// conditions. The filtered RowIds are materialized once on first pull;
// Rewind() replays them without rescanning, which is how NestedLoopJoin
// re-reads its inner side per outer tuple (liveness is rechecked per
// emission, materialization counters are paid once).
class SeqScanOp : public PhysicalOperator {
 public:
  SeqScanOp(ExecContext* ctx, const SelectPlan& plan, size_t level);

  void DoOpen() override {}
  bool DoNext(ExecTuple* out) override;
  void DoClose() override {}

  OperatorKind kind() const override { return OperatorKind::kSeqScan; }
  std::string detail() const override;
  size_t out_width() const override { return 1; }

  void Rewind() { cursor_ = 0; }

  void AppendFeedback(const CostParams& params,
                      std::vector<AccessPathFeedback>* out) const override;

 private:
  void EnsureMaterialized();

  ExecContext* ctx_;
  const std::vector<TablePlan>& tables_;
  size_t level_;
  const HeapTable* table_;
  PrefixResolver resolver_;
  std::vector<RowId> materialized_;
  bool materialized_done_ = false;
  size_t cursor_ = 0;
};

// Index scan over one table. Standalone (leftmost table / write lookup) it
// probes once in Open(); as the inner side of IndexNestedLoopJoin it is
// re-probed per outer tuple via Rebind(). Emitted rows already passed the
// level's local and join conditions, evaluated against the bound outer
// tuple. Heap pages are deduplicated query-wide through the ExecContext.
class IndexScanOp : public PhysicalOperator {
 public:
  IndexScanOp(ExecContext* ctx, const SelectPlan& plan, size_t level,
              const BuiltIndex* index);

  void DoOpen() override;
  bool DoNext(ExecTuple* out) override;
  void DoClose() override {}

  OperatorKind kind() const override { return OperatorKind::kIndexScan; }
  std::string detail() const override;
  size_t out_width() const override { return 1; }

  // Probes the index with the key prefix bound against `outer` (null for
  // the leftmost table: literal bindings only). Returns false when a
  // join-bound key column cannot be resolved — lowering statically avoids
  // that case, and an unbindable probe simply yields no rows.
  bool Rebind(const ExecTuple* outer);

  void AppendFeedback(const CostParams& params,
                      std::vector<AccessPathFeedback>* out) const override;

 private:
  // The value of the first condition that binds: a literal, or a join
  // source resolved against the outer tuple. Null when none binds.
  const Value* FirstBound(
      const std::vector<const ColumnCondition*>& conditions) const;

  ExecContext* ctx_;
  const std::vector<TablePlan>& tables_;
  size_t level_;
  const HeapTable* table_;
  const BuiltIndex* index_;
  PrefixResolver resolver_;
  // Namespaces this table's pages in ExecContext::probed_heap_pages.
  size_t page_key_salt_;
  // Per equality key column, the conditions that can bind it (tried in
  // order); the range bounds on the next column; the equalities on the
  // partition column of a local index. Pointers into tables_[level_].
  std::vector<std::vector<const ColumnCondition*>> eq_keys_;
  const ColumnCondition* range_lo_ = nullptr;
  const ColumnCondition* range_hi_ = nullptr;
  std::vector<const ColumnCondition*> partition_keys_;
  const ExecTuple* outer_ = nullptr;
  std::vector<RowId> rids_;
  size_t cursor_ = 0;
  int64_t probes_ = 0;
};

}  // namespace autoindex
