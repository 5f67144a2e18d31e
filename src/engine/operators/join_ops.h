#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/operators/scan_ops.h"

namespace autoindex {

// Shared shape of the three left-deep join operators: child 0 is the outer
// pipeline (tuples of `level` slots), child 1 the inner access operator
// for tables_[level]. Emitted tuples extend the outer tuple by one slot.
class JoinOpBase : public PhysicalOperator {
 public:
  JoinOpBase(ExecContext* ctx, const SelectPlan& plan,
             size_t level, std::unique_ptr<PhysicalOperator> outer)
      : ctx_(ctx),
        tables_(plan.tables),
        level_(level),
        outer_(std::move(outer)),
        resolver_(*ctx->catalog, plan, level) {}

  size_t out_width() const override { return level_ + 1; }
  size_t num_children() const override { return 2; }
  std::string detail() const override {
    return "to " + tables_[level_].ref.alias;
  }

 protected:
  void Extend(const ExecTuple& inner_row, ExecTuple* out) {
    *out = outer_tuple_;
    out->slots.push_back(inner_row.slots[0]);
    out->rids.push_back(inner_row.rids[0]);
    ++stats_.rows_out;
  }

  ExecContext* ctx_;
  const std::vector<TablePlan>& tables_;
  size_t level_;
  std::unique_ptr<PhysicalOperator> outer_;
  PrefixResolver resolver_;
  ExecTuple outer_tuple_;
  bool inner_active_ = false;
};

// Index nested-loop join: re-probes the inner IndexScan per outer tuple
// (runtime-bound key prefix). The inner scan already applies the level's
// local and join conditions against the bound outer tuple.
class IndexNestedLoopJoinOp : public JoinOpBase {
 public:
  IndexNestedLoopJoinOp(ExecContext* ctx,
                        const SelectPlan& plan, size_t level,
                        std::unique_ptr<PhysicalOperator> outer,
                        std::unique_ptr<IndexScanOp> inner)
      : JoinOpBase(ctx, plan, level, std::move(outer)),
        inner_(std::move(inner)) {}

  void DoOpen() override { outer_->Open(); }
  bool DoNext(ExecTuple* out) override;
  void DoClose() override {
    outer_->Close();
    inner_->Close();
  }

  OperatorKind kind() const override { return OperatorKind::kIndexNestedLoopJoin; }
  const PhysicalOperator* child(size_t i) const override {
    return i == 0 ? outer_.get() : static_cast<PhysicalOperator*>(inner_.get());
  }

 private:
  std::unique_ptr<IndexScanOp> inner_;
};

// Hash join on the level's equality join conditions: lazily builds a hash
// table over the filtered inner table (the build side is a SeqScan so scan
// accounting lives there), then probes it with join-key values resolved
// from each outer tuple. Matches are re-checked exactly (hash collisions)
// via the join conditions.
class HashJoinOp : public JoinOpBase {
 public:
  HashJoinOp(ExecContext* ctx, const SelectPlan& plan,
             size_t level, std::unique_ptr<PhysicalOperator> outer,
             std::unique_ptr<SeqScanOp> build);

  void DoOpen() override { outer_->Open(); }
  bool DoNext(ExecTuple* out) override;
  void DoClose() override {
    outer_->Close();
    build_->Close();
  }

  OperatorKind kind() const override { return OperatorKind::kHashJoin; }
  std::string detail() const override;
  const PhysicalOperator* child(size_t i) const override {
    return i == 0 ? outer_.get() : static_cast<PhysicalOperator*>(build_.get());
  }

 private:
  void BuildHashTable();

  std::unique_ptr<SeqScanOp> build_;
  // The join conditions (pointers into the plan) and the schema ordinal of
  // each one's inner column.
  std::vector<const ColumnCondition*> keys_;
  std::vector<int> key_ords_;
  const HeapTable* table_;
  std::unordered_map<size_t, std::vector<RowId>> hash_;
  bool built_ = false;
  const std::vector<RowId>* matches_ = nullptr;
  size_t match_cursor_ = 0;
};

// Cartesian nested-loop join (no equality key): replays the materialized
// filtered inner SeqScan per outer tuple.
class NestedLoopJoinOp : public JoinOpBase {
 public:
  NestedLoopJoinOp(ExecContext* ctx, const SelectPlan& plan,
                   size_t level, std::unique_ptr<PhysicalOperator> outer,
                   std::unique_ptr<SeqScanOp> inner)
      : JoinOpBase(ctx, plan, level, std::move(outer)),
        inner_(std::move(inner)) {}

  void DoOpen() override { outer_->Open(); }
  bool DoNext(ExecTuple* out) override;
  void DoClose() override {
    outer_->Close();
    inner_->Close();
  }

  OperatorKind kind() const override { return OperatorKind::kNestedLoopJoin; }
  std::string detail() const override {
    return JoinOpBase::detail() + " (cartesian)";
  }
  const PhysicalOperator* child(size_t i) const override {
    return i == 0 ? outer_.get() : static_cast<PhysicalOperator*>(inner_.get());
  }

 private:
  std::unique_ptr<SeqScanOp> inner_;
};

}  // namespace autoindex
