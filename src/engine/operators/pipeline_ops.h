#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/operators/operator.h"

namespace autoindex {

// Single-child operator boilerplate.
class UnaryOpBase : public PhysicalOperator {
 public:
  UnaryOpBase(std::unique_ptr<PhysicalOperator> child)
      : child_(std::move(child)) {}

  void DoOpen() override { child_->Open(); }
  void DoClose() override { child_->Close(); }
  size_t num_children() const override { return 1; }
  const PhysicalOperator* child(size_t) const override {
    return child_.get();
  }

 protected:
  std::unique_ptr<PhysicalOperator> child_;
};

// Evaluates the complete WHERE over fully-joined tuples — covers ORs and
// cross-table predicates the per-level pruning could not evaluate.
class FilterOp : public UnaryOpBase {
 public:
  FilterOp(ExecContext* ctx, const SelectPlan& plan,
           const Expr* predicate, std::unique_ptr<PhysicalOperator> child)
      : UnaryOpBase(std::move(child)),
        predicate_(predicate),
        resolver_(*ctx->catalog, plan, plan.tables.size() - 1) {}

  bool DoNext(ExecTuple* out) override;

  OperatorKind kind() const override { return OperatorKind::kFilter; }
  std::string detail() const override;
  size_t out_width() const override { return child_->out_width(); }

 private:
  const Expr* predicate_;
  PrefixResolver resolver_;
};

// Projects joined tuples to output rows (star expansion in join order,
// columns bound to their owning table by BindColumn). Emits single-slot
// derived rows.
class ProjectOp : public UnaryOpBase {
 public:
  ProjectOp(ExecContext* ctx, const SelectPlan& plan,
            const std::vector<SelectItem>* items,
            std::unique_ptr<PhysicalOperator> child)
      : UnaryOpBase(std::move(child)),
        items_(items),
        resolver_(*ctx->catalog, plan, plan.tables.size() - 1) {}

  bool DoNext(ExecTuple* out) override;

  OperatorKind kind() const override { return OperatorKind::kProject; }
  std::string detail() const override;
  size_t out_width() const override { return 1; }

 private:
  const std::vector<SelectItem>* items_;
  PrefixResolver resolver_;
};

// Blocking sort. Two key modes:
//  - kTupleKeys: ORDER BY columns resolved over joined tuples (pre-
//    projection); counts its input into sort_rows.
//  - kSlotKeys: ORDER BY matched to select-item slots of aggregate output
//    rows; contributes nothing to sort_rows because HashAggregate already
//    counted its groups — the sort-like work the cost model prices.
class SortOp : public UnaryOpBase {
 public:
  enum class Mode { kTupleKeys, kSlotKeys };

  SortOp(ExecContext* ctx, const SelectPlan& plan,
         const std::vector<OrderByItem>* order_by,
         std::vector<std::pair<int, bool>> slot_keys, Mode mode,
         std::unique_ptr<PhysicalOperator> child)
      : UnaryOpBase(std::move(child)),
        order_by_(order_by),
        slot_keys_(std::move(slot_keys)),
        mode_(mode),
        resolver_(*ctx->catalog, plan, plan.tables.size() - 1) {}

  bool DoNext(ExecTuple* out) override;

  OperatorKind kind() const override { return OperatorKind::kSort; }
  std::string detail() const override;
  size_t out_width() const override { return child_->out_width(); }

 private:
  void EnsureSorted();

  const std::vector<OrderByItem>* order_by_;
  std::vector<std::pair<int, bool>> slot_keys_;  // (slot, desc)
  Mode mode_;
  PrefixResolver resolver_;
  std::vector<ExecTuple> buffer_;
  bool sorted_ = false;
  size_t cursor_ = 0;
};

// LIMIT n with genuine early termination: once the cap is reached the
// child is never pulled again, so upstream scans/joins stop doing work.
// Statement ExecStats is derived by summing the operator counters of what
// actually ran (AccumulateOperatorCounters), so the accounting and the
// PhysicalPlanValidator stay exact under the short-circuit; the what-if
// estimates stay LIMIT-blind and the est-vs-actual gap surfaces in
// EXPLAIN ANALYZE and the feedback loop.
class LimitOp : public UnaryOpBase {
 public:
  LimitOp(size_t limit, std::unique_ptr<PhysicalOperator> child)
      : UnaryOpBase(std::move(child)), limit_(limit) {}

  bool DoNext(ExecTuple* out) override;

  OperatorKind kind() const override { return OperatorKind::kLimit; }
  std::string detail() const override {
    return std::to_string(limit_) + " rows";
  }
  size_t out_width() const override { return child_->out_width(); }

 private:
  size_t limit_;
  size_t emitted_ = 0;
};

// Blocking hash aggregation on the GROUP BY key (empty key = one group;
// empty input with no GROUP BY still yields a single zero row). Emits
// single-slot output rows; counts its group build into sort_rows.
class HashAggregateOp : public UnaryOpBase {
 public:
  HashAggregateOp(ExecContext* ctx, const SelectPlan& plan,
                  const std::vector<SelectItem>* items,
                  const std::vector<ColumnRef>* group_by,
                  std::unique_ptr<PhysicalOperator> child)
      : UnaryOpBase(std::move(child)),
        items_(items),
        group_by_(group_by),
        resolver_(*ctx->catalog, plan, plan.tables.size() - 1) {}

  bool DoNext(ExecTuple* out) override;

  OperatorKind kind() const override { return OperatorKind::kHashAggregate; }
  std::string detail() const override;
  size_t out_width() const override { return 1; }

 private:
  void EnsureAggregated();

  const std::vector<SelectItem>* items_;
  const std::vector<ColumnRef>* group_by_;
  PrefixResolver resolver_;
  std::vector<Row> out_rows_;
  bool aggregated_ = false;
  size_t cursor_ = 0;
};

}  // namespace autoindex
