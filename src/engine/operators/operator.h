#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "engine/cost_model.h"
#include "engine/planner.h"
#include "obs/trace.h"
#include "sql/statement.h"
#include "storage/catalog.h"

namespace autoindex {

// The closed set of physical operators. The kind names the operator in
// plans and spans, and keys its executor.op.<kind>.* counters.
enum class OperatorKind {
  kSeqScan, kIndexScan, kIndexNestedLoopJoin, kHashJoin, kNestedLoopJoin,
  kFilter, kProject, kSort, kLimit, kHashAggregate
};

// Runtime counters every physical operator maintains while pulling tuples.
// The statement-level ExecStats is derived by summing these over the tree
// (AccumulateOperatorCounters), so per-operator and whole-statement
// accounting cannot drift apart. Fields are signed so the plan validator
// can flag corrupted (negative) counters.
struct OperatorStats {
  int64_t rows_in = 0;            // tuples pulled from the outer/child side
  int64_t rows_out = 0;           // tuples emitted to the parent
  int64_t heap_pages_read = 0;
  int64_t index_pages_read = 0;
  int64_t tuples_examined = 0;    // heap tuples materialized/filtered
  int64_t index_tuples_read = 0;  // index entries touched by scans
  int64_t sort_rows = 0;          // rows passed through sort/group work
  int64_t comparisons = 0;        // predicate/key evaluations performed
};

// A tuple flowing through the pipeline: one materialized row per placed
// base table (in join order), with the originating RowIds alongside so
// write lookups can address the heap. Row-shaped operators
// (Project/HashAggregate) emit one derived slot with kInvalidRowId.
struct ExecTuple {
  std::vector<Row> slots;
  std::vector<RowId> rids;
};

// Per-statement state shared by every operator in one tree.
struct ExecContext {
  const Catalog* catalog = nullptr;
  // Heap pages fetched via index probes, deduplicated query-wide: repeated
  // probes hitting the same (hot or clustered) pages cost one read — the
  // buffer-cache behaviour the cost model's correlation blend mirrors.
  // Keys are namespaced by table name so two tables' page 0 stay distinct.
  std::unordered_set<size_t> probed_heap_pages;
};

// One access path's estimated-vs-observed execution pair. The executor
// collects these from scan operators after each statement and forwards
// them to core/benefit_estimator (the EXPLAIN ANALYZE feedback loop).
struct AccessPathFeedback {
  std::string table;         // real table name
  std::string index;         // index display name; empty = sequential scan
  double est_rows = 0.0;     // planner's expected rows from the path
  double actual_rows = 0.0;  // observed rows (mean per probe for indexes)
  double est_cost = 0.0;     // planner's access-path cost (read side)
  double actual_cost = 0.0;  // priced from the operator's own counters
};

// Copyable, pointer-free image of an executed operator tree: what EXPLAIN
// ANALYZE renders and what the PhysicalPlanValidator checks against the
// statement-level ExecStats.
struct PlanNodeSnapshot {
  std::string op;         // operator name ("IndexScan", "HashJoin", ...)
  std::string detail;     // target table / keys, human-readable
  double est_rows = 0.0;  // planner estimate of this operator's output
  double est_cost = 0.0;  // planner estimate of this operator's own cost
  size_t out_width = 0;   // slots per emitted tuple
  OperatorStats actual;
  std::vector<PlanNodeSnapshot> children;
};

// Sums the read-side counters of a snapshot tree into *stats. Write-side
// fields are untouched (operators only ever read).
void AccumulateOperatorCounters(const PlanNodeSnapshot& node,
                                ExecStats* stats);

// Where a column reference reads its value: the tuple slot of the table
// that owns it and the column's ordinal in that table's rows. An unbound
// reference (no FROM entry owns the column, or its owner is not placed at
// the resolver's level) reads as "unbound": predicates over it are false,
// projections of it give NULL.
struct ColumnBinding {
  int slot = -1;
  int ordinal = -1;
  bool bound() const { return slot >= 0; }
};

// Binds `col` over the join prefix plan.tables[0..level]: the owner is the
// FROM entry ResolveColumnTable picks (the same for every operator and
// every join order), and the slot is that entry's position in the join
// order. An owner placed after `level` leaves the column unbound there.
ColumnBinding BindColumn(const Catalog& catalog, const SelectPlan& plan,
                         size_t level, const ColumnRef& col);

// Resolves columns over the join prefix plan.tables[0..level]: rows come
// from a partially-built outer tuple plus an optional candidate row for the
// table being placed (null while binding index key prefixes).
//
// Each reference is bound (BindColumn: catalog lookup, name lowering,
// schema probe) the first time this resolver sees it, and the binding is
// memoised by the ColumnRef's address. After that a resolution is a
// pointer compare and an index into the bound rows — no catalog lock, no
// string work, no hashing on the tuple path.
//
// Lifetime contract: every ColumnRef passed to Resolve must outlive the
// resolver (and so the operator owning it), and must not change. All
// callers pass references owned by the statement (WHERE atoms, select
// items, GROUP BY/ORDER BY columns) or by the plan and its operators (join
// sources). Debug builds assert that a memoised entry still names the
// same table and column.
class PrefixResolver : public ColumnResolver {
 public:
  PrefixResolver(const Catalog& catalog, const SelectPlan& plan, size_t level)
      : catalog_(catalog), plan_(plan), level_(level) {}

  // `outer` supplies rows for tables [0, outer->slots.size()); `top` (may
  // be null) stands in for plan.tables[level]. When `outer` already carries
  // a row for every level (a complete tuple), `top` is ignored.
  void Bind(const ExecTuple* outer, const Row* top) {
    outer_ = outer;
    top_ = top;
  }

  const Value* Resolve(const ColumnRef& col) const override {
    const ColumnBinding b = BindingOf(col);
    if (!b.bound()) return nullptr;
    const Row* row = RowAt(static_cast<size_t>(b.slot));
    return row == nullptr ? nullptr : &(*row)[static_cast<size_t>(b.ordinal)];
  }

 private:
  struct MemoEntry {
    const ColumnRef* ref = nullptr;
    ColumnBinding binding;
#ifndef NDEBUG
    ColumnRef bound_as;  // what `ref` named when it was bound
#endif
  };

  const Row* RowAt(size_t i) const {
    if (outer_ != nullptr && i < outer_->slots.size()) {
      return &outer_->slots[i];
    }
    return i == level_ ? top_ : nullptr;
  }

  ColumnBinding BindingOf(const ColumnRef& col) const;

  const Catalog& catalog_;
  const SelectPlan& plan_;
  size_t level_;
  const ExecTuple* outer_ = nullptr;
  const Row* top_ = nullptr;
  // A handful of entries per operator, in first-use order. Operators
  // resolve the same references in the same order for every tuple, so the
  // search starts after the previous hit and almost always ends at once.
  mutable std::vector<MemoEntry> memo_;
  mutable size_t next_ = 0;
};

// Evaluates the level's non-join (literal) conditions / join-equality
// conditions over the resolver. Each predicate evaluation bumps
// *comparisons.
bool LocalConditionsOk(const TablePlan& tp, const ColumnResolver& resolver,
                       int64_t* comparisons);
bool JoinConditionsOk(const TablePlan& tp, const ColumnResolver& resolver,
                      int64_t* comparisons);

// A Volcano-style physical operator: Open() prepares per-execution state,
// Next() produces the next tuple (false = exhausted), Close() tears down.
// Heavy work (materialization, hash build) happens lazily on first Next()
// so untouched subtrees cost nothing — matching the previous executor.
//
// The lifecycle entry points are non-virtual template methods so every
// operator gets a trace span for free: Open() starts a span (children
// opened inside DoOpen() nest under it), Close() stamps its duration and
// the rows_out attribute — one span per operator covering its whole
// Open..Close lifetime, with no per-Next clock reads on the tuple path.
// Close() also adds the operator's final counters to its kind's
// executor.op.<kind>.{invocations,rows_out,pages_read} series; every
// operator of a tree is closed exactly once, by its parent or (for the
// root) by the executor. Implementations override DoOpen/DoNext/DoClose.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  void Open() {
    span_.Begin(name());
    DoOpen();
    span_.Leave();
  }
  bool Next(ExecTuple* out) { return DoNext(out); }
  void Close();

  virtual OperatorKind kind() const = 0;
  // "SeqScan", "IndexScan", ...: what EXPLAIN and the trace spans show.
  const char* name() const;
  // Human-readable target ("on orders via idx_orders_customer_id").
  virtual std::string detail() const = 0;
  // Slots per emitted tuple (1 for scans and row-shaped operators).
  virtual size_t out_width() const = 0;
  virtual size_t num_children() const { return 0; }
  virtual const PhysicalOperator* child(size_t) const { return nullptr; }

  // Per-access-path (estimated, observed) pairs; scan operators override.
  virtual void AppendFeedback(const CostParams&,
                              std::vector<AccessPathFeedback>*) const {}

  const OperatorStats& stats() const { return stats_; }
  double est_rows() const { return est_rows_; }
  double est_cost() const { return est_cost_; }
  void set_estimates(double rows, double cost) {
    est_rows_ = rows;
    est_cost_ = cost;
  }

  // Deep, pointer-free copy of the tree with its counters.
  PlanNodeSnapshot Snapshot() const;

 protected:
  virtual void DoOpen() = 0;
  virtual bool DoNext(ExecTuple* out) = 0;
  virtual void DoClose() = 0;

  OperatorStats stats_;
  double est_rows_ = 0.0;
  double est_cost_ = 0.0;

 private:
  obs::OperatorSpan span_;
};

// Collects AppendFeedback over the whole tree (pre-order).
void CollectAccessPathFeedback(const PhysicalOperator& root,
                               const CostParams& params,
                               std::vector<AccessPathFeedback>* out);

}  // namespace autoindex
