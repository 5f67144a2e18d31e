#include "engine/operators/operator.h"

#include <array>
#include <cassert>

#include "util/metrics.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

// In OperatorKind order.
constexpr const char* kKindNames[] = {
    "SeqScan", "IndexScan", "IndexNestedLoopJoin", "HashJoin",
    "NestedLoopJoin", "Filter", "Project", "Sort", "Limit", "HashAggregate"};

// executor.op.<kind>.* series, resolved once per process for every kind,
// so closing an operator costs three relaxed atomic adds.
struct KindCounters {
  util::Counter* invocations;
  util::Counter* rows_out;
  util::Counter* pages_read;
};

const KindCounters& CountersOf(OperatorKind kind) {
  static const auto counters = [] {
    auto& registry = util::MetricsRegistry::Default();
    std::array<KindCounters, std::size(kKindNames)> out;
    for (size_t k = 0; k < out.size(); ++k) {
      const std::string base =
          StrCat("executor.op.", ToLower(kKindNames[k]), ".");
      out[k] = {registry.GetCounter(base + "invocations"),
                registry.GetCounter(base + "rows_out"),
                registry.GetCounter(base + "pages_read")};
    }
    return out;
  }();
  return counters[static_cast<size_t>(kind)];
}

}  // namespace

const char* PhysicalOperator::name() const {
  return kKindNames[static_cast<size_t>(kind())];
}

void PhysicalOperator::Close() {
  DoClose();
  span_.End("rows_out", stats_.rows_out);
  if constexpr (util::kMetricsEnabled) {
    const KindCounters& counters = CountersOf(kind());
    counters.invocations->Add();
    counters.rows_out->Add(static_cast<uint64_t>(stats_.rows_out));
    counters.pages_read->Add(static_cast<uint64_t>(stats_.heap_pages_read +
                                                   stats_.index_pages_read));
  }
}

ColumnBinding BindColumn(const Catalog& catalog, const SelectPlan& plan,
                         size_t level, const ColumnRef& col) {
  int ordinal = -1;
  const int owner = ResolveColumnTable(col, plan.from, catalog, &ordinal);
  for (size_t i = 0; owner >= 0 && i <= level; ++i) {
    if (plan.tables[i].from_index == static_cast<size_t>(owner)) {
      return {static_cast<int>(i), ordinal};
    }
  }
  return {};
}

ColumnBinding PrefixResolver::BindingOf(const ColumnRef& col) const {
  const size_t n = memo_.size();
  for (size_t k = 0; k < n; ++k) {
    const size_t i = next_ + k < n ? next_ + k : next_ + k - n;
    if (memo_[i].ref != &col) continue;
    assert(memo_[i].bound_as == col && "ColumnRef changed or was freed");
    next_ = i + 1 < n ? i + 1 : 0;
    return memo_[i].binding;
  }
  MemoEntry entry;
  entry.ref = &col;
  entry.binding = BindColumn(catalog_, plan_, level_, col);
#ifndef NDEBUG
  entry.bound_as = col;
#endif
  memo_.push_back(std::move(entry));
  next_ = 0;
  return memo_.back().binding;
}

bool LocalConditionsOk(const TablePlan& tp, const ColumnResolver& resolver,
                       int64_t* comparisons) {
  for (const ColumnCondition& c : tp.conditions) {
    if (c.atom == nullptr || c.join_source.has_value()) continue;
    ++*comparisons;
    if (!EvaluatePredicate(*c.atom, resolver)) return false;
  }
  return true;
}

bool JoinConditionsOk(const TablePlan& tp, const ColumnResolver& resolver,
                      int64_t* comparisons) {
  for (const ColumnCondition& c : tp.conditions) {
    if (!c.join_source.has_value() || c.atom == nullptr) continue;
    ++*comparisons;
    if (!EvaluatePredicate(*c.atom, resolver)) return false;
  }
  return true;
}

void AccumulateOperatorCounters(const PlanNodeSnapshot& node,
                                ExecStats* stats) {
  stats->heap_pages_read += static_cast<size_t>(node.actual.heap_pages_read);
  stats->index_pages_read +=
      static_cast<size_t>(node.actual.index_pages_read);
  stats->tuples_examined += static_cast<size_t>(node.actual.tuples_examined);
  stats->index_tuples_read +=
      static_cast<size_t>(node.actual.index_tuples_read);
  stats->sort_rows += static_cast<size_t>(node.actual.sort_rows);
  for (const PlanNodeSnapshot& c : node.children) {
    AccumulateOperatorCounters(c, stats);
  }
}

PlanNodeSnapshot PhysicalOperator::Snapshot() const {
  PlanNodeSnapshot snap;
  snap.op = name();
  snap.detail = detail();
  snap.est_rows = est_rows_;
  snap.est_cost = est_cost_;
  snap.out_width = out_width();
  snap.actual = stats_;
  for (size_t i = 0; i < num_children(); ++i) {
    snap.children.push_back(child(i)->Snapshot());
  }
  return snap;
}

void CollectAccessPathFeedback(const PhysicalOperator& root,
                               const CostParams& params,
                               std::vector<AccessPathFeedback>* out) {
  root.AppendFeedback(params, out);
  for (size_t i = 0; i < root.num_children(); ++i) {
    CollectAccessPathFeedback(*root.child(i), params, out);
  }
}

}  // namespace autoindex
