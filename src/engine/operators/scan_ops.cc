#include "engine/operators/scan_ops.h"

#include <functional>
#include <string>

namespace autoindex {
namespace {

// The level's equality conditions on `column`, in extraction order.
std::vector<const ColumnCondition*> EqConditionsOn(
    const std::vector<ColumnCondition>& conditions,
    const std::string& column) {
  std::vector<const ColumnCondition*> out;
  for (const ColumnCondition& c : conditions) {
    if (c.column == column && c.kind == ColumnCondition::kEq) {
      out.push_back(&c);
    }
  }
  return out;
}

}  // namespace

// --- SeqScanOp -----------------------------------------------------------

SeqScanOp::SeqScanOp(ExecContext* ctx, const SelectPlan& plan, size_t level)
    : ctx_(ctx),
      tables_(plan.tables),
      level_(level),
      table_(ctx->catalog->GetTable(plan.tables[level].ref.table)),
      resolver_(*ctx->catalog, plan, level) {}

void SeqScanOp::EnsureMaterialized() {
  if (materialized_done_) return;
  const TablePlan& tp = tables_[level_];
  table_->Scan([&](RowId rid, const Row& row) {
    ++stats_.tuples_examined;
    resolver_.Bind(nullptr, &row);
    if (LocalConditionsOk(tp, resolver_, &stats_.comparisons)) {
      materialized_.push_back(rid);
    }
  });
  stats_.heap_pages_read += static_cast<int64_t>(table_->NumPages());
  materialized_done_ = true;
}

bool SeqScanOp::DoNext(ExecTuple* out) {
  EnsureMaterialized();
  while (cursor_ < materialized_.size()) {
    const RowId rid = materialized_[cursor_++];
    if (!table_->IsLive(rid)) continue;
    out->slots.assign(1, table_->Get(rid));
    out->rids.assign(1, rid);
    ++stats_.rows_out;
    return true;
  }
  return false;
}

std::string SeqScanOp::detail() const {
  return "on " + tables_[level_].ref.alias;
}

void SeqScanOp::AppendFeedback(const CostParams& params,
                               std::vector<AccessPathFeedback>* out) const {
  if (!materialized_done_) return;  // never executed
  AccessPathFeedback fb;
  fb.table = tables_[level_].ref.table;
  fb.est_rows = tables_[level_].access.est_rows;
  fb.actual_rows = static_cast<double>(materialized_.size());
  fb.est_cost = tables_[level_].access.est_cost;
  fb.actual_cost =
      static_cast<double>(stats_.heap_pages_read) * params.seq_page_cost +
      static_cast<double>(stats_.tuples_examined) * params.cpu_tuple_cost;
  out->push_back(std::move(fb));
}

// --- IndexScanOp ---------------------------------------------------------

IndexScanOp::IndexScanOp(ExecContext* ctx,
                         const SelectPlan& plan, size_t level,
                         const BuiltIndex* index)
    : ctx_(ctx),
      tables_(plan.tables),
      level_(level),
      table_(ctx->catalog->GetTable(plan.tables[level].ref.table)),
      index_(index),
      resolver_(*ctx->catalog, plan, level),
      page_key_salt_(std::hash<std::string>()(table_->name()) << 1) {
  // Which conditions feed each key column is fixed by the plan; only the
  // join-bound values change between probes.
  const TablePlan& tp = plan.tables[level];
  const std::vector<std::string>& columns = tp.access.index.columns;
  for (size_t k = 0; k < tp.access.eq_prefix_len; ++k) {
    eq_keys_.push_back(EqConditionsOn(tp.conditions, columns[k]));
  }
  if (tp.access.has_range && tp.access.eq_prefix_len < columns.size()) {
    const std::string& rcol = columns[tp.access.eq_prefix_len];
    for (const ColumnCondition& c : tp.conditions) {
      if (c.column != rcol) continue;
      if (c.kind == ColumnCondition::kRangeLo && range_lo_ == nullptr) {
        range_lo_ = &c;
      } else if (c.kind == ColumnCondition::kRangeHi &&
                 range_hi_ == nullptr) {
        range_hi_ = &c;
      }
    }
  }
  // A local index probes one shard when an equality pins the table's
  // partition column; otherwise it probes every shard.
  if (index_->is_local() && table_->partitioned()) {
    const std::string& pcol =
        table_->schema()
            .column(static_cast<size_t>(table_->partition_column()))
            .name;
    partition_keys_ = EqConditionsOn(tp.conditions, pcol);
  }
}

void IndexScanOp::DoOpen() {
  // Standalone use (leftmost table / write lookup): one probe, all key
  // columns bound from literals. As a join inner, the parent Rebind()s
  // per outer tuple instead and this initial probe is never issued.
  if (level_ == 0) {
    (void)Rebind(nullptr);
  }
}

const Value* IndexScanOp::FirstBound(
    const std::vector<const ColumnCondition*>& conditions) const {
  for (const ColumnCondition* c : conditions) {
    if (!c->join_source.has_value()) return &c->literal;
    if (const Value* v = resolver_.Resolve(*c->join_source)) return v;
  }
  return nullptr;
}

bool IndexScanOp::Rebind(const ExecTuple* outer) {
  outer_ = outer;
  rids_.clear();
  cursor_ = 0;
  resolver_.Bind(outer, nullptr);

  // Runtime key prefix: equality columns may be literals or join
  // references resolved from the outer tuple.
  Row lo, hi;
  for (const std::vector<const ColumnCondition*>& candidates : eq_keys_) {
    const Value* v = FirstBound(candidates);
    if (v == nullptr) return false;
    lo.push_back(*v);
    hi.push_back(*v);
  }
  bool lo_inc = true, hi_inc = true;
  if (range_lo_ != nullptr) {
    lo.push_back(range_lo_->literal);
    lo_inc = range_lo_->inclusive;
  }
  if (range_hi_ != nullptr) {
    hi.push_back(range_hi_->literal);
    hi_inc = range_hi_->inclusive;
  }

  size_t index_pages = 0;
  index_->Scan(FirstBound(partition_keys_), lo.empty() ? nullptr : &lo,
               lo_inc, hi.empty() ? nullptr : &hi, hi_inc,
               [&](const Row&, RowId rid) {
                 rids_.push_back(rid);
                 return true;
               },
               &index_pages);
  stats_.index_pages_read += static_cast<int64_t>(index_pages);
  stats_.index_tuples_read += static_cast<int64_t>(rids_.size());
  ++probes_;
  return true;
}

bool IndexScanOp::DoNext(ExecTuple* out) {
  const TablePlan& tp = tables_[level_];
  while (cursor_ < rids_.size()) {
    const RowId rid = rids_[cursor_++];
    if (!table_->IsLive(rid)) continue;
    if (ctx_->probed_heap_pages.insert(table_->PageOfRow(rid) ^ page_key_salt_)
            .second) {
      ++stats_.heap_pages_read;
    }
    const Row& row = table_->Get(rid);
    ++stats_.tuples_examined;
    resolver_.Bind(outer_, &row);
    if (!LocalConditionsOk(tp, resolver_, &stats_.comparisons) ||
        !JoinConditionsOk(tp, resolver_, &stats_.comparisons)) {
      continue;
    }
    out->slots.assign(1, row);
    out->rids.assign(1, rid);
    ++stats_.rows_out;
    return true;
  }
  return false;
}

std::string IndexScanOp::detail() const {
  const TablePlan& tp = tables_[level_];
  std::string out = "on " + tp.ref.alias + " via " +
                    tp.access.index.DisplayName();
  if (tp.access.eq_prefix_len > 0 || tp.access.has_range) {
    out += " (eq prefix " + std::to_string(tp.access.eq_prefix_len);
    if (tp.access.has_range) out += ", range";
    out += ")";
  }
  return out;
}

void IndexScanOp::AppendFeedback(const CostParams& params,
                                 std::vector<AccessPathFeedback>* out) const {
  if (probes_ == 0) return;  // never executed
  const double probes = static_cast<double>(probes_);
  AccessPathFeedback fb;
  fb.table = tables_[level_].ref.table;
  fb.index = tables_[level_].access.index.DisplayName();
  fb.est_rows = tables_[level_].access.est_match_rows;
  fb.actual_rows = static_cast<double>(stats_.index_tuples_read) / probes;
  fb.est_cost = tables_[level_].access.est_cost;
  fb.actual_cost =
      (static_cast<double>(stats_.index_pages_read) * params.random_page_cost +
       static_cast<double>(stats_.heap_pages_read) * params.random_page_cost +
       static_cast<double>(stats_.index_tuples_read) *
           params.cpu_index_tuple_cost +
       static_cast<double>(stats_.tuples_examined) * params.cpu_tuple_cost) /
      probes;
  out->push_back(std::move(fb));
}

}  // namespace autoindex
