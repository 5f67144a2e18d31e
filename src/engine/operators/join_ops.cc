#include "engine/operators/join_ops.h"

#include "util/string_util.h"

namespace autoindex {

// --- IndexNestedLoopJoinOp -----------------------------------------------

bool IndexNestedLoopJoinOp::DoNext(ExecTuple* out) {
  while (true) {
    if (!inner_active_) {
      if (!outer_->Next(&outer_tuple_)) return false;
      ++stats_.rows_in;
      // Lowering only picks this operator when every key column binds
      // statically; an unbindable probe degrades to zero inner matches.
      (void)inner_->Rebind(&outer_tuple_);
      inner_active_ = true;
    }
    ExecTuple inner_row;
    if (!inner_->Next(&inner_row)) {
      inner_active_ = false;
      continue;
    }
    Extend(inner_row, out);
    return true;
  }
}

// --- HashJoinOp ----------------------------------------------------------

HashJoinOp::HashJoinOp(ExecContext* ctx,
                       const SelectPlan& plan, size_t level,
                       std::unique_ptr<PhysicalOperator> outer,
                       std::unique_ptr<SeqScanOp> build,
                       std::vector<std::string> join_cols,
                       std::vector<ColumnRef> join_sources)
    : JoinOpBase(ctx, plan, level, std::move(outer)),
      build_(std::move(build)),
      join_cols_(std::move(join_cols)),
      join_sources_(std::move(join_sources)),
      table_(ctx->catalog->GetTable(plan.tables[level].ref.table)) {
  for (const std::string& c : join_cols_) {
    key_ords_.push_back(table_->schema().FindColumn(c));
  }
}

void HashJoinOp::BuildHashTable() {
  // Drain the build-side scan: it filters by the local conditions and
  // pays the scan counters (tuples examined, heap pages) exactly once.
  ExecTuple t;
  while (build_->Next(&t)) {
    Row key;
    for (int ord : key_ords_) {
      key.push_back(ord >= 0 ? t.slots[0][static_cast<size_t>(ord)]
                             : Value::Null());
    }
    hash_[HashRow(key)].push_back(t.rids[0]);
  }
  built_ = true;
}

bool HashJoinOp::DoNext(ExecTuple* out) {
  const TablePlan& tp = tables_[level_];
  while (true) {
    if (!inner_active_) {
      if (!outer_->Next(&outer_tuple_)) return false;
      ++stats_.rows_in;
      if (!built_) BuildHashTable();
      // Resolve the probe key from the outer tuple. Join sources are owned
      // by tables placed earlier, so they bind; an unbound key would be
      // unbound for every tuple and produce no inner rows.
      resolver_.Bind(&outer_tuple_, nullptr);
      matches_ = nullptr;
      Row probe;
      bool bound = true;
      for (const ColumnRef& src : join_sources_) {
        const Value* v = resolver_.Resolve(src);
        if (v == nullptr) {
          bound = false;
          break;
        }
        probe.push_back(*v);
      }
      if (bound) {
        auto it = hash_.find(HashRow(probe));
        if (it != hash_.end()) matches_ = &it->second;
      }
      match_cursor_ = 0;
      inner_active_ = true;
    }
    while (matches_ != nullptr && match_cursor_ < matches_->size()) {
      const RowId rid = (*matches_)[match_cursor_++];
      if (!table_->IsLive(rid)) continue;
      const Row& row = table_->Get(rid);
      resolver_.Bind(&outer_tuple_, &row);
      // Exact recheck: hash collisions / partial-key matches.
      if (!JoinConditionsOk(tp, resolver_, &stats_.comparisons)) continue;
      ExecTuple inner_row;
      inner_row.slots.assign(1, row);
      inner_row.rids.assign(1, rid);
      Extend(inner_row, out);
      return true;
    }
    inner_active_ = false;
  }
}

std::string HashJoinOp::detail() const {
  std::vector<std::string> keys;
  for (size_t i = 0; i < join_cols_.size(); ++i) {
    keys.push_back(join_cols_[i] + " = " + join_sources_[i].ToString());
  }
  return JoinOpBase::detail() + " on " + Join(keys, ", ");
}

// --- NestedLoopJoinOp ----------------------------------------------------

bool NestedLoopJoinOp::DoNext(ExecTuple* out) {
  const TablePlan& tp = tables_[level_];
  while (true) {
    if (!inner_active_) {
      if (!outer_->Next(&outer_tuple_)) return false;
      ++stats_.rows_in;
      inner_->Rewind();
      inner_active_ = true;
    }
    ExecTuple inner_row;
    if (!inner_->Next(&inner_row)) {
      inner_active_ = false;
      continue;
    }
    resolver_.Bind(&outer_tuple_, &inner_row.slots[0]);
    if (!JoinConditionsOk(tp, resolver_, &stats_.comparisons)) continue;
    Extend(inner_row, out);
    return true;
  }
}

}  // namespace autoindex
