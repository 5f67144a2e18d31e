#include "engine/operators/pipeline_ops.h"

#include <algorithm>
#include <unordered_map>

#include "util/string_util.h"

namespace autoindex {
namespace {

Value ProjectColumn(const ColumnResolver& resolver, const ColumnRef& col) {
  const Value* v = resolver.Resolve(col);
  return v != nullptr ? *v : Value::Null();
}

// Aggregate accumulator for one group.
struct AggState {
  size_t count = 0;
  std::vector<double> sums;
  std::vector<Value> mins;
  std::vector<Value> maxs;
  std::vector<size_t> non_null;  // per aggregate item
  // Item saw a non-numeric (string) input: SUM/AVG over it yield NULL
  // instead of silently treating the strings as 0.
  std::vector<bool> non_numeric;
};

struct GroupKeyHash {
  size_t operator()(const Row& r) const { return HashRow(r); }
};
struct GroupKeyEq {
  bool operator()(const Row& a, const Row& b) const {
    return CompareRows(a, b) == 0;
  }
};

}  // namespace

// --- FilterOp ------------------------------------------------------------

bool FilterOp::DoNext(ExecTuple* out) {
  ExecTuple t;
  while (child_->Next(&t)) {
    ++stats_.rows_in;
    resolver_.Bind(&t, nullptr);
    ++stats_.comparisons;
    if (!EvaluatePredicate(*predicate_, resolver_)) continue;
    *out = std::move(t);
    ++stats_.rows_out;
    return true;
  }
  return false;
}

std::string FilterOp::detail() const {
  std::string s = predicate_->ToString();
  if (s.size() > 60) s = s.substr(0, 57) + "...";
  return s;
}

// --- ProjectOp -----------------------------------------------------------

bool ProjectOp::DoNext(ExecTuple* out) {
  ExecTuple t;
  if (!child_->Next(&t)) return false;
  ++stats_.rows_in;
  resolver_.Bind(&t, nullptr);
  Row row;
  for (const SelectItem& item : *items_) {
    if (item.star) {
      for (const Row& slot : t.slots) {
        for (const Value& v : slot) row.push_back(v);
      }
    } else {
      row.push_back(ProjectColumn(resolver_, item.column));
    }
  }
  out->slots.assign(1, std::move(row));
  out->rids.assign(1, kInvalidRowId);
  ++stats_.rows_out;
  return true;
}

std::string ProjectOp::detail() const {
  std::vector<std::string> parts;
  for (const SelectItem& item : *items_) parts.push_back(item.ToString());
  return Join(parts, ", ");
}

// --- SortOp --------------------------------------------------------------

void SortOp::EnsureSorted() {
  if (sorted_) return;
  ExecTuple t;
  while (child_->Next(&t)) {
    ++stats_.rows_in;
    buffer_.push_back(std::move(t));
  }
  if (mode_ == Mode::kTupleKeys) {
    stats_.sort_rows += static_cast<int64_t>(buffer_.size());
    // Precompute each tuple's sort key once (one Bind + one column
    // resolution per key column), then sort an index permutation. The
    // comparator used to re-Bind and re-resolve both sides on every
    // comparison — O(n log n) resolver work instead of O(n).
    std::vector<Row> keys(buffer_.size());
    for (size_t i = 0; i < buffer_.size(); ++i) {
      resolver_.Bind(&buffer_[i], nullptr);
      keys[i].reserve(order_by_->size());
      for (const OrderByItem& o : *order_by_) {
        keys[i].push_back(ProjectColumn(resolver_, o.column));
      }
    }
    std::vector<size_t> order(buffer_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                       for (size_t j = 0; j < order_by_->size(); ++j) {
                         ++stats_.comparisons;
                         const int c = keys[a][j].Compare(keys[b][j]);
                         if (c != 0) {
                           return (*order_by_)[j].desc ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
    std::vector<ExecTuple> sorted;
    sorted.reserve(buffer_.size());
    for (size_t idx : order) sorted.push_back(std::move(buffer_[idx]));
    buffer_ = std::move(sorted);
  } else {
    std::stable_sort(buffer_.begin(), buffer_.end(),
                     [&](const ExecTuple& a, const ExecTuple& b) {
                       for (const auto& [slot, desc] : slot_keys_) {
                         ++stats_.comparisons;
                         const int c = a.slots[0][static_cast<size_t>(slot)]
                                           .Compare(
                                               b.slots[0][static_cast<size_t>(
                                                   slot)]);
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }
  sorted_ = true;
}

bool SortOp::DoNext(ExecTuple* out) {
  EnsureSorted();
  if (cursor_ >= buffer_.size()) return false;
  *out = buffer_[cursor_++];
  ++stats_.rows_out;
  return true;
}

std::string SortOp::detail() const {
  std::vector<std::string> keys;
  if (mode_ == Mode::kTupleKeys) {
    for (const OrderByItem& o : *order_by_) {
      keys.push_back(o.column.ToString() + (o.desc ? " desc" : ""));
    }
  } else {
    for (const auto& [slot, desc] : slot_keys_) {
      keys.push_back("slot " + std::to_string(slot) + (desc ? " desc" : ""));
    }
  }
  return "by " + Join(keys, ", ");
}

// --- LimitOp -------------------------------------------------------------

bool LimitOp::DoNext(ExecTuple* out) {
  // Short-circuit: once satisfied, never pull the child again (the whole
  // point of LIMIT). Draining here used to force full upstream scans.
  if (emitted_ >= limit_) return false;
  ExecTuple t;
  if (!child_->Next(&t)) return false;
  ++stats_.rows_in;
  *out = std::move(t);
  ++emitted_;
  ++stats_.rows_out;
  return true;
}

// --- HashAggregateOp -----------------------------------------------------

void HashAggregateOp::EnsureAggregated() {
  if (aggregated_) return;
  std::unordered_map<Row, AggState, GroupKeyHash, GroupKeyEq> groups;
  ExecTuple t;
  while (child_->Next(&t)) {
    ++stats_.rows_in;
    resolver_.Bind(&t, nullptr);
    Row key;
    for (const ColumnRef& g : *group_by_) {
      key.push_back(ProjectColumn(resolver_, g));
    }
    AggState& st = groups[key];
    if (st.count == 0) {
      st.sums.assign(items_->size(), 0.0);
      st.mins.assign(items_->size(), Value());
      st.maxs.assign(items_->size(), Value());
      st.non_null.assign(items_->size(), 0);
      st.non_numeric.assign(items_->size(), false);
    }
    ++st.count;
    for (size_t k = 0; k < items_->size(); ++k) {
      const SelectItem& item = (*items_)[k];
      if (item.agg == AggFunc::kNone || item.star) continue;
      const Value* v = resolver_.Resolve(item.column);
      if (v == nullptr || v->is_null()) continue;
      ++st.non_null[k];
      if (v->type() == ValueType::kString) {
        st.non_numeric[k] = true;
      } else {
        st.sums[k] += v->AsDouble();
      }
      if (st.mins[k].is_null() || v->Compare(st.mins[k]) < 0) st.mins[k] = *v;
      if (st.maxs[k].is_null() || v->Compare(st.maxs[k]) > 0) st.maxs[k] = *v;
    }
  }
  if (groups.empty() && group_by_->empty()) {
    // COUNT over empty input yields one zero row.
    AggState& st = groups[Row()];
    st.sums.assign(items_->size(), 0.0);
    st.mins.assign(items_->size(), Value());
    st.maxs.assign(items_->size(), Value());
    st.non_null.assign(items_->size(), 0);
    st.non_numeric.assign(items_->size(), false);
  }
  stats_.sort_rows += static_cast<int64_t>(groups.size());
  for (const auto& [key, st] : groups) {
    Row out;
    for (size_t k = 0; k < items_->size(); ++k) {
      const SelectItem& item = (*items_)[k];
      switch (item.agg) {
        case AggFunc::kNone: {
          // A grouped plain column: take it from the key when possible.
          bool from_key = false;
          for (size_t g = 0; g < group_by_->size(); ++g) {
            if ((*group_by_)[g].column == item.column.column) {
              out.push_back(key[g]);
              from_key = true;
              break;
            }
          }
          if (!from_key) out.push_back(Value::Null());
          break;
        }
        case AggFunc::kCount: {
          const size_t n = item.star ? st.count : st.non_null[k];
          out.emplace_back(static_cast<int64_t>(n));
          break;
        }
        case AggFunc::kSum:
          // SUM/AVG over non-numeric input is NULL — a string column used
          // to contribute 0.0 silently.
          out.push_back(st.non_null[k] == 0 || st.non_numeric[k]
                            ? Value::Null()
                            : Value(st.sums[k]));
          break;
        case AggFunc::kAvg:
          out.push_back(st.non_null[k] == 0 || st.non_numeric[k]
                            ? Value::Null()
                            : Value(st.sums[k] / st.non_null[k]));
          break;
        case AggFunc::kMin:
          out.push_back(st.mins[k]);
          break;
        case AggFunc::kMax:
          out.push_back(st.maxs[k]);
          break;
      }
    }
    out_rows_.push_back(std::move(out));
  }
  aggregated_ = true;
}

bool HashAggregateOp::DoNext(ExecTuple* out) {
  EnsureAggregated();
  if (cursor_ >= out_rows_.size()) return false;
  out->slots.assign(1, out_rows_[cursor_++]);
  out->rids.assign(1, kInvalidRowId);
  ++stats_.rows_out;
  return true;
}

std::string HashAggregateOp::detail() const {
  if (group_by_->empty()) return "single group";
  std::vector<std::string> keys;
  for (const ColumnRef& g : *group_by_) keys.push_back(g.ToString());
  return "group by " + Join(keys, ", ");
}

}  // namespace autoindex
