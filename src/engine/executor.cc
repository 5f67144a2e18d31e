#include "engine/executor.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "util/metrics.h"

namespace autoindex {
namespace {

// Executor observability (DESIGN.md §11): statement totals. The
// per-operator-kind breakdown is recorded as each operator closes
// (PhysicalOperator::Close).
struct ExecutorMetrics {
  util::Counter* statements;
  util::Counter* rows_returned;
  util::Counter* heap_pages_read;
  util::Counter* index_pages_read;
  util::Counter* tuples_examined;
  util::Counter* index_tuples_read;

  static const ExecutorMetrics& Get() {
    static const ExecutorMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::Default();
      return ExecutorMetrics{
          registry.GetCounter("executor.statements"),
          registry.GetCounter("executor.rows_returned"),
          registry.GetCounter("executor.heap_pages_read"),
          registry.GetCounter("executor.index_pages_read"),
          registry.GetCounter("executor.tuples_examined"),
          registry.GetCounter("executor.index_tuples_read")};
    }();
    return metrics;
  }
};

// Pulls a lowered pipeline to completion, handing each tuple to `emit`,
// and leaves the plan's access paths, snapshot, summed operator counters
// and access-path feedback in *result.
template <typename Emit>
void RunPipeline(const PhysicalPlan& pplan, const CostParams& params,
                 ExecResult* result, Emit emit) {
  result->indexes_used = pplan.indexes_used;
  result->stats.used_index = pplan.used_index;
  pplan.root->Open();
  ExecTuple tuple;
  while (pplan.root->Next(&tuple)) emit(&tuple);
  pplan.root->Close();
  result->plan = pplan.root->Snapshot();
  AccumulateOperatorCounters(*result->plan, &result->stats);
  CollectAccessPathFeedback(*pplan.root, params, &result->feedback);
}

}  // namespace

std::vector<IndexStatsView> Executor::BuiltConfig(
    const std::string& table) const {
  std::vector<IndexStatsView> out;
  for (const BuiltIndex* index : indexes_->IndexesOnTable(table)) {
    IndexStatsView view;
    view.def = index->def();
    view.num_entries = index->num_entries();
    view.height = index->height();
    view.size_bytes = index->SizeBytes();
    view.partitions = index->num_trees();
    out.push_back(std::move(view));
  }
  return out;
}

StatusOr<ExecResult> Executor::Execute(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecuteSelect(*stmt.select);
    case StatementKind::kInsert:
      return ExecuteInsert(*stmt.insert);
    case StatementKind::kUpdate:
      return ExecuteUpdate(*stmt.update);
    case StatementKind::kDelete:
      return ExecuteDelete(*stmt.del);
  }
  return Status::Internal("unknown statement kind");
}

// Retains the statement's pipeline snapshot and final stats for the plan
// validator, then forwards the collected feedback to the installed hook.
void Executor::FinishStatement(const ExecResult& result) {
  last_plan_ = result.plan;
  last_plan_stats_ = result.stats;
  if constexpr (util::kMetricsEnabled) {
    const ExecutorMetrics& metrics = ExecutorMetrics::Get();
    metrics.statements->Add();
    metrics.rows_returned->Add(result.stats.rows_returned);
    metrics.heap_pages_read->Add(result.stats.heap_pages_read);
    metrics.index_pages_read->Add(result.stats.index_pages_read);
    metrics.tuples_examined->Add(result.stats.tuples_examined);
    metrics.index_tuples_read->Add(result.stats.index_tuples_read);
  }
  if (feedback_hook_ && !result.feedback.empty()) {
    feedback_hook_(result.feedback);
  }
}

StatusOr<ExecResult> Executor::ExecuteSelect(const SelectStatement& stmt) {
  // Plan against the real (built) indexes of every referenced table.
  std::vector<IndexStatsView> config;
  for (const TableRef& ref : stmt.from) {
    std::vector<IndexStatsView> per = BuiltConfig(ref.table);
    config.insert(config.end(), per.begin(), per.end());
  }
  obs::ScopedSpan plan_span("plan");
  StatusOr<SelectPlan> plan_or = planner_.PlanSelect(stmt, config);
  if (!plan_or.ok()) return plan_or.status();
  const std::unique_ptr<PhysicalPlan> pplan =
      LowerSelect(stmt, std::move(*plan_or), catalog_, indexes_);
  plan_span.End();

  ExecResult result;
  RunPipeline(*pplan, params_, &result, [&](ExecTuple* t) {
    result.rows.push_back(std::move(t->slots[0]));
  });
  result.stats.rows_returned = result.rows.size();
  FinishStatement(result);
  return result;
}

StatusOr<std::vector<RowId>> Executor::LookupRows(const std::string& table,
                                                  const Expr* where,
                                                  ExecResult* result) {
  HeapTable* t = catalog_->GetTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  obs::ScopedSpan plan_span("plan");
  StatusOr<TablePlan> tp_or =
      planner_.PlanWriteLookup(table, where, BuiltConfig(table));
  if (!tp_or.ok()) return tp_or.status();
  const std::unique_ptr<PhysicalPlan> pplan =
      LowerWriteLookup(std::move(*tp_or), where, catalog_, indexes_);
  plan_span.End();
  std::vector<RowId> out;
  RunPipeline(*pplan, params_, result,
              [&](ExecTuple* tuple) { out.push_back(tuple->rids[0]); });
  return out;
}

StatusOr<ExecResult> Executor::ExecuteInsert(const InsertStatement& stmt) {
  HeapTable* t = catalog_->GetTable(stmt.table);
  if (t == nullptr) return Status::NotFound("no such table: " + stmt.table);
  ExecResult result;
  const Schema& schema = t->schema();

  // All-or-nothing: every row is shaped and checked before the first one
  // reaches the heap, so a bad row cannot leave earlier rows live in
  // memory while the failed statement writes no WAL record.
  std::vector<size_t> ords;  // schema ordinal of each listed column
  for (const std::string& col : stmt.columns) {
    const int ord = schema.FindColumn(col);
    if (ord < 0) {
      return Status::NotFound("no column " + col + " in " + stmt.table);
    }
    ords.push_back(static_cast<size_t>(ord));
  }
  std::vector<Row> rows;
  for (const Row& src : stmt.rows) {
    if (ords.empty()) {
      rows.push_back(src);
    } else {
      if (src.size() != ords.size()) {
        return Status::InvalidArgument("VALUES arity mismatch");
      }
      Row& row = rows.emplace_back(schema.num_columns(), Value::Null());
      for (size_t i = 0; i < ords.size(); ++i) row[ords[i]] = src[i];
    }
    Status s = t->CheckArity(rows.back());
    if (!s.ok()) return s;
  }

  // Pre-capture per-index stats for the maintenance formulas.
  struct IndexSnapshot {
    BuiltIndex* index;
    size_t splits_before;
  };
  // Write-visible = ready + in-flight builds: an online build must see
  // every mutation (buffered into its side delta) or the published index
  // would miss rows.
  std::vector<IndexSnapshot> snaps;
  for (BuiltIndex* bi : indexes_->WriteVisibleOnTable(stmt.table)) {
    snaps.push_back({bi, bi->num_splits()});
  }

  const size_t inserted = rows.size();
  for (Row& row : rows) {
    StatusOr<RowId> rid = t->Insert(std::move(row));
    if (!rid.ok()) return rid.status();
    // Index maintenance: inserts update indexes immediately (Sec. V).
    for (IndexSnapshot& snap : snaps) {
      snap.index->InsertEntry(t->Get(*rid), *rid);
      snap.index->RecordMaintenance();
      ++result.stats.index_entries_written;
      result.stats.maint_cpu_cost += IndexUpdateCpuCost(
          snap.index->num_entries(), snap.index->height(), 1, params_);
    }
  }
  // Heap pages dirtied (append-only): number of pages the new rows span.
  result.stats.pages_written +=
      std::max<size_t>(1, (inserted + t->RowsPerPage() - 1) /
                              std::max<size_t>(1, t->RowsPerPage()));
  // Index page writes: one leaf write per entry plus structural splits.
  for (IndexSnapshot& snap : snaps) {
    const size_t splits = snap.index->num_splits() - snap.splits_before;
    result.stats.index_pages_written += inserted + splits;
  }
  result.stats.rows_returned = inserted;
  // No read pipeline ran: result.plan is empty, so FinishStatement also
  // clears the retained snapshot and the validator does not check a
  // stale plan against this statement's stats.
  FinishStatement(result);
  return result;
}

StatusOr<ExecResult> Executor::ExecuteUpdate(const UpdateStatement& stmt) {
  HeapTable* t = catalog_->GetTable(stmt.table);
  if (t == nullptr) return Status::NotFound("no such table: " + stmt.table);
  ExecResult result;
  StatusOr<std::vector<RowId>> rids =
      LookupRows(stmt.table, stmt.where.get(), &result);
  if (!rids.ok()) return rids.status();

  const Schema& schema = t->schema();
  std::vector<std::pair<int, Value>> sets;
  for (const auto& [col, val] : stmt.assignments) {
    const int ord = schema.FindColumn(col);
    if (ord < 0) {
      return Status::NotFound("no column " + col + " in " + stmt.table);
    }
    sets.emplace_back(ord, val);
  }

  for (RowId rid : *rids) {
    const Row old_row = t->Get(rid);
    Row new_row = old_row;
    for (const auto& [ord, val] : sets) {
      new_row[static_cast<size_t>(ord)] = val;
    }
    Status s = t->Update(rid, new_row);
    if (!s.ok()) return s;
    // Updates refresh affected indexes immediately (Sec. V): only indexes
    // whose key (or, for local indexes, shard) actually changed pay the
    // maintenance cost. Write-visible so in-flight builds see the change.
    for (BuiltIndex* bi : indexes_->WriteVisibleOnTable(stmt.table)) {
      const Row old_key = bi->KeyFromRow(old_row);
      const Row new_key = bi->KeyFromRow(new_row);
      const bool shard_moved =
          bi->is_local() &&
          t->PartitionOfRow(old_row) != t->PartitionOfRow(new_row);
      if (CompareRows(old_key, new_key) == 0 && !shard_moved) continue;
      const size_t splits_before = bi->num_splits();
      bi->DeleteEntry(old_row, rid);
      bi->InsertEntry(new_row, rid);
      bi->RecordMaintenance();
      ++result.stats.index_entries_written;
      result.stats.index_pages_written +=
          2 + (bi->num_splits() - splits_before);
      result.stats.maint_cpu_cost += IndexUpdateCpuCost(
          bi->num_entries(), bi->height(), 1, params_);
    }
  }
  result.stats.pages_written += std::min<size_t>(
      rids->size(), std::max<size_t>(1, t->NumPages()));
  if (rids->empty()) result.stats.pages_written = 0;
  result.stats.rows_returned = rids->size();
  FinishStatement(result);
  return result;
}

StatusOr<ExecResult> Executor::ExecuteDelete(const DeleteStatement& stmt) {
  HeapTable* t = catalog_->GetTable(stmt.table);
  if (t == nullptr) return Status::NotFound("no such table: " + stmt.table);
  ExecResult result;
  StatusOr<std::vector<RowId>> rids =
      LookupRows(stmt.table, stmt.where.get(), &result);
  if (!rids.ok()) return rids.status();

  for (RowId rid : *rids) {
    const Row old_row = t->Get(rid);
    Status s = t->Delete(rid);
    if (!s.ok()) return s;
    // Deletes defer index maintenance (Sec. V: "deletes update the index
    // after finishing the query, whose index update cost is 0"). We still
    // remove the entries to keep indexes consistent, but charge no
    // maintenance CPU/IO to the query. Write-visible so in-flight builds
    // see the delete.
    for (BuiltIndex* bi : indexes_->WriteVisibleOnTable(stmt.table)) {
      bi->DeleteEntry(old_row, rid);
    }
  }
  result.stats.pages_written +=
      rids->empty() ? 0
                    : std::min<size_t>(rids->size(),
                                       std::max<size_t>(1, t->NumPages()));
  result.stats.rows_returned = rids->size();
  FinishStatement(result);
  return result;
}

}  // namespace autoindex
