#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"
#include "util/status.h"

namespace autoindex {

// Stable identifier of a row within one table (slot number; never reused).
using RowId = uint64_t;
inline constexpr RowId kInvalidRowId = ~0ULL;

// Logical page size used for IO accounting across the whole engine
// (heap pages and index pages alike).
inline constexpr size_t kPageSizeBytes = 8192;

// An append-only heap table with tombstone deletes. Rows live in insertion
// order; the slot id is the RowId. Page accounting is logical: rows are
// assigned to fixed-capacity pages in slot order, so a sequential scan of
// the table "reads" NumPages() pages — this feeds the cost model.
//
// Thread safety: row data (Insert/Update/Delete/Scan/Get) must run under
// the table's latch (shared for reads, exclusive for writes) — see
// storage/latch_manager.h. The size counters (num_rows/num_slots/NumPages/
// SizeBytes) are atomics so the tuning thread may sample them without a
// latch for cost estimation and budget accounting.
class HeapTable {
 public:
  HeapTable(std::string name, Schema schema);

  HeapTable(const HeapTable&) = delete;
  HeapTable& operator=(const HeapTable&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  // --- hash partitioning (for global/local index type selection) ---
  // Declares the table hash-partitioned on `column` into `num_partitions`
  // shards. Storage layout is unchanged (partitioning here only routes
  // index entries); returns false if the column does not exist.
  bool SetPartitioning(const std::string& column, size_t num_partitions);
  bool partitioned() const { return partition_column_ >= 0; }
  int partition_column() const { return partition_column_; }
  size_t num_partitions() const { return num_partitions_; }
  // The shard a value of the partition column routes to.
  size_t PartitionOfValue(const Value& v) const {
    return num_partitions_ == 0 ? 0 : v.Hash() % num_partitions_;
  }
  size_t PartitionOfRow(const Row& row) const {
    if (partition_column_ < 0) return 0;
    return PartitionOfValue(row[static_cast<size_t>(partition_column_)]);
  }

  // Number of live (non-deleted) rows.
  size_t num_rows() const {
    return live_rows_.load(std::memory_order_relaxed);
  }
  // Total slots ever allocated, including tombstones.
  size_t num_slots() const {
    return allocated_slots_.load(std::memory_order_relaxed);
  }

  // Rows per logical heap page under this schema (>= 1).
  size_t RowsPerPage() const { return rows_per_page_; }
  // Heap pages occupied by the table (based on allocated slots).
  size_t NumPages() const;
  // Estimated on-disk footprint in bytes.
  size_t SizeBytes() const { return NumPages() * kPageSizeBytes; }

  // The page a given slot lives on; used to count distinct pages touched by
  // index scans.
  size_t PageOfRow(RowId rid) const { return rid / rows_per_page_; }

  // Appends a row; the row must match the schema arity. Returns its RowId.
  StatusOr<RowId> Insert(Row row);
  // The only check Insert makes; lets a multi-row writer validate every
  // row before the first one lands.
  Status CheckArity(const Row& row) const;

  // Replaces the row at `rid`. Fails on a deleted or out-of-range slot.
  Status Update(RowId rid, Row row);

  // Tombstones the row at `rid`.
  Status Delete(RowId rid);

  bool IsLive(RowId rid) const {
    return rid < rows_.size() && !deleted_[rid];
  }

  // Row access; caller must check IsLive first.
  const Row& Get(RowId rid) const { return rows_[rid]; }

  // Visits every live row in slot order.
  template <typename Fn>  // Fn(RowId, const Row&)
  void Scan(Fn&& fn) const {
    for (RowId rid = 0; rid < rows_.size(); ++rid) {
      if (!deleted_[rid]) fn(rid, rows_[rid]);
    }
  }

  // --- Test-only corruption hooks -----------------------------------
  // Let check_test damage the slot accounting to prove the heap validator
  // detects it (see src/check/). Never call outside tests.
  void TestOnlySetLiveRows(size_t n) {
    live_rows_.store(n, std::memory_order_relaxed);
  }
  // Drops the last column of a live row, breaking schema arity; false if
  // the slot is dead, out of range, or already empty.
  bool TestOnlyTruncateRow(RowId rid) {
    if (!IsLive(rid) || rows_[rid].empty()) return false;
    rows_[rid].pop_back();
    return true;
  }

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  std::vector<bool> deleted_;
  // Counters shadow rows_/deleted_ so they can be read without the latch.
  std::atomic<size_t> live_rows_{0};
  std::atomic<size_t> allocated_slots_{0};
  size_t rows_per_page_ = 1;
  int partition_column_ = -1;
  size_t num_partitions_ = 0;
};

}  // namespace autoindex
