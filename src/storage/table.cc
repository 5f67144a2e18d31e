#include "storage/table.h"

#include "util/string_util.h"

namespace autoindex {

HeapTable::HeapTable(std::string name, Schema schema)
    : name_(ToLower(name)), schema_(std::move(schema)) {
  const size_t row_bytes = schema_.EstimatedRowBytes();
  rows_per_page_ = row_bytes == 0 ? 1 : kPageSizeBytes / row_bytes;
  if (rows_per_page_ == 0) rows_per_page_ = 1;
}

bool HeapTable::SetPartitioning(const std::string& column,
                                size_t num_partitions) {
  const int ord = schema_.FindColumn(column);
  if (ord < 0 || num_partitions == 0) return false;
  partition_column_ = ord;
  num_partitions_ = num_partitions;
  return true;
}

size_t HeapTable::NumPages() const {
  const size_t slots = num_slots();
  if (slots == 0) return 0;
  return (slots + rows_per_page_ - 1) / rows_per_page_;
}

Status HeapTable::CheckArity(const Row& row) const {
  if (row.size() == schema_.num_columns()) return Status::Ok();
  return Status::InvalidArgument(
      StrFormat("table %s expects %zu columns, got %zu", name_.c_str(),
                schema_.num_columns(), row.size()));
}

StatusOr<RowId> HeapTable::Insert(Row row) {
  Status s = CheckArity(row);
  if (!s.ok()) return s;
  rows_.push_back(std::move(row));
  deleted_.push_back(false);
  allocated_slots_.fetch_add(1, std::memory_order_relaxed);
  live_rows_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<RowId>(rows_.size() - 1);
}

Status HeapTable::Update(RowId rid, Row row) {
  if (rid >= rows_.size() || deleted_[rid]) {
    return Status::NotFound(StrFormat("row %llu not found in table %s",
                                      static_cast<unsigned long long>(rid),
                                      name_.c_str()));
  }
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch on update");
  }
  rows_[rid] = std::move(row);
  return Status::Ok();
}

Status HeapTable::Delete(RowId rid) {
  if (rid >= rows_.size() || deleted_[rid]) {
    return Status::NotFound(StrFormat("row %llu not found in table %s",
                                      static_cast<unsigned long long>(rid),
                                      name_.c_str()));
  }
  deleted_[rid] = true;
  live_rows_.fetch_sub(1, std::memory_order_relaxed);
  return Status::Ok();
}

}  // namespace autoindex
