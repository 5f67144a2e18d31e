#include "persist/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "persist/io.h"
#include "persist/serde.h"
#include "persist/sql_serde.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace autoindex {
namespace persist {
namespace {

// WAL observability series (DESIGN.md §11): append/fsync latency is the
// durability tax every committed write pays.
struct WalMetrics {
  util::Counter* appends;
  util::Counter* append_bytes;
  util::LatencyHistogram* append_us;
  util::Counter* fsyncs;
  util::LatencyHistogram* fsync_us;

  static const WalMetrics& Get() {
    static const WalMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::Default();
      return WalMetrics{registry.GetCounter("wal.appends"),
                        registry.GetCounter("wal.append_bytes"),
                        registry.GetHistogram("wal.append_us"),
                        registry.GetCounter("wal.fsyncs"),
                        registry.GetHistogram("wal.fsync_us")};
    }();
    return metrics;
  }
};

constexpr char kWalMagic[] = "AIXWAL01";
constexpr uint32_t kWalVersion = 1;
// magic (8) + format version (u32) + epoch (u64).
constexpr size_t kHeaderBytes = 8 + 4 + 8;
// payload size (u32) + crc (u32).
constexpr size_t kRecordHeaderBytes = 4 + 4;

std::string SerializeHeader(uint64_t epoch) {
  Writer w;
  w.PutBytes(kWalMagic, 8);
  w.PutU32(kWalVersion);
  w.PutU64(epoch);
  return w.buffer();
}

std::string SerializePayload(const WalRecord& record) {
  Writer w;
  w.PutU8(static_cast<uint8_t>(record.type));
  w.PutU64(record.data_version);
  switch (record.type) {
    case WalRecord::Type::kStatement:
      PutStatement(&w, record.stmt);
      break;
    case WalRecord::Type::kCreateTable:
      w.PutString(record.name);
      PutSchema(&w, record.schema);
      break;
    case WalRecord::Type::kCreateIndex:
      PutIndexDef(&w, record.def);
      break;
    case WalRecord::Type::kDropIndex:
    case WalRecord::Type::kAnalyze:
      w.PutString(record.name);
      break;
    case WalRecord::Type::kBulkInsert:
      w.PutString(record.name);
      w.PutU32(static_cast<uint32_t>(record.rows.size()));
      for (const Row& row : record.rows) PutRow(&w, row);
      break;
  }
  return w.buffer();
}

// Decodes one payload. False (with the reader poisoned or not even that —
// an unknown type tag) means the record is not usable; since the CRC
// already matched, that can only be version skew or a bug, and replay
// stops there as it would for a torn record.
bool DecodePayload(const std::string& payload, WalRecord* out) {
  Reader r(payload);
  const uint8_t type_tag = r.GetU8();
  if (type_tag < static_cast<uint8_t>(WalRecord::Type::kStatement) ||
      type_tag > static_cast<uint8_t>(WalRecord::Type::kAnalyze)) {
    return false;
  }
  out->type = static_cast<WalRecord::Type>(type_tag);
  out->data_version = r.GetU64();
  switch (out->type) {
    case WalRecord::Type::kStatement:
      out->stmt = GetStatement(&r);
      break;
    case WalRecord::Type::kCreateTable:
      out->name = r.GetString();
      out->schema = GetSchema(&r);
      break;
    case WalRecord::Type::kCreateIndex:
      out->def = GetIndexDef(&r);
      break;
    case WalRecord::Type::kDropIndex:
    case WalRecord::Type::kAnalyze:
      out->name = r.GetString();
      break;
    case WalRecord::Type::kBulkInsert: {
      out->name = r.GetString();
      const uint32_t nrows = r.GetU32();
      for (uint32_t i = 0; i < nrows && r.ok(); ++i) {
        out->rows.push_back(GetRow(&r));
      }
      break;
    }
  }
  return r.AtEnd();
}

}  // namespace

Wal::Wal(std::string path, uint64_t epoch, WalOptions options)
    : path_(std::move(path)), epoch_(epoch), options_(options) {}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

Status Wal::OpenFd(bool truncate) {
  int flags = O_WRONLY | O_CREAT;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) {
    return Status::Internal(
        StrCat("open failed for ", path_, ": ", std::strerror(errno)));
  }
  if (truncate) {
    const std::string header = SerializeHeader(epoch_);
    Status s = CrashCheckedWrite(fd_, header.data(), header.size());
    if (s.ok() && ::fsync(fd_) != 0) {
      s = Status::Internal(
          StrCat("fsync failed for ", path_, ": ", std::strerror(errno)));
    }
    if (!s.ok()) return s;
    size_bytes_ = header.size();
  } else {
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) {
      return Status::Internal(
          StrCat("lseek failed for ", path_, ": ", std::strerror(errno)));
    }
    size_bytes_ = static_cast<uint64_t>(end);
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<Wal>> Wal::Create(const std::string& path,
                                           uint64_t checkpoint_data_version,
                                           WalOptions options) {
  auto wal = std::make_unique<Wal>(path, checkpoint_data_version, options);
  Status s = wal->OpenFd(/*truncate=*/true);
  if (!s.ok()) return s;
  return wal;
}

StatusOr<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                         WalReplay* replay,
                                         WalOptions options) {
  std::string bytes;
  Status s = ReadFileToString(path, &bytes);
  if (!s.ok()) return s;
  if (bytes.size() < kHeaderBytes ||
      bytes.compare(0, 8, kWalMagic, 8) != 0) {
    return Status::InvalidArgument(
        StrCat("not a WAL file (bad magic or short header): ", path));
  }
  Reader header(bytes.data() + 8, kHeaderBytes - 8);
  const uint32_t version = header.GetU32();
  if (version != kWalVersion) {
    return Status::InvalidArgument(
        StrCat("WAL format version ", version, " unsupported"));
  }
  replay->epoch = header.GetU64();
  replay->records.clear();
  replay->bytes_truncated = 0;

  // Scan records; the first incomplete or checksum-failing record ends the
  // durable prefix.
  size_t pos = kHeaderBytes;
  size_t durable_end = pos;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kRecordHeaderBytes) break;
    Reader frame(bytes.data() + pos, kRecordHeaderBytes);
    const uint32_t payload_size = frame.GetU32();
    const uint32_t crc = frame.GetU32();
    if (bytes.size() - pos - kRecordHeaderBytes < payload_size) break;
    const std::string payload =
        bytes.substr(pos + kRecordHeaderBytes, payload_size);
    if (Crc32(payload.data(), payload.size()) != crc) break;
    WalRecord record;
    if (!DecodePayload(payload, &record)) break;
    replay->records.push_back(std::move(record));
    pos += kRecordHeaderBytes + payload_size;
    durable_end = pos;
  }
  replay->bytes_truncated = bytes.size() - durable_end;
  if (replay->bytes_truncated > 0) {
    s = TruncateFile(path, durable_end);
    if (!s.ok()) return s;
  }

  auto wal = std::make_unique<Wal>(path, replay->epoch, options);
  wal->records_appended_ = replay->records.size();
  s = wal->OpenFd(/*truncate=*/false);
  if (!s.ok()) return s;
  return wal;
}

Status Wal::AppendRecord(const WalRecord& record) {
  if (fd_ < 0) return Status::Internal("WAL is not open");
  obs::ScopedSpan append_span("wal.append", WalMetrics::Get().append_us);
  const std::string payload = SerializePayload(record);
  Writer frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32(payload.data(), payload.size()));
  frame.PutBytes(payload.data(), payload.size());
  Status s = CrashCheckedWrite(fd_, frame.buffer().data(), frame.size());
  if (!s.ok()) {
    append_span.SkipSample();  // failed writes would skew the series
    return s;
  }
  size_bytes_ += frame.size();
  ++records_appended_;
  WalMetrics::Get().appends->Add();
  WalMetrics::Get().append_bytes->Add(frame.size());
  if (options_.fsync_each_append) return Sync();
  return Status::Ok();
}

Status Wal::Sync() {
  if (fd_ < 0) return Status::Internal("WAL is not open");
  obs::ScopedSpan fsync_span("wal.fsync", WalMetrics::Get().fsync_us);
  if (::fsync(fd_) != 0) {
    fsync_span.SkipSample();
    return Status::Internal(
        StrCat("fsync failed for ", path_, ": ", std::strerror(errno)));
  }
  WalMetrics::Get().fsyncs->Add();
  return Status::Ok();
}

Status Wal::AppendStatement(const Statement& stmt, uint64_t data_version) {
  WalRecord record;
  record.type = WalRecord::Type::kStatement;
  record.data_version = data_version;
  record.stmt = stmt.Clone();
  return AppendRecord(record);
}

Status Wal::AppendCreateTable(const std::string& name, const Schema& schema,
                              uint64_t data_version) {
  WalRecord record;
  record.type = WalRecord::Type::kCreateTable;
  record.data_version = data_version;
  record.name = name;
  record.schema = schema;
  return AppendRecord(record);
}

Status Wal::AppendCreateIndex(const IndexDef& def, uint64_t data_version) {
  WalRecord record;
  record.type = WalRecord::Type::kCreateIndex;
  record.data_version = data_version;
  record.def = def;
  return AppendRecord(record);
}

Status Wal::AppendDropIndex(const std::string& key_or_name,
                            uint64_t data_version) {
  WalRecord record;
  record.type = WalRecord::Type::kDropIndex;
  record.data_version = data_version;
  record.name = key_or_name;
  return AppendRecord(record);
}

Status Wal::AppendBulkInsert(const std::string& table,
                             const std::vector<Row>& rows,
                             uint64_t data_version) {
  WalRecord record;
  record.type = WalRecord::Type::kBulkInsert;
  record.data_version = data_version;
  record.name = table;
  record.rows = rows;
  return AppendRecord(record);
}

Status Wal::AppendAnalyze(const std::string& table, uint64_t data_version) {
  WalRecord record;
  record.type = WalRecord::Type::kAnalyze;
  record.data_version = data_version;
  record.name = table;
  return AppendRecord(record);
}

Status Wal::OnCheckpoint(uint64_t checkpoint_data_version) {
  // Atomic reset: the fresh header lands via rename, so a crash mid-reset
  // leaves the old log (whose stale epoch replay skips) intact.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  epoch_ = checkpoint_data_version;
  Status s = AtomicWriteFile(path_, SerializeHeader(epoch_));
  if (!s.ok()) return s;
  records_appended_ = 0;
  return OpenFd(/*truncate=*/false);
}

}  // namespace persist
}  // namespace autoindex
