// Durability subsystem tests (label: tier1;recovery): serde primitives,
// checksummed file framing, snapshot round-trips checked differentially
// against the live database, WAL append/replay, and the crash matrix —
// torn WAL tails at every record boundary and checkpoint saves crashed at
// every section boundary must always recover to the prior consistent
// state.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/manager.h"
#include "persist/file_format.h"
#include "persist/io.h"
#include "persist/serde.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "query_gen.h"
#include "util/string_util.h"
#include "workload/trace.h"

namespace autoindex {
namespace {

using persist::FileReader;
using persist::FileWriter;
using persist::Reader;
using persist::RecoveryReport;
using persist::Wal;
using persist::WalReplay;
using persist::Writer;

// A fresh snapshot directory under the test temp dir: created if needed,
// emptied of any leftover durability files from a previous run.
std::string FreshDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  std::remove(persist::CheckpointPath(dir).c_str());
  std::remove((persist::CheckpointPath(dir) + ".tmp").c_str());
  std::remove(persist::WalPath(dir).c_str());
  return dir;
}

// Runs `n` generated queries against both databases and compares result
// multisets; the recovered database must be query-for-query identical.
void ExpectSameResults(Database* a, Database* b, uint64_t seed, int n) {
  querygen::GenContext gen(seed);
  for (int i = 0; i < n; ++i) {
    const std::string sql = gen.RandQuery();
    StatusOr<ExecResult> ra = a->Execute(sql);
    StatusOr<ExecResult> rb = b->Execute(sql);
    ASSERT_EQ(ra.ok(), rb.ok()) << sql;
    if (!ra.ok()) continue;
    ASSERT_EQ(querygen::Canonical(ra->rows), querygen::Canonical(rb->rows))
        << sql;
  }
}

int64_t CountRows(Database* db, const std::string& table) {
  StatusOr<ExecResult> r = db->Execute("SELECT COUNT(*) FROM " + table);
  CheckOk(r.status());
  return std::stoll(r->rows[0][0].ToString());
}

// --- serde primitives ---------------------------------------------------

TEST(Serde, PrimitivesRoundTrip) {
  Writer w;
  w.PutU8(0xAB);
  w.PutBool(true);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutDouble(3.14159265358979);
  w.PutString(std::string("nul\0byte", 8));
  persist::PutValue(&w, Value::Null());
  persist::PutValue(&w, Value(int64_t(-7)));
  persist::PutValue(&w, Value(2.5));
  persist::PutValue(&w, Value(std::string("str")));
  persist::PutRow(&w, {Value(int64_t(1)), Value(std::string("x"))});

  Reader r(w.buffer());
  EXPECT_EQ(r.GetU8(), 0xAB);
  EXPECT_TRUE(r.GetBool());
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_DOUBLE_EQ(r.GetDouble(), 3.14159265358979);
  EXPECT_EQ(r.GetString(), std::string("nul\0byte", 8));
  EXPECT_TRUE(persist::GetValue(&r).is_null());
  EXPECT_EQ(persist::GetValue(&r).ToString(), "-7");
  EXPECT_DOUBLE_EQ(persist::GetValue(&r).AsDouble(), 2.5);
  EXPECT_EQ(persist::GetValue(&r).ToString(), "str");
  const Row row = persist::GetRow(&r);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serde, ShortReadIsStickyError) {
  Writer w;
  w.PutU32(7);
  Reader r(w.buffer());
  EXPECT_EQ(r.GetU64(), 0u);  // 4 bytes short
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  // Sticky: later reads keep failing and return zero values.
  EXPECT_EQ(r.GetU32(), 0u);
  EXPECT_EQ(r.GetString(), "");
  EXPECT_FALSE(r.AtEnd());
}

TEST(FileFormat, DetectsCorruptionAndTruncation) {
  FileWriter file("AIXTEST1", 3);
  Writer a;
  a.PutString("first section payload");
  file.AddSection(1, a);
  Writer b;
  for (int i = 0; i < 50; ++i) b.PutU64(static_cast<uint64_t>(i));
  file.AddSection(2, b);
  const std::string bytes = file.Serialize();

  // Clean parse.
  StatusOr<FileReader> parsed = FileReader::Parse(bytes, "AIXTEST1", 3);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_sections(), 2u);
  ASSERT_NE(parsed->Find(2), nullptr);
  EXPECT_EQ(parsed->Find(3), nullptr);

  // Wrong magic and wrong version.
  EXPECT_FALSE(FileReader::Parse(bytes, "OTHERMAG", 3).ok());
  EXPECT_FALSE(FileReader::Parse(bytes, "AIXTEST1", 4).ok());

  // Any flipped payload byte fails the section CRC.
  for (size_t pos : {bytes.size() - 1, bytes.size() - 100, size_t{30}}) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    EXPECT_FALSE(FileReader::Parse(corrupt, "AIXTEST1", 3).ok())
        << "flip at " << pos;
  }

  // Truncation anywhere strictly inside a section fails; truncation at a
  // section boundary parses the complete prefix.
  const std::vector<size_t> boundaries = file.SectionBoundaries();
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    const size_t mid = (boundaries[i] + boundaries[i + 1]) / 2;
    EXPECT_FALSE(
        FileReader::Parse(bytes.substr(0, mid), "AIXTEST1", 3).ok())
        << "cut at " << mid;
    StatusOr<FileReader> prefix =
        FileReader::Parse(bytes.substr(0, boundaries[i]), "AIXTEST1", 3);
    ASSERT_TRUE(prefix.ok());
    EXPECT_EQ(prefix->num_sections(), i);
  }
}

// --- snapshot round-trip ------------------------------------------------

// Live database vs save/load round-trip: 200 generated queries must agree.
TEST(Snapshot, DifferentialRoundTrip) {
  const std::string dir = FreshDir("snap_roundtrip");
  Database db;
  querygen::BuildPropertyTestTables(&db, 7);
  // Mix in deletes/updates so tombstones and moved rows are exercised, and
  // a couple of real indexes so rebuild-on-load runs.
  CheckOk(db.Execute("DELETE FROM t1 WHERE a = 3"));
  CheckOk(db.Execute("UPDATE t1 SET b = 39 WHERE c = 5"));
  CheckOk(db.Execute("DELETE FROM t2 WHERE x > 35"));
  db.Analyze();
  IndexDef idx1;
  idx1.table = "t1";
  idx1.columns = {"b"};
  CheckOk(db.CreateIndex(idx1));
  IndexDef idx2;
  idx2.table = "t2";
  idx2.columns = {"x", "y"};
  CheckOk(db.CreateIndex(idx2));

  StatusOr<uint64_t> saved = persist::SaveSnapshot(&db, nullptr, dir);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(*saved, db.data_version());

  Database restored;
  RecoveryReport report;
  StatusOr<std::unique_ptr<Wal>> wal =
      persist::OpenSnapshot(&restored, nullptr, dir, &report);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(report.tables_restored, 2u);
  EXPECT_EQ(report.indexes_rebuilt, 2u);
  EXPECT_EQ(report.wal_records_replayed, 0u);
  EXPECT_EQ(restored.data_version(), db.data_version());
  EXPECT_EQ(restored.index_manager().num_indexes(), 2u);

  ExpectSameResults(&db, &restored, 1234, 200);
}

// Saving, loading, and saving again must produce byte-identical
// checkpoints: every container is serialized in a deterministic order and
// the reload reproduces heap layout (RowIds, tombstones) exactly.
TEST(Snapshot, CheckpointBytesAreStableAcrossReload) {
  const std::string dir = FreshDir("snap_stable");
  Database db;
  AutoIndexConfig config;
  config.mcts.iterations = 40;
  AutoIndexManager manager(&db, config);
  querygen::BuildPropertyTestTables(&db, 11);
  CheckOk(db.Execute("DELETE FROM t1 WHERE b = 9"));
  IndexDef idx;
  idx.table = "t1";
  idx.columns = {"a"};
  CheckOk(db.CreateIndex(idx));
  for (int i = 0; i < 40; ++i) {
    CheckOk(manager.ExecuteAndObserve(
        StrFormat("SELECT a, b, c FROM t1 WHERE b = %d", i % 17)));
  }

  StatusOr<FileWriter> first = persist::BuildCheckpoint(db, &manager);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->WriteAtomic(persist::CheckpointPath(dir)).ok());

  Database restored;
  AutoIndexManager restored_manager(&restored, config);
  RecoveryReport report;
  StatusOr<std::unique_ptr<Wal>> wal =
      persist::OpenSnapshot(&restored, &restored_manager, dir, &report);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_TRUE(report.tuning_state_restored);

  StatusOr<FileWriter> second =
      persist::BuildCheckpoint(restored, &restored_manager);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->Serialize(), second->Serialize());
}

// The restored tuning state must drive MCTS to the same recommendation the
// live manager would produce — policy tree, template store, estimator
// feedback, and rng all resume exactly.
TEST(Snapshot, MctsRecommendationSurvivesReload) {
  const std::string dir = FreshDir("snap_mcts");
  Database db;
  AutoIndexConfig config;
  config.mcts.iterations = 80;
  AutoIndexManager manager(&db, config);
  querygen::BuildPropertyTestTables(&db, 3);
  querygen::GenContext gen(77);
  for (int i = 0; i < 120; ++i) {
    CheckOk(manager.ExecuteAndObserve(gen.RandQuery()));
  }

  StatusOr<uint64_t> saved = persist::SaveSnapshot(&db, &manager, dir);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();

  Database restored;
  AutoIndexManager restored_manager(&restored, config);
  RecoveryReport report;
  StatusOr<std::unique_ptr<Wal>> wal =
      persist::OpenSnapshot(&restored, &restored_manager, dir, &report);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE(report.tuning_state_restored);

  const TuningResult live = manager.RunManagementRound(/*apply=*/false);
  const TuningResult replayed =
      restored_manager.RunManagementRound(/*apply=*/false);

  auto names = [](const std::vector<IndexDef>& defs) {
    std::vector<std::string> out;
    for (const IndexDef& def : defs) out.push_back(def.DisplayName());
    return out;
  };
  EXPECT_EQ(names(live.added), names(replayed.added));
  EXPECT_EQ(names(live.removed), names(replayed.removed));
  EXPECT_DOUBLE_EQ(live.est_benefit, replayed.est_benefit);
}

// --- WAL ----------------------------------------------------------------

TEST(Wal, AppendsReplayOntoCheckpoint) {
  const std::string dir = FreshDir("wal_replay");
  Database db;
  querygen::BuildPropertyTestTables(&db, 5);

  StatusOr<uint64_t> saved = persist::SaveSnapshot(&db, nullptr, dir);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  StatusOr<std::unique_ptr<Wal>> wal =
      Wal::Create(persist::WalPath(dir), *saved);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  db.set_durability_log(wal->get());

  size_t writes = 0;
  for (int i = 0; i < 10; ++i) {
    CheckOk(db.Execute(StrFormat(
        "INSERT INTO t1 VALUES (%d, %d, %d, 'v%d')", 100 + i, i, i, i % 6)));
    ++writes;
  }
  CheckOk(db.Execute("UPDATE t1 SET c = 1 WHERE a = 101"));
  CheckOk(db.Execute("DELETE FROM t2 WHERE x = 12"));
  writes += 2;
  IndexDef idx;
  idx.table = "t1";
  idx.columns = {"c"};
  CheckOk(db.CreateIndex(idx));
  ++writes;  // DDL is logged too
  EXPECT_EQ((*wal)->records_appended(), writes);

  Database restored;
  RecoveryReport report;
  StatusOr<std::unique_ptr<Wal>> reopened =
      persist::OpenSnapshot(&restored, nullptr, dir, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(report.wal_records_replayed, writes);
  EXPECT_EQ(report.info.wal_bytes_truncated, 0u);
  EXPECT_EQ(restored.data_version(), db.data_version());
  EXPECT_EQ(restored.index_manager().num_indexes(), 1u);
  ExpectSameResults(&db, &restored, 4321, 100);
  db.set_durability_log(nullptr);
}

// A multi-row INSERT that fails on a later row is all-or-nothing: no row
// of it stays live, so the live table matches what the WAL recovers.
TEST(Wal, FailedMultiRowInsertLeavesNoRowBehind) {
  const std::string dir = FreshDir("wal_failed_insert");
  Database db;
  CheckOk(db.CreateTable("t", Schema({{"a", ValueType::kInt},
                                      {"b", ValueType::kInt}}))
              .status());
  CheckOk(db.Execute("INSERT INTO t VALUES (1, 1)"));
  StatusOr<uint64_t> saved = persist::SaveSnapshot(&db, nullptr, dir);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  StatusOr<std::unique_ptr<Wal>> wal =
      Wal::Create(persist::WalPath(dir), *saved);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  db.set_durability_log(wal->get());

  const int64_t before = CountRows(&db, "t");
  EXPECT_FALSE(db.Execute("INSERT INTO t (a, b) VALUES (2, 2), (3)").ok());
  EXPECT_FALSE(db.Execute("INSERT INTO t (a, zz) VALUES (2, 2)").ok());
  EXPECT_FALSE(db.Execute("INSERT INTO t VALUES (2, 2), (3)").ok());
  EXPECT_EQ(CountRows(&db, "t"), before);
  CheckOk(db.Execute("INSERT INTO t (a, b) VALUES (4, 4)"));
  EXPECT_EQ(CountRows(&db, "t"), before + 1);

  Database restored;
  RecoveryReport report;
  StatusOr<std::unique_ptr<Wal>> reopened =
      persist::OpenSnapshot(&restored, nullptr, dir, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(CountRows(&restored, "t"), CountRows(&db, "t"));
  db.set_durability_log(nullptr);
}

// Tear the WAL at every record boundary and at offsets inside every
// record: recovery must always come back to the longest durable prefix —
// never crash, never apply a torn record.
TEST(Wal, TornTailAlwaysRecoversToDurablePrefix) {
  const std::string dir = FreshDir("wal_torn_src");
  Database db;
  CheckOk(db.CreateTable(
      "k", Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}})));
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(i * 2))});
  }
  CheckOk(db.BulkInsert("k", std::move(rows)));
  db.Analyze();

  StatusOr<uint64_t> saved = persist::SaveSnapshot(&db, nullptr, dir);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  StatusOr<std::unique_ptr<Wal>> wal =
      Wal::Create(persist::WalPath(dir), *saved);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  db.set_durability_log(wal->get());
  const int kAppends = 6;
  for (int i = 0; i < kAppends; ++i) {
    CheckOk(db.Execute(
        StrFormat("INSERT INTO k VALUES (%d, %d)", 100 + i, i)));
  }
  db.set_durability_log(nullptr);

  std::string checkpoint_bytes;
  CheckOk(persist::ReadFileToString(persist::CheckpointPath(dir),
                                    &checkpoint_bytes));
  std::string wal_bytes;
  CheckOk(persist::ReadFileToString(persist::WalPath(dir), &wal_bytes));

  // Record boundaries: 20-byte header, then (8-byte frame + payload)*.
  std::vector<size_t> boundaries;
  size_t pos = 20;
  boundaries.push_back(pos);
  while (pos + 8 <= wal_bytes.size()) {
    Reader frame(wal_bytes.data() + pos, 4);
    pos += 8 + frame.GetU32();
    boundaries.push_back(pos);
  }
  ASSERT_EQ(boundaries.size(), static_cast<size_t>(kAppends) + 1);
  ASSERT_EQ(boundaries.back(), wal_bytes.size());

  std::vector<size_t> cuts = {0, 5, 19};  // inside the header too
  for (size_t b : boundaries) {
    for (size_t c : {b, b + 1, b + 6, b + 13}) {
      if (c <= wal_bytes.size()) cuts.push_back(c);
    }
  }
  const std::string dir2 = FreshDir("wal_torn_cut");
  for (size_t cut : cuts) {
    CheckOk(persist::AtomicWriteFile(persist::CheckpointPath(dir2),
                                     checkpoint_bytes));
    CheckOk(persist::AtomicWriteFile(persist::WalPath(dir2),
                                     wal_bytes.substr(0, cut)));
    // Complete records strictly inside the cut survive; the torn one must
    // be dropped.
    size_t complete = 0;
    while (complete + 1 < boundaries.size() &&
           boundaries[complete + 1] <= cut) {
      ++complete;
    }
    Database restored;
    RecoveryReport report;
    StatusOr<std::unique_ptr<Wal>> reopened =
        persist::OpenSnapshot(&restored, nullptr, dir2, &report);
    ASSERT_TRUE(reopened.ok())
        << "cut at " << cut << ": " << reopened.status().ToString();
    EXPECT_EQ(report.wal_records_replayed, complete) << "cut at " << cut;
    EXPECT_EQ(CountRows(&restored, "k"),
              static_cast<int64_t>(10 + complete))
        << "cut at " << cut;
    EXPECT_EQ(restored.data_version(), *saved + complete)
        << "cut at " << cut;
  }
}

// Crash the checkpoint writer at every section boundary (and inside
// sections): the previous checkpoint must stay intact and loadable, and a
// retry after the "reboot" must succeed.
TEST(Snapshot, CrashedSaveLeavesPreviousCheckpointIntact) {
  const std::string dir = FreshDir("snap_crash");
  Database db;
  CheckOk(db.CreateTable(
      "k", Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}})));
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(i))});
  }
  CheckOk(db.BulkInsert("k", std::move(rows)));
  db.Analyze();
  StatusOr<uint64_t> saved = persist::SaveSnapshot(&db, nullptr, dir);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();

  // Advance to a new state whose save we will crash.
  for (int i = 0; i < 5; ++i) {
    CheckOk(db.Execute(StrFormat("INSERT INTO k VALUES (%d, 0)", 50 + i)));
  }
  StatusOr<FileWriter> image = persist::BuildCheckpoint(db, nullptr);
  ASSERT_TRUE(image.ok());
  const size_t image_size = image->Serialize().size();
  std::vector<size_t> budgets = {0};
  for (size_t b : image->SectionBoundaries()) {
    for (size_t budget : {b, b + 5}) {
      // A budget >= the image size never tears the write; skip it.
      if (budget < image_size) budgets.push_back(budget);
    }
  }

  for (size_t budget : budgets) {
    persist::SetCrashAfterBytes(static_cast<int64_t>(budget));
    StatusOr<uint64_t> crashed = persist::SaveSnapshot(&db, nullptr, dir);
    const bool triggered = persist::CrashTriggered();
    persist::SetCrashAfterBytes(-1);  // disarm (also clears the flag)
    ASSERT_FALSE(crashed.ok()) << "budget " << budget;
    ASSERT_TRUE(triggered) << "budget " << budget;

    // "Reboot": the old checkpoint still loads to the old state.
    Database restored;
    RecoveryReport report;
    StatusOr<std::unique_ptr<Wal>> wal =
        persist::OpenSnapshot(&restored, nullptr, dir, &report);
    ASSERT_TRUE(wal.ok())
        << "budget " << budget << ": " << wal.status().ToString();
    EXPECT_EQ(CountRows(&restored, "k"), 10) << "budget " << budget;
    EXPECT_EQ(restored.data_version(), *saved) << "budget " << budget;
  }

  // With the crash hook disarmed the retry lands the new state.
  StatusOr<uint64_t> retried = persist::SaveSnapshot(&db, nullptr, dir);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  Database restored;
  RecoveryReport report;
  StatusOr<std::unique_ptr<Wal>> wal =
      persist::OpenSnapshot(&restored, nullptr, dir, &report);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(CountRows(&restored, "k"), 15);
}

// --- workload trace hardening -------------------------------------------

TEST(Trace, TruncationAndCorruptionFailWithStatus) {
  const std::string path =
      std::string(::testing::TempDir()) + "/torn.trace";
  const std::vector<std::string> queries = {
      "SELECT a FROM t WHERE b = 1",
      "INSERT INTO t VALUES (1, 'x')",
  };
  CheckOk(SaveWorkloadTrace(path, queries));
  std::string bytes;
  CheckOk(persist::ReadFileToString(path, &bytes));

  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{13}}) {
    CheckOk(persist::AtomicWriteFile(path, bytes.substr(0, cut)));
    StatusOr<std::vector<std::string>> loaded = LoadWorkloadTrace(path);
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
  }

  std::string corrupt = bytes;
  corrupt[bytes.size() - 3] ^= 0x01;
  CheckOk(persist::AtomicWriteFile(path, corrupt));
  EXPECT_FALSE(LoadWorkloadTrace(path).ok());

  // Intact bytes still load.
  CheckOk(persist::AtomicWriteFile(path, bytes));
  StatusOr<std::vector<std::string>> loaded = LoadWorkloadTrace(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, queries);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace autoindex
