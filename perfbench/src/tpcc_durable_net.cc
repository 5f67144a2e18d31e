#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "engine/durability.h"
#include "net/client.h"
#include "net/server.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

using autoindex::AutoIndexManager;
using autoindex::Status;
using autoindex::TpccWorkload;

// Set-up cannot go on after these fail; the run ends without a result.
void Require(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

bool IsWriteSql(const std::string& sql) {
  return sql.rfind("INSERT", 0) == 0 || sql.rfind("UPDATE", 0) == 0 ||
         sql.rfind("DELETE", 0) == 0;
}

// The write-ahead log as the engine sees it: every call forwards to a
// persist::Wal, and statement appends (their fsync included) are timed as
// "wal.append" on the server thread that commits the statement.
class TimedWal : public autoindex::DurabilityLog {
 public:
  TimedWal(std::unique_ptr<autoindex::persist::Wal> wal, SpanRecorder* spans)
      : wal_(std::move(wal)), spans_(spans) {}

  Status AppendStatement(const autoindex::Statement& stmt,
                         uint64_t data_version) override {
    SpanScope span(spans_, "wal.append");
    return wal_->AppendStatement(stmt, data_version);
  }
  Status AppendCreateTable(const std::string& name,
                           const autoindex::Schema& schema,
                           uint64_t data_version) override {
    return wal_->AppendCreateTable(name, schema, data_version);
  }
  Status AppendCreateIndex(const autoindex::IndexDef& def,
                           uint64_t data_version) override {
    return wal_->AppendCreateIndex(def, data_version);
  }
  Status AppendDropIndex(const std::string& key_or_name,
                         uint64_t data_version) override {
    return wal_->AppendDropIndex(key_or_name, data_version);
  }
  Status AppendBulkInsert(const std::string& table,
                          const std::vector<autoindex::Row>& rows,
                          uint64_t data_version) override {
    return wal_->AppendBulkInsert(table, rows, data_version);
  }
  Status AppendAnalyze(const std::string& table,
                       uint64_t data_version) override {
    return wal_->AppendAnalyze(table, data_version);
  }
  Status OnCheckpoint(uint64_t checkpoint_data_version) override {
    return wal_->OnCheckpoint(checkpoint_data_version);
  }

  uint64_t size_bytes() const { return wal_->size_bytes(); }

 private:
  std::unique_ptr<autoindex::persist::Wal> wal_;
  SpanRecorder* spans_;
};

struct DurableState {
  std::string dir;
  int wal_fd = -1;  // the WAL's memfd
  Database db;
  std::unique_ptr<AutoIndexManager> manager;
  std::unique_ptr<TimedWal> wal;
  std::unique_ptr<autoindex::net::Server> server;
  std::vector<std::unique_ptr<autoindex::net::Client>> clients;

  DurableState() = default;
  DurableState(const DurableState&) = delete;
  DurableState& operator=(const DurableState&) = delete;
  ~DurableState() {
    clients.clear();
    server.reset();  // drains and joins every connection
    db.set_durability_log(nullptr);
    wal.reset();
    if (wal_fd >= 0) close(wal_fd);
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
};

}  // namespace

RunResult RunTpccDurableNet(const RunOptions& opt,
                            const TpccDurableNetSize& size) {
  RunResult result;
  result.workload = "tpcc_durable_net";
  autoindex::TpccConfig config;
  config.warehouses = kClients;

  // The standard mix, not the write-heavy one: 88% of its transactions
  // still write, but its 4% deliveries make the statements that scan
  // neworder (whose index the warm-up drops) about 3% of the trace, so the
  // p99 falls inside that group. With the write-heavy mix they were about
  // 1.5%, the p99 sat on the group's thin lower edge, and it moved by
  // 15-27% between sets of runs.
  const autoindex::TpccMix mix;
  const TpccTrace trace =
      DealTpccByWarehouse(config, size.txns, opt.seed * 1000 + 1, mix);
  std::vector<std::vector<std::string>> warmup;
  for (int r = 0; r < size.warmup_rounds; ++r) {
    warmup.push_back(TpccWorkload::Generate(
        config, size.warmup_txns / size.warmup_rounds, kWarmupSeed + r,
        mix));
  }

  SpanRecorder spans(opt.trace);
  TuningTally tuning;
  RegistrySnapshot run_before;
  const auto make = [&](int attempt) {
    auto s = std::make_unique<DurableState>();
    s->dir = opt.out_dir + "/wal-" + std::to_string(getpid()) + "-" +
             std::to_string(attempt);
    std::filesystem::remove_all(s->dir);
    std::filesystem::create_directories(s->dir);
    TpccWorkload::Populate(&s->db, config);
    TpccWorkload::CreateDefaultIndexes(&s->db);
    s->manager = std::make_unique<AutoIndexManager>(&s->db, TunerConfig());
    tuning = TuningTally();
    for (const std::vector<std::string>& slice : warmup) {
      ObserveTrace(s->manager.get(), slice, &spans);
      const autoindex::TuningResult round =
          TimedRound(s->manager.get(), &spans, &tuning);
      TimedApply(s->manager.get(), round, &spans, &tuning);
    }
    autoindex::StatusOr<uint64_t> version =
        autoindex::persist::SaveSnapshot(&s->db, s->manager.get(), s->dir);
    Require(version.status(), "checkpoint");
    // The log lives in an anonymous in-memory file (tmpfs-backed
    // memfd), reached through a symlink in the checkpoint directory:
    // fsync then costs no device time, whose latency on a shared disk
    // varies between runs, and nothing is written outside the
    // checkout. Appends and fsyncs still run as they would on disk.
    s->wal_fd = memfd_create("perfbench-wal", MFD_CLOEXEC);
    Require(s->wal_fd >= 0 ? Status::Ok()
                           : Status::Internal(std::strerror(errno)),
            "memfd_create");
    const std::string wal_path = autoindex::persist::WalPath(s->dir);
    std::filesystem::create_symlink(
        "/proc/self/fd/" + std::to_string(s->wal_fd), wal_path);
    autoindex::persist::WalOptions wal_options;
    wal_options.fsync_each_append = true;
    auto wal =
        autoindex::persist::Wal::Create(wal_path, *version, wal_options);
    Require(wal.status(), "create WAL");
    s->wal = std::make_unique<TimedWal>(std::move(wal).value(), &spans);
    s->db.set_durability_log(s->wal.get());
    s->server = std::make_unique<autoindex::net::Server>(&s->db);
    Require(s->server->Start(), "start server");
    for (int c = 0; c < kClients; ++c) {
      s->clients.push_back(std::make_unique<autoindex::net::Client>());
      Require(s->clients.back()->Connect("127.0.0.1", s->server->port()),
              "connect");
    }
    return s;
  };
  std::unique_ptr<DurableState> state =
      RepeatedSetup<DurableState>(opt, make, &result, &run_before);

  std::vector<ClientTally> tallies(kClients);
  const autoindex::CostParams params = state->db.params();
  const uint64_t wal_bytes_before = state->wal->size_bytes();
  const RegistrySnapshot window_before = TakeRegistry();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      autoindex::net::Client* client = state->clients[c].get();
      const std::vector<std::string>& mine = trace.per_client[c];
      for (size_t i = 0; i < mine.size(); ++i) {
        const auto issued = std::chrono::steady_clock::now();
        autoindex::StatusOr<autoindex::net::QueryResult> reply = [&] {
          SpanScope query(&spans, "net.query",
                          (uint64_t(c) << 32) | (i + 1));
          return client->Query(mine[i]);
        }();
        const int64_t latency =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - issued)
                .count();
        if (reply.ok()) {
          tallies[c].Record(latency, reply->stats, params, IsWriteSql(mine[i]));
        } else {
          tallies[c].Fail(latency,
                          reply.status().ToString() + " [" + mine[i] + "]");
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EndWindow(start, &result);
  const RegistrySnapshot window_after = TakeRegistry();
  const uint64_t wal_bytes = state->wal->size_bytes() - wal_bytes_before;

  for (ClientTally& tally : tallies) result.clients.Merge(std::move(tally));
  for (auto& client : state->clients) client->Close();
  state->server->Stop();
  const autoindex::net::ServerStats stats = state->server->stats();
  result.Check(stats.requests_started == stats.responses_sent,
               "server drain: " + std::to_string(stats.requests_started) +
                   " requests started, " +
                   std::to_string(stats.responses_sent) + " responses sent");

  // Every acknowledged write must survive a restart from the checkpoint
  // and the log alone.
  {
    Database recovered;
    autoindex::persist::RecoveryReport recovery;
    auto reopened = autoindex::persist::OpenSnapshot(&recovered, nullptr,
                                                     state->dir, &recovery);
    result.Check(reopened.ok(), "recovery: " + reopened.status().ToString());
    if (reopened.ok()) {
      for (const std::string& table : state->db.catalog().TableNames()) {
        const auto* live = state->db.catalog().GetTable(table);
        const auto* back = recovered.catalog().GetTable(table);
        const size_t live_rows = live->num_rows();
        const size_t back_rows = back == nullptr ? 0 : back->num_rows();
        result.Check(live_rows == back_rows,
                     "recovery: table " + table + " has " +
                         std::to_string(back_rows) + " rows, live has " +
                         std::to_string(live_rows));
      }
    }
    recovered.set_durability_log(nullptr);
  }

  result.info = {
      {"data", "warehouses=" + std::to_string(config.warehouses) +
                   " txns=" + std::to_string(size.txns) +
                   " statements=" + std::to_string(trace.in_order.size()) +
                   " warmup_txns=" + std::to_string(size.warmup_txns) +
                   " warmup_rounds=" + std::to_string(size.warmup_rounds)},
      {"flush_policy", "fsync_each_append=on"},
      {"checkpoint_dir", state->dir},
      {"checkpoint_fs", FilesystemType(state->dir)},
      {"wal_fs", FilesystemType(autoindex::persist::WalPath(state->dir)) +
                     " (memfd)"},
  };
  FinishRun(state->db, tuning, &result);

  if (opt.trace) {
    PlanPass(state->db, trace.in_order, 4000, &spans);
    FinishTraced(spans, tuning, run_before, window_before, window_after,
                 wal_bytes, &result);
  }
  state.reset();
  TrailingSetups(opt, make, &result);
  return result;
}

}  // namespace perfbench
