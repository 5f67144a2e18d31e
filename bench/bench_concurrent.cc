// Concurrent execution bench: N client threads replay a TPC-C (and
// banking) trace through per-thread Sessions while the AutoIndex manager
// runs tuning epochs on a background thread. Reports per-thread
// throughput/latency plus a single-threaded baseline so the latching
// overhead on the sequential path is visible.
//
// Usage: bench_concurrent [--short] [--connect host:port] [client_threads]
//        [queries]
// Any other flag, a flag without its value, or a thread or query count
// that is not a positive integer prints the usage and exits 2.
// This is the binary the TSan acceptance gate runs (scripts/check.sh);
// `--short` is the reduced trace the metrics-overhead gate times (it
// compares TOTAL_WALL_MS between AUTOINDEX_METRICS=ON and OFF builds).
// `--connect` replays the TPC-C trace against a running autoindex_server
// (started with --workload tpcc) over loopback TCP instead of in-process,
// with open-loop pacing so the service vs response latency split shows
// real queueing delay; the net e2e stage in check.sh runs this mode.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "check/validator.h"
#include "net/socket.h"
#include "util/metrics.h"
#include "workload/banking.h"
#include "workload/driver.h"
#include "workload/tpcc.h"

namespace autoindex {
namespace {

void PrintClientRows(const DriverReport& report) {
  for (size_t i = 0; i < report.clients.size(); ++i) {
    const ClientMetrics& c = report.clients[i];
    std::printf("  client %zu | queries %6zu (failed %zu) | "
                "avg latency %8.2f | throughput %8.3f | wall %8.1f ms\n",
                i, c.queries, c.failed, c.AvgLatency(), c.Throughput(),
                c.wall_ms);
  }
  const ClientMetrics total = report.Aggregate();
  std::printf("  TOTAL    | queries %6zu (failed %zu) | "
              "avg latency %8.2f | throughput %8.3f | wall %8.1f ms\n",
              total.queries, total.failed, total.AvgLatency(),
              total.Throughput(), total.wall_ms);
  if (report.tuning_rounds > 0 || report.observed > 0) {
    std::printf("  tuning   | rounds %zu | observed %zu | +%zu / -%zu "
                "indexes\n",
                report.tuning_rounds, report.observed, report.indexes_added,
                report.indexes_removed);
  }
  // Wall-clock percentiles (DESIGN.md §11). service = issue->done;
  // response = scheduled->done. This replay is closed-loop (pace_us == 0)
  // so the two distributions coincide; open-loop runs split them.
  if (report.service_latency.count > 0) {
    std::printf("  service  | p50 %6llu us | p90 %6llu us | p99 %6llu us | "
                "max %6llu us\n",
                (unsigned long long)report.service_latency.P50Us(),
                (unsigned long long)report.service_latency.P90Us(),
                (unsigned long long)report.service_latency.P99Us(),
                (unsigned long long)report.service_latency.max_us);
    std::printf("  response | p50 %6llu us | p90 %6llu us | p99 %6llu us | "
                "max %6llu us\n",
                (unsigned long long)report.response_latency.P50Us(),
                (unsigned long long)report.response_latency.P90Us(),
                (unsigned long long)report.response_latency.P99Us(),
                (unsigned long long)report.response_latency.max_us);
  }
}

void RequireClean(const Database& db) {
  const CheckReport check = CheckAll(db);
  if (!check.ok()) {
    std::printf("INVARIANT FAILURE:\n%s\n", check.ToString().c_str());
    std::exit(1);
  }
  std::printf("  invariants: %s\n", check.ToString().c_str());
}

void RunTpcc(int threads, size_t num_queries) {
  bench::PrintHeader("Concurrent TPC-C replay (sessions + table latches)");
  const TpccConfig config;
  const std::vector<std::string> trace =
      TpccWorkload::Generate(config, num_queries, /*seed=*/7);

  {
    Database db;
    TpccWorkload::Populate(&db, config);
    db.Analyze();
    std::printf("single-thread baseline (1 session, no tuning):\n");
    PrintClientRows(RunSequentialWorkload(&db, trace));
  }

  Database db;
  TpccWorkload::Populate(&db, config);
  db.Analyze();
  AutoIndexManager manager(&db);
  DriverConfig driver;
  driver.client_threads = threads;
  driver.background_tuning = true;
  driver.tuning_batch = num_queries / 4 + 1;
  std::printf("%d client threads + background tuning:\n", threads);
  PrintClientRows(RunConcurrentWorkload(&manager, trace, driver));
  RequireClean(db);
}

// Remote replay: the server owns the database (populate it with
// `autoindex_server --workload tpcc`); we only generate the same trace and
// drive it over TCP. Open-loop pacing (pace_us) makes the coordinated-
// omission split visible: response latency charges queueing behind slow
// statements to every statement that waited, service latency does not.
int RunRemote(const std::string& spec, int threads, size_t num_queries) {
  std::string host;
  int port = 0;
  const Status parsed = net::ParseHostPort(spec, &host, &port);
  if (!parsed.ok()) {
    std::printf("bad --connect argument: %s\n", parsed.ToString().c_str());
    return 2;
  }
  bench::PrintHeader("Remote TPC-C replay (TCP loopback, open loop)");
  const TpccConfig config;
  const std::vector<std::string> trace =
      TpccWorkload::Generate(config, num_queries, /*seed=*/7);

  DriverConfig driver;
  driver.client_threads = threads;
  driver.background_tuning = false;  // tuning (if any) is server-side
  driver.pace_us = 300;              // open loop: ~3.3k statements/s offered
  std::printf("%d remote clients -> %s:%d, pace %d us:\n", threads,
              host.c_str(), port, driver.pace_us);
  const DriverReport report = RunRemoteWorkload(host, port, trace, driver);
  PrintClientRows(report);

  const ClientMetrics total = report.Aggregate();
  if (total.queries == 0 || total.failed == total.queries) {
    std::printf("REMOTE REPLAY FAILED (%zu/%zu failed)\n", total.failed,
                total.queries);
    return 1;
  }
  return 0;
}

void RunBanking(int threads, size_t num_queries) {
  bench::PrintHeader("Concurrent banking replay (hybrid OLTP + OLAP)");
  BankingConfig config;
  config.num_tables = 24;
  config.manual_indexes = 40;
  const std::vector<std::string> trace =
      BankingWorkload::HybridService(config, num_queries, /*seed=*/11);

  Database db;
  BankingWorkload::Populate(&db, config);
  BankingWorkload::CreateManualIndexes(&db, config);
  db.Analyze();
  AutoIndexManager manager(&db);
  DriverConfig driver;
  driver.client_threads = threads;
  driver.background_tuning = true;
  driver.tuning_batch = num_queries / 4 + 1;
  std::printf("%d client threads + background tuning:\n", threads);
  PrintClientRows(RunConcurrentWorkload(&manager, trace, driver));
  RequireClean(db);
}

}  // namespace
}  // namespace autoindex

namespace {

constexpr char kUsage[] =
    "usage: bench_concurrent [--short] [--connect host:port] "
    "[client_threads] [queries]\n"
    "  client_threads and queries are positive integers\n";

int UsageError(const char* why, const char* arg) {
  std::fprintf(stderr, "bench_concurrent: %s '%s'\n%s", why, arg, kUsage);
  return 2;
}

// A whole-string positive decimal integer, or 0 when `arg` is not one.
long long PositiveArg(const char* arg) {
  char* end = nullptr;
  const long long v = std::strtoll(arg, &end, 10);
  return (end != arg && *end == '\0' && v > 0) ? v : 0;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 4;
  size_t queries = 1200;
  std::string connect;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      // Reduced trace for the metrics-overhead gate: enough statements to
      // exercise every instrumented path, short enough to run min-of-N.
      threads = 2;
      queries = 300;
    } else if (std::strcmp(argv[i], "--connect") == 0) {
      if (i + 1 >= argc) return UsageError("missing value for", argv[i]);
      connect = argv[++i];
    } else if (argv[i][0] == '-') {
      return UsageError("unknown flag", argv[i]);
    } else if (positional >= 2) {
      return UsageError("unexpected argument", argv[i]);
    } else {
      const long long v = PositiveArg(argv[i]);
      if (v == 0 || v > INT_MAX) {
        return UsageError(positional == 0 ? "bad client thread count"
                                          : "bad query count",
                          argv[i]);
      }
      if (positional == 0) {
        threads = static_cast<int>(v);
      } else {
        queries = static_cast<size_t>(v);
      }
      ++positional;
    }
  }
  const autoindex::util::Stopwatch total_watch;
  if (!connect.empty()) {
    const int rc = autoindex::RunRemote(connect, threads, queries);
    if (rc != 0) return rc;
    std::printf("\nTOTAL_WALL_MS %.1f\n", total_watch.ElapsedMs());
    std::printf("OK\n");
    return 0;
  }
  autoindex::RunTpcc(threads, queries);
  autoindex::RunBanking(threads, queries / 2);
  // Machine-readable total for scripts/check.sh's overhead comparison.
  std::printf("\nTOTAL_WALL_MS %.1f\n", total_watch.ElapsedMs());
  std::printf("OK\n");
  return 0;
}
