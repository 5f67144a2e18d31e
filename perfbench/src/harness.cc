#include "harness.h"

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "check/validator.h"
#include "engine/explain.h"
#include "sql/parser.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const MetricList& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, metric] = metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

// The warehouse a TPC-C transaction runs against, read from its first
// statement; -1 when `sql` does not open a transaction. Every transaction
// type of TpccWorkload::Generate opens with one of these statements, each
// of which names its warehouse as "<prefix>w_id = <n>".
int TransactionWarehouse(const std::string& sql) {
  static const char* const kOpeners[] = {
      "SELECT c_last, c_credit FROM customer ",        // new order
      "UPDATE warehouse SET w_ytd = ",                 // payment
      "SELECT o_id, o_entry_d, o_carrier_id FROM orders ",  // order status
      "SELECT MIN(no_o_id) FROM neworder ",            // delivery
      "SELECT COUNT(*) FROM stock ",                   // stock level
  };
  for (const char* opener : kOpeners) {
    if (sql.rfind(opener, 0) != 0) continue;
    const size_t at = sql.find("w_id = ");
    if (at == std::string::npos) return -1;
    return std::atoi(sql.c_str() + at + std::strlen("w_id = "));
  }
  return -1;
}

struct HistogramDelta {
  uint64_t count = 0;
  uint64_t sum_us = 0;
};

uint64_t CounterDelta(const RegistrySnapshot& before,
                      const RegistrySnapshot& after, const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return a->second.counter - (b == before.end() ? 0 : b->second.counter);
}

HistogramDelta HistDelta(const RegistrySnapshot& before,
                         const RegistrySnapshot& after,
                         const std::string& name) {
  HistogramDelta delta;
  const auto a = after.find(name);
  if (a == after.end()) return delta;
  delta.count = a->second.hist.count;
  delta.sum_us = a->second.hist.sum_us;
  const auto b = before.find(name);
  if (b != before.end()) {
    delta.count -= b->second.hist.count;
    delta.sum_us -= b->second.hist.sum_us;
  }
  return delta;
}

double PeakRssMib() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// End-to-end metrics of an untraced run; p99_us is left out when too few
// samples lie beyond it.
MetricList EndToEndMetrics(const RunResult& result) {
  std::vector<int64_t> samples = result.clients.latency_ns;
  const LatencySummary latency = Summarize(&samples);
  const ClientTally& c = result.clients;
  MetricList metrics = {
      {"setup_s", {Median(result.setup_s), "s"}},
      {"qps",
       {Ratio(static_cast<double>(c.attempted), result.window_s), "1/s"}},
      {"p50_us", {static_cast<double>(latency.p50_ns) / 1e3, "us"}},
      {"p99_us", {static_cast<double>(latency.p99_ns) / 1e3, "us"}},
      {"cost_per_stmt",
       {Ratio(c.cost, static_cast<double>(c.attempted - c.failed)),
        "cost_units"}},
      {"index_mib", {result.index_mib, "MiB"}},
      {"peak_rss_mib", {result.peak_rss_mib, "MiB"}},
  };
  if (!latency.p99_supported()) {
    metrics.erase(metrics.begin() + 3);  // too few samples for a p99
  }
  return metrics;
}

// The per-layer table (see README.md for each metric's definition).
MetricList LayerMetrics(const std::map<std::string, LayerTotal>& spans,
                        const ClientTally& c, const TuningTally& t,
                        const RegistrySnapshot& run_before,
                        const RegistrySnapshot& wb,
                        const RegistrySnapshot& wa, uint64_t wal_bytes) {
  const auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? LayerTotal{} : it->second;
  };
  const auto mean_self_us = [&](const char* name) {
    const LayerTotal total = span(name);
    return Ratio(static_cast<double>(total.self_ns),
                 static_cast<double>(total.count)) /
           1e3;
  };
  const auto mean_total_us = [&](const char* name) {
    const LayerTotal total = span(name);
    return Ratio(static_cast<double>(total.total_ns),
                 static_cast<double>(total.count)) /
           1e3;
  };
  const double stmts = static_cast<double>(c.attempted);
  const double ok_stmts = static_cast<double>(c.attempted - c.failed);
  const double writes = static_cast<double>(c.writes);
  const double rounds = static_cast<double>(t.rounds);

  const HistogramDelta wait = HistDelta(wb, wa, "latch.wait_us");
  const HistogramDelta hold = HistDelta(wb, wa, "latch.hold_us");
  const HistogramDelta server = HistDelta(wb, wa, "net.statement_us");
  const double hits = static_cast<double>(
      CounterDelta(run_before, wa, "estimator.cache.hits"));
  const double misses = static_cast<double>(
      CounterDelta(run_before, wa, "estimator.cache.misses"));
  const double rtt_us = mean_total_us("net.query");
  const double server_us = Ratio(static_cast<double>(server.sum_us),
                                 static_cast<double>(server.count));

  const auto d = [](auto v) { return static_cast<double>(v); };
  return {
      {"sql.parse_us", {mean_self_us("sql.parse"), "us"}},
      {"engine.plan_us", {mean_self_us("engine.plan"), "us"}},
      {"engine.exec_us", {mean_self_us("engine.execute"), "us"}},
      {"engine.tuples_per_row",
       {Ratio(d(c.stats.tuples_examined), d(c.stats.rows_returned)), "ratio"}},
      {"engine.heap_pages_per_stmt",
       {Ratio(d(c.stats.heap_pages_read), ok_stmts), "pages"}},
      {"engine.index_pages_per_stmt",
       {Ratio(d(c.stats.index_pages_read), ok_stmts), "pages"}},
      {"latch.wait_us_per_stmt", {Ratio(d(wait.sum_us), stmts), "us"}},
      {"latch.contended_ratio",
       {Ratio(d(CounterDelta(wb, wa, "latch.contended")),
              d(CounterDelta(wb, wa, "latch.acquisitions"))),
        "ratio"}},
      {"latch.hold_us_per_stmt", {Ratio(d(hold.sum_us), stmts), "us"}},
      {"tuning.observe_us", {mean_self_us("tuning.observe"), "us"}},
      {"tuning.round_ms", {mean_total_us("tuning.round") / 1e3, "ms"}},
      {"tuning.candidate_gen_ms", {Ratio(t.candidate_gen_ms, rounds), "ms"}},
      {"tuning.search_ms", {Ratio(t.search_ms, rounds), "ms"}},
      {"tuning.candidates", {Ratio(d(t.candidates), rounds), "count"}},
      {"estimator.cache_hit_ratio", {Ratio(hits, hits + misses), "ratio"}},
      {"index.apply_ms", {mean_total_us("index.apply") / 1e3, "ms"}},
      {"index.builds", {d(t.builds), "count"}},
      {"index.drops", {d(t.drops), "count"}},
      {"wal.append_us", {mean_total_us("wal.append"), "us"}},
      {"wal.fsyncs_per_write",
       {Ratio(d(CounterDelta(wb, wa, "wal.fsyncs")), writes), "count"}},
      {"wal.bytes_per_write", {Ratio(d(wal_bytes), writes), "B"}},
      {"net.rtt_us", {rtt_us, "us"}},
      {"net.server_us", {server_us, "us"}},
      {"net.overhead_us", {rtt_us > 0.0 ? rtt_us - server_us : 0.0, "us"}},
      {"net.bytes_per_stmt",
       {Ratio(d(CounterDelta(wb, wa, "net.bytes_read") +
                CounterDelta(wb, wa, "net.bytes_written")),
              stmts),
        "B"}},
  };
}

}  // namespace

autoindex::AutoIndexConfig TunerConfig() {
  autoindex::AutoIndexConfig config;
  config.learn_cost_model = false;
  config.drop_unused_indexes = false;
  return config;
}

void ClientTally::Record(int64_t latency, const autoindex::ExecStats& exec,
                         const autoindex::CostParams& params, bool write) {
  latency_ns.push_back(latency);
  ++attempted;
  if (write) ++writes;
  cost += exec.ToCost(params).Total();
  stats += exec;
}

void ClientTally::Fail(int64_t latency, const std::string& error) {
  latency_ns.push_back(latency);
  ++attempted;
  ++failed;
  if (first_error.empty()) first_error = error;
}

void ClientTally::Merge(ClientTally&& other) {
  latency_ns.insert(latency_ns.end(), other.latency_ns.begin(),
                    other.latency_ns.end());
  attempted += other.attempted;
  failed += other.failed;
  writes += other.writes;
  cost += other.cost;
  stats += other.stats;
  if (first_error.empty()) first_error = std::move(other.first_error);
}

RegistrySnapshot TakeRegistry() {
  static const Database probe;
  RegistrySnapshot out;
  for (auto& value : probe.MetricsSnapshot()) {
    std::string name = value.name;
    out.emplace(std::move(name), std::move(value));
  }
  return out;
}

SetupPin::SetupPin(int attempt) {
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<size_t>(attempt) % cpus.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

SetupPin::~SetupPin() {
  if (!pinned_) return;
  // Threads the set-up started (the server's) inherited the pin.
  std::error_code error;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    const pid_t tid = std::atoi(task.path().filename().c_str());
    sched_setaffinity(tid, sizeof(original_), &original_);
  }
  sched_setaffinity(0, sizeof(original_), &original_);
}

void EndWindow(Clock::time_point start, RunResult* result) {
  result->window_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  result->peak_rss_mib = PeakRssMib();
}

void ExecuteInProcess(autoindex::Session* session, const std::string& sql,
                      uint64_t stmt_id, SpanRecorder* spans,
                      ClientTally* tally) {
  const auto start = Clock::now();
  autoindex::Status error;
  autoindex::ExecStats stats;
  bool write = false;
  {
    SpanScope root(spans, "client.statement", stmt_id);
    autoindex::StatusOr<autoindex::Statement> stmt = [&] {
      SpanScope parse(spans, "sql.parse");
      return autoindex::ParseSql(sql);
    }();
    if (!stmt.ok()) {
      error = stmt.status();
    } else {
      write = stmt->IsWrite();
      autoindex::StatusOr<autoindex::ExecResult> result = [&] {
        SpanScope exec(spans, "engine.execute");
        return session->Execute(*stmt);
      }();
      if (result.ok()) {
        stats = result->stats;
      } else {
        error = result.status();
      }
    }
  }
  const int64_t latency = NsSince(start);
  if (error.ok()) {
    tally->Record(latency, stats, session->db().params(), write);
  } else {
    tally->Fail(latency, error.ToString() + " [" + sql + "]");
  }
}

void PlanPass(const Database& db, const std::vector<std::string>& trace,
              size_t limit, SpanRecorder* spans) {
  if (trace.empty() || limit == 0) return;
  const size_t stride = std::max<size_t>(1, trace.size() / limit);
  for (size_t i = 0; i < trace.size(); i += stride) {
    autoindex::StatusOr<autoindex::Statement> stmt =
        autoindex::ParseSql(trace[i]);
    if (!stmt.ok()) continue;
    SpanScope plan(spans, "engine.plan", i + 1);
    const std::string rendered = autoindex::ExplainStatement(db, *stmt);
    if (rendered.empty()) std::abort();  // keeps the call observable
  }
}

void ObserveTrace(autoindex::AutoIndexManager* manager,
                  const std::vector<std::string>& sql, SpanRecorder* spans) {
  for (const std::string& statement : sql) {
    SpanScope observe(spans, "tuning.observe");
    manager->ObserveOnly(statement);
  }
}

autoindex::TuningResult TimedRound(autoindex::AutoIndexManager* manager,
                                   SpanRecorder* spans, TuningTally* tally) {
  autoindex::TuningResult round;
  {
    SpanScope span(spans, "tuning.round");
    round = manager->RunManagementRound(/*apply=*/false);
  }
  ++tally->rounds;
  tally->candidate_gen_ms += round.candidate_gen_ms;
  tally->search_ms += round.search_ms;
  tally->candidates += round.candidates_generated;
  std::string line = "round " + std::to_string(tally->rounds) + ":";
  for (const autoindex::IndexDef& def : round.added) line += " +" + def.Key();
  for (const autoindex::IndexDef& def : round.removed) line += " -" + def.Key();
  tally->decisions.push_back(std::move(line));
  return round;
}

void TimedApply(autoindex::AutoIndexManager* manager,
                const autoindex::TuningResult& round, SpanRecorder* spans,
                TuningTally* tally) {
  autoindex::AutoIndexManager::DdlOutcome outcome;
  {
    SpanScope span(spans, "index.apply");
    outcome = manager->ApplyDdlNow(round.removed, round.added);
  }
  tally->builds += outcome.built.size();
  tally->drops += outcome.dropped.size();
  for (const autoindex::ApplyError& error : outcome.errors) {
    tally->apply_errors.push_back((error.drop ? "drop " : "create ") +
                                  error.def.Key() + ": " + error.message);
  }
}

TpccTrace DealTpccByWarehouse(const autoindex::TpccConfig& config,
                              size_t txns, uint64_t seed,
                              const autoindex::TpccMix& mix) {
  TpccTrace trace;
  trace.per_client.resize(static_cast<size_t>(config.warehouses));
  trace.in_order = autoindex::TpccWorkload::Generate(config, txns, seed, mix);
  size_t opened = 0;
  std::vector<std::string>* current = nullptr;
  for (const std::string& sql : trace.in_order) {
    const int warehouse = TransactionWarehouse(sql);
    if (warehouse >= 1 && warehouse <= config.warehouses) {
      current = &trace.per_client[static_cast<size_t>(warehouse - 1)];
      ++opened;
    }
    if (current == nullptr) break;
    current->push_back(sql);
  }
  if (opened != txns) {
    std::fprintf(stderr,
                 "perfbench: found %zu TPC-C transaction openers in a trace "
                 "of %zu transactions; the generator's statement text no "
                 "longer matches TransactionWarehouse\n",
                 opened, txns);
    std::exit(3);
  }
  return trace;
}

void FinishRun(const Database& db, const TuningTally& tuning,
               RunResult* result) {
  const autoindex::CheckReport report = autoindex::CheckAll(db);
  result->Check(report.ok(), "CheckAll: " + report.ToString());
  for (const std::string& error : tuning.apply_errors) {
    result->Check(false, "ApplyDdlNow: " + error);
  }
  result->Check(result->clients.failed == 0,
                "failed statement: " + result->clients.first_error);
  result->index_mib =
      static_cast<double>(db.index_manager().TotalIndexBytes()) /
      (1024.0 * 1024.0);

  std::string decisions;
  for (const std::string& line : tuning.decisions) {
    decisions += (decisions.empty() ? "" : "; ") + line;
  }
  std::vector<std::string> keys;
  for (const autoindex::BuiltIndex* index : db.index_manager().AllIndexes()) {
    keys.push_back(index->def().Key());
  }
  std::sort(keys.begin(), keys.end());
  std::string final_indexes;
  for (const std::string& key : keys) {
    final_indexes += (final_indexes.empty() ? "" : " ") + key;
  }
  uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : decisions + " | " + final_indexes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char hash[20];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(h));
  result->info.emplace_back("decisions", decisions);
  result->info.emplace_back("final_indexes", final_indexes);
  result->info.emplace_back("fingerprint", hash);
}

void FinishTraced(const SpanRecorder& spans, const TuningTally& tuning,
                  const RegistrySnapshot& run_before,
                  const RegistrySnapshot& window_before,
                  const RegistrySnapshot& window_after, uint64_t wal_bytes,
                  RunResult* result) {
  result->layers = LayerMetrics(spans.Totals(), result->clients, tuning,
                                run_before, window_before, window_after,
                                wal_bytes);
  result->chrome_trace = spans.ChromeJson();
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x65735546UL: return "fuse";
    case 0x6969UL: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string ResultJson(const RunResult& result, bool traced) {
  std::string out = "{\"workload\": " + JsonString(result.workload);
  out += ", \"correct\": ";
  out += result.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.clients.attempted);
  out += ", \"failed\": " + std::to_string(result.clients.failed);
  out += ", \"metrics\": " +
         MetricsJson(traced ? result.layers : EndToEndMetrics(result));
  out += ", \"failures\": [";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(result.failures[i]);
  }
  out += "], \"info\": {";
  for (size_t i = 0; i < result.info.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(result.info[i].first) + ": " +
           JsonString(result.info[i].second);
  }
  return out + "}}";
}

}  // namespace perfbench
