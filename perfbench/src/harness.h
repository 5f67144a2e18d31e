#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/manager.h"
#include "engine/database.h"
#include "engine/session.h"
#include "samples.h"
#include "spans.h"
#include "workload/tpcc.h"

namespace perfbench {

using autoindex::Database;

// The benchmark's client count. Every workload is closed loop: three TPC-C
// terminals or analysts, each waiting for its reply before sending the next
// statement, on a four-core machine so the tuner and server keep a core.
inline constexpr int kClients = 3;

// The seed of the tuner's warm-up traces. Like the database population
// (the generators' default seeds), it is the same for every --seed: a
// run's seed varies only the statements it times, so the index set that
// tpcc_durable_net and tpcds_tuned serve from is one fixed configuration
// instead of a different tuner outcome per seed.
inline constexpr uint64_t kWarmupSeed = 500;

// What one invocation measures.
struct RunOptions {
  uint64_t seed = 1;
  bool trace = false;
  // Set-ups per run; setup_s is their median. A set-up runs on one thread,
  // at the speed of the CPU it lands on, and on a shared machine the CPUs'
  // speeds differ and drift over seconds. So set-up k is pinned to the
  // k-th allowed CPU in turn (SetupPin), and they are spread over the run:
  // SetupsBefore() of them run before the timed window (the last of those
  // builds the state that is measured), the rest after it.
  int setups = 8;
  // Directory (inside the checkout) for WAL/checkpoint files and traces.
  std::string out_dir = ".";
};

// The tuner configuration of every workload. Two defaults are off because
// they make the tuner's decisions depend on thread timing:
//  - learn_cost_model: the estimator would train on execution feedback that
//    client threads deliver in whatever order they finish;
//  - drop_unused_indexes: the retirement pass reads planner-use counters,
//    which ApplyDdlNow resets while the next phase is already running.
autoindex::AutoIndexConfig TunerConfig();

struct Metric {
  double value = 0.0;
  std::string unit;
};

// A named metric list in report order.
using MetricList = std::vector<std::pair<std::string, Metric>>;

// What one client thread saw over the timed window.
struct ClientTally {
  std::vector<int64_t> latency_ns;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t writes = 0;        // successful INSERT/UPDATE/DELETE statements
  double cost = 0.0;          // sum of ExecStats::ToCost over successes
  autoindex::ExecStats stats; // summed over successes
  std::string first_error;

  void Record(int64_t latency, const autoindex::ExecStats& exec,
              const autoindex::CostParams& params, bool write);
  void Fail(int64_t latency, const std::string& error);
  void Merge(ClientTally&& other);
};

// What the management layers did over a run, filled by ObserveTrace,
// TimedRound and TimedApply.
struct TuningTally {
  size_t rounds = 0;
  double candidate_gen_ms = 0.0;  // sums over rounds, from TuningResult
  double search_ms = 0.0;
  size_t candidates = 0;
  size_t builds = 0;  // from DdlOutcome
  size_t drops = 0;
  std::vector<std::string> apply_errors;
  // "round 1: +key +key -key" per round, in order.
  std::vector<std::string> decisions;
};

// Registry values by name. Database::MetricsSnapshot reads the
// process-wide registry, so any database gives the same view.
using RegistrySnapshot =
    std::map<std::string, autoindex::util::MetricsRegistry::MetricValue>;
RegistrySnapshot TakeRegistry();

// The outcome of one workload run.
struct RunResult {
  std::string workload;
  std::vector<std::string> failures;  // failed output checks; empty = correct
  ClientTally clients;
  std::vector<double> setup_s;
  double window_s = 0.0;
  // Peak resident memory when the window closed, before the output checks
  // build their own reference copies.
  double peak_rss_mib = 0.0;
  double index_mib = 0.0;
  MetricList layers;        // filled when traced
  std::string chrome_trace;  // filled when traced
  // Environment, data sizes and determinism fingerprint, in report order.
  std::vector<std::pair<std::string, std::string>> info;

  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// Pins the calling thread to the allowed CPU `attempt` modulo their count
// while it lives; on destruction every thread of the process gets the
// original CPU set back. Does nothing when only one CPU is allowed.
class SetupPin {
 public:
  explicit SetupPin(int attempt);
  ~SetupPin();
  SetupPin(const SetupPin&) = delete;
  SetupPin& operator=(const SetupPin&) = delete;

 private:
  cpu_set_t original_;
  bool pinned_ = false;
};

// The number of set-ups that run before the timed window.
inline int SetupsBefore(const RunOptions& opt) { return (opt.setups + 1) / 2; }

// Builds the workload state with `make(attempt)` and appends the build's
// duration to result->setup_s.
template <typename Make>
auto TimedSetup(Make& make, int attempt, RunResult* result) {
  const SetupPin pin(attempt);
  const auto start = std::chrono::steady_clock::now();
  auto state = make(attempt);
  result->setup_s.push_back(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count());
  return state;
}

// Builds the workload state SetupsBefore(opt) times and returns the last
// one. Earlier states are destroyed before the next build so each set-up
// starts from the same process state. `run_before` receives the registry as
// the last set-up began.
template <typename State, typename Make>
std::unique_ptr<State> RepeatedSetup(const RunOptions& opt, Make& make,
                                     RunResult* result,
                                     RegistrySnapshot* run_before) {
  std::unique_ptr<State> state;
  for (int i = 0; i < SetupsBefore(opt); ++i) {
    state.reset();
    *run_before = TakeRegistry();
    state = TimedSetup(make, i, result);
  }
  return state;
}

// The set-ups left for after the run: each builds the state and destroys
// it. Call it once the run's own state is gone and everything is recorded,
// because `make` may overwrite the tallies it captures.
template <typename Make>
void TrailingSetups(const RunOptions& opt, Make& make, RunResult* result) {
  for (int i = SetupsBefore(opt); i < opt.setups; ++i) {
    TimedSetup(make, i, result);
  }
}

// Closes the timed window that began at `start`: records its length and the
// process's peak resident memory so far.
void EndWindow(std::chrono::steady_clock::time_point start, RunResult* result);

// Parses `sql` and executes the parsed statement on `session` the way an
// in-process client does, recording latency from issue to reply.
void ExecuteInProcess(autoindex::Session* session, const std::string& sql,
                      uint64_t stmt_id, SpanRecorder* spans,
                      ClientTally* tally);

// Plans an evenly strided sample of at most `limit` statements of `trace`
// with ExplainStatement, each call timed as "engine.plan". Runs after the
// timed window on the quiesced database: planning outside the engine takes
// no statement latch, so it must not race index drops, and an extra pass
// inside the window would change what the traced run measures.
void PlanPass(const Database& db, const std::vector<std::string>& trace,
              size_t limit, SpanRecorder* spans);

// `txns` TPC-C transactions from `seed`, dealt to clients by home
// warehouse: client k runs every transaction of warehouse k + 1, in trace
// order. With one warehouse per client no two clients write the same row,
// so the rows at a quiesced point do not depend on how the clients
// interleaved (their physical order still does). `in_order` keeps the
// whole trace in generation order (what the tuner observes).
struct TpccTrace {
  std::vector<std::vector<std::string>> per_client;
  std::vector<std::string> in_order;
};
TpccTrace DealTpccByWarehouse(const autoindex::TpccConfig& config,
                              size_t txns, uint64_t seed,
                              const autoindex::TpccMix& mix);

// Feeds `sql` to ObserveOnly in order, each call timed as "tuning.observe".
void ObserveTrace(autoindex::AutoIndexManager* manager,
                  const std::vector<std::string>& sql, SpanRecorder* spans);
// One RunManagementRound(apply=false), timed as "tuning.round"; its
// recommendation is appended to tally->decisions.
autoindex::TuningResult TimedRound(autoindex::AutoIndexManager* manager,
                                   SpanRecorder* spans, TuningTally* tally);
// ApplyDdlNow(round.removed, round.added), timed as "index.apply".
void TimedApply(autoindex::AutoIndexManager* manager,
                const autoindex::TuningResult& round, SpanRecorder* spans,
                TuningTally* tally);

// The checks and records every workload ends with, after its own info:
// CheckAll, ApplyDdlNow errors, failed statements, index_mib, and the
// determinism record (the tuner's ordered per-round decisions, the final
// index set, and an FNV-1a hash of both).
void FinishRun(const Database& db, const TuningTally& tuning,
               RunResult* result);

// Fills result->layers and result->chrome_trace at the end of a traced run.
// Statement-path layers cover the timed window; the management layers
// (tuning, estimator, index) cover the run from the last set-up on.
void FinishTraced(const SpanRecorder& spans, const TuningTally& tuning,
                  const RegistrySnapshot& run_before,
                  const RegistrySnapshot& window_before,
                  const RegistrySnapshot& window_after, uint64_t wal_bytes,
                  RunResult* result);

// The filesystem type holding `path` ("tmpfs", "ext4", "overlayfs", ...).
std::string FilesystemType(const std::string& path);

// The run as one JSON object: correct, attempted, failed, the metrics
// (end-to-end when untraced, per layer when traced), failures and info.
std::string ResultJson(const RunResult& result, bool traced);

}  // namespace perfbench
