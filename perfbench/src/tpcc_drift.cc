#include <chrono>
#include <thread>

#include "workloads.h"

namespace perfbench {
namespace {

using autoindex::AutoIndexManager;
using autoindex::Session;
using autoindex::TpccMix;
using autoindex::TpccWorkload;

// The mix of phase `phase`, cycling as in the paper's Fig. 9.
TpccMix PhaseMix(int phase) {
  switch (phase % 3) {
    case 0:
      return TpccMix();
    case 1:
      return TpccWorkload::WriteHeavyMix();
    default:
      return TpccWorkload::ReadHeavyMix();
  }
}

struct DriftState {
  Database db;
  std::unique_ptr<AutoIndexManager> manager;
  std::vector<std::unique_ptr<Session>> sessions;
};

}  // namespace

RunResult RunTpccDrift(const RunOptions& opt, const TpccDriftSize& size) {
  RunResult result;
  result.workload = "tpcc_drift";
  autoindex::TpccConfig config;
  config.warehouses = kClients;

  std::vector<TpccTrace> phases;
  size_t statements = 0;
  for (int p = 0; p < size.phases; ++p) {
    phases.push_back(DealTpccByWarehouse(config, size.txns_per_phase,
                                         opt.seed * 1000 + p, PhaseMix(p)));
    statements += phases.back().in_order.size();
  }

  SpanRecorder spans(opt.trace);
  RegistrySnapshot run_before;
  const auto make = [&](int) {
    auto s = std::make_unique<DriftState>();
    TpccWorkload::Populate(&s->db, config);
    TpccWorkload::CreateDefaultIndexes(&s->db);
    s->manager = std::make_unique<AutoIndexManager>(&s->db, TunerConfig());
    for (int c = 0; c < kClients; ++c) {
      s->sessions.push_back(s->db.CreateSession());
    }
    return s;
  };
  std::unique_ptr<DriftState> state =
      RepeatedSetup<DriftState>(opt, make, &result, &run_before);

  TuningTally tuning;
  std::vector<ClientTally> tallies(kClients);
  const RegistrySnapshot window_before = TakeRegistry();
  const auto start = std::chrono::steady_clock::now();
  std::thread apply;
  for (int p = 0; p < size.phases; ++p) {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, p, c] {
        const std::vector<std::string>& mine = phases[p].per_client[c];
        const uint64_t base = (uint64_t(p) << 40) | (uint64_t(c) << 32);
        for (size_t i = 0; i < mine.size(); ++i) {
          ExecuteInProcess(state->sessions[c].get(), mine[i], base + i + 1,
                           &spans, &tallies[c]);
        }
      });
    }
    for (std::thread& client : clients) client.join();
    if (apply.joinable()) apply.join();
    if (p + 1 == size.phases) break;
    ObserveTrace(state->manager.get(), phases[p].in_order, &spans);
    autoindex::TuningResult round =
        TimedRound(state->manager.get(), &spans, &tuning);
    apply = std::thread([&, round = std::move(round)] {
      TimedApply(state->manager.get(), round, &spans, &tuning);
    });
  }
  EndWindow(start, &result);
  const RegistrySnapshot window_after = TakeRegistry();

  for (ClientTally& tally : tallies) result.clients.Merge(std::move(tally));

  result.info = {
      {"data", "warehouses=" + std::to_string(config.warehouses) +
                   " phases=" + std::to_string(size.phases) +
                   " txns_per_phase=" + std::to_string(size.txns_per_phase) +
                   " statements=" + std::to_string(statements)},
  };
  FinishRun(state->db, tuning, &result);

  if (opt.trace) {
    for (const TpccTrace& phase : phases) {
      PlanPass(state->db, phase.in_order, 4000 / phases.size(), &spans);
    }
    FinishTraced(spans, tuning, run_before, window_before, window_after,
                 0, &result);
  }
  state.reset();
  TrailingSetups(opt, make, &result);
  return result;
}

}  // namespace perfbench
