#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "workload/tpcds.h"
#include "workloads.h"

namespace perfbench {
namespace {

using autoindex::AutoIndexManager;
using autoindex::Row;
using autoindex::Session;
using autoindex::TpcdsWorkload;
using autoindex::Value;

struct TpcdsState {
  Database db;
  std::unique_ptr<AutoIndexManager> manager;
  std::vector<std::unique_ptr<Session>> sessions;
};

bool SameValue(const Value& a, const Value& b) {
  if (a.type() == autoindex::ValueType::kDouble ||
      b.type() == autoindex::ValueType::kDouble) {
    if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
    // Sums may add in a different order under a different plan.
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::fabs(x - y) <=
           1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return a == b;
}

// Whether two results hold the same rows. Row order is not compared, and a
// query with LIMIT is compared by row count only: ties at the limit may be
// broken differently by different plans.
bool SameResult(const std::string& sql, std::vector<Row> a,
                std::vector<Row> b) {
  if (a.size() != b.size()) return false;
  if (sql.find(" LIMIT ") != std::string::npos) return true;
  const auto less = [](const Row& x, const Row& y) {
    return autoindex::CompareRows(x, y) < 0;
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t v = 0; v < a[r].size(); ++v) {
      if (!SameValue(a[r][v], b[r][v])) return false;
    }
  }
  return true;
}

}  // namespace

RunResult RunTpcdsTuned(const RunOptions& opt, const TpcdsTunedSize& size) {
  RunResult result;
  result.workload = "tpcds_tuned";
  autoindex::TpcdsConfig config;
  config.sales_rows = size.sales_rows;

  const std::vector<std::string> queries =
      TpcdsWorkload::Generate(config, size.queries, opt.seed * 1000 + 1);
  std::vector<std::vector<std::string>> warmup;
  for (int r = 0; r < size.warmup_rounds; ++r) {
    warmup.push_back(TpcdsWorkload::Generate(
        config, size.warmup_queries / size.warmup_rounds,
        kWarmupSeed + r));
  }

  SpanRecorder spans(opt.trace);
  TuningTally tuning;
  RegistrySnapshot run_before;
  const auto make = [&](int) {
    auto s = std::make_unique<TpcdsState>();
    TpcdsWorkload::Populate(&s->db, config);
    TpcdsWorkload::CreateDefaultIndexes(&s->db);
    s->manager = std::make_unique<AutoIndexManager>(&s->db, TunerConfig());
    tuning = TuningTally();
    for (const std::vector<std::string>& slice : warmup) {
      ObserveTrace(s->manager.get(), slice, &spans);
      const autoindex::TuningResult round =
          TimedRound(s->manager.get(), &spans, &tuning);
      TimedApply(s->manager.get(), round, &spans, &tuning);
    }
    for (int c = 0; c < kClients; ++c) {
      s->sessions.push_back(s->db.CreateSession());
    }
    return s;
  };
  std::unique_ptr<TpcdsState> state =
      RepeatedSetup<TpcdsState>(opt, make, &result, &run_before);

  // Read-only, so clients may take the next query from a shared cursor
  // without changing any result: the faster client simply takes more.
  std::vector<ClientTally> tallies(kClients);
  std::atomic<size_t> next{0};
  const RegistrySnapshot window_before = TakeRegistry();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = next.fetch_add(1); i < queries.size();
           i = next.fetch_add(1)) {
        ExecuteInProcess(state->sessions[c].get(), queries[i], i + 1, &spans,
                         &tallies[c]);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EndWindow(start, &result);
  const RegistrySnapshot window_after = TakeRegistry();

  for (ClientTally& tally : tallies) result.clients.Merge(std::move(tally));

  // The tuned indexes must not change any answer: one query of every
  // template against an untuned copy of the same data.
  {
    Database reference;
    TpcdsWorkload::Populate(&reference, config);
    TpcdsWorkload::CreateDefaultIndexes(&reference);
    for (const std::string& sql : TpcdsWorkload::OneOfEach(config, opt.seed)) {
      auto tuned = state->sessions[0]->Execute(sql);
      auto plain = reference.Execute(sql);
      result.Check(tuned.ok() && plain.ok() &&
                       SameResult(sql, tuned->rows, plain->rows),
                   "tuned and untuned results differ: " + sql);
    }
  }

  result.info = {
      {"data", "sales_rows=" + std::to_string(config.sales_rows) +
                   " items=" + std::to_string(config.items) +
                   " customers=" + std::to_string(config.customers) +
                   " queries=" + std::to_string(queries.size()) +
                   " warmup_queries=" + std::to_string(size.warmup_queries) +
                   " warmup_rounds=" + std::to_string(size.warmup_rounds)},
  };
  FinishRun(state->db, tuning, &result);

  if (opt.trace) {
    PlanPass(state->db, queries, 4000, &spans);
    FinishTraced(spans, tuning, run_before, window_before, window_after,
                 0, &result);
  }
  state.reset();
  TrailingSetups(opt, make, &result);
  return result;
}

}  // namespace perfbench
