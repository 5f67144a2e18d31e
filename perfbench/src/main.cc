// The benchmark's workload runner. perfbench/run.py builds it and runs it;
// it can also be run by hand:
//
//   perfbench --workload tpcc_drift --seed 1 --seconds 15 [--trace]
//             [--out DIR]
//
// It prints what it measured, then one JSON line: correct, attempted,
// failed, metrics (end-to-end, or per layer with --trace), failures and
// info. Exit status 0 only when every output check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "persist/io.h"
#include "workloads.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

// Work per second of requested run time, measured on the reference machine
// (4 cores, GCC 12, RelWithDebInfo; see README.md). Runs size their work
// from these, never from a clock, so one seed replays the same statements.
constexpr double kDriftTxnsPerSecond = 2000;
constexpr double kDurableTxnsPerSecond = 1600;
constexpr double kTpcdsQueriesPerSecond = 110;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload tpcc_drift|tpcc_durable_net|"
               "tpcds_tuned --seed N --seconds S [--trace] [--out DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string workload;
  double seconds = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--out" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      return Usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  if (!(seconds > 0 && seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }
  // A traced run reports no setup_s, so one set-up is enough.
  if (opt.trace) opt.setups = 1;
  std::error_code mkdir_error;
  std::filesystem::create_directories(opt.out_dir, mkdir_error);

  RunResult result;
  if (workload == "tpcc_drift") {
    perfbench::TpccDriftSize size;
    size.txns_per_phase = static_cast<size_t>(
        std::lround(kDriftTxnsPerSecond * seconds / size.phases));
    result = perfbench::RunTpccDrift(opt, size);
  } else if (workload == "tpcc_durable_net") {
    perfbench::TpccDurableNetSize size;
    size.txns =
        static_cast<size_t>(std::lround(kDurableTxnsPerSecond * seconds));
    result = perfbench::RunTpccDurableNet(opt, size);
  } else if (workload == "tpcds_tuned") {
    perfbench::TpcdsTunedSize size;
    size.queries =
        static_cast<size_t>(std::lround(kTpcdsQueriesPerSecond * seconds));
    result = perfbench::RunTpcdsTuned(opt, size);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }

  std::vector<int64_t> samples = result.clients.latency_ns;
  const perfbench::LatencySummary latency = perfbench::Summarize(&samples);
  result.info.emplace_back("samples", std::to_string(latency.samples));
  result.info.emplace_back("beyond_p99", std::to_string(latency.beyond_p99));
  result.Check(latency.p99_supported(),
               "only " + std::to_string(latency.beyond_p99) +
                   " samples beyond p99 (need " +
                   std::to_string(perfbench::LatencySummary::kMinBeyondP99) +
                   "): the run is too short for a p99");
  result.info.emplace_back("window_s", std::to_string(result.window_s));
  result.info.emplace_back("seed", std::to_string(opt.seed));
  std::string setup_times;
  for (const double s : result.setup_s) {
    setup_times += (setup_times.empty() ? "" : " ") + std::to_string(s);
  }
  result.info.emplace_back("setup_s_each", setup_times);

  if (opt.trace) {
    const std::string path = opt.out_dir + "/trace-" + workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    const autoindex::Status written =
        autoindex::persist::AtomicWriteFile(path, result.chrome_trace);
    result.Check(written.ok(), "write trace: " + written.ToString());
    result.info.emplace_back("chrome_trace", path);
  }

  for (const auto& [key, value] : result.info) {
    std::printf("%s: %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(result, opt.trace).c_str());
  return result.failures.empty() ? 0 : 1;
}
