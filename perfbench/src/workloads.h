#pragma once

#include <cstddef>

#include "harness.h"

namespace perfbench {

// Work per run. Each size is fixed by the seed and the requested seconds
// (see main.cc), never by how fast the machine happens to be, so one seed
// always replays the same statements and the tuner sees the same trace.

// In-process TPC-C whose mix drifts each phase: standard, write-heavy,
// read-heavy, twice. Between phases the clients quiesce, the tuner
// observes the phase and recommends, and a benchmark thread applies the
// recommendation while the next phase runs.
struct TpccDriftSize {
  int phases = 6;
  size_t txns_per_phase = 1000;
};
RunResult RunTpccDrift(const RunOptions& opt, const TpccDriftSize& size);

// TPC-C (standard mix) over loopback TCP against a tuned index set, with a
// write-ahead log that fsyncs every append.
struct TpccDurableNetSize {
  size_t warmup_txns = 2000;
  int warmup_rounds = 2;
  size_t txns = 10000;
};
RunResult RunTpccDurableNet(const RunOptions& opt,
                            const TpccDurableNetSize& size);

// Read-only TPC-DS star-schema queries, cycling over all templates, against
// the index set the tuner chose during set-up.
struct TpcdsTunedSize {
  int sales_rows = 50'000;
  size_t warmup_queries = 500;
  int warmup_rounds = 2;
  size_t queries = 1500;
};
RunResult RunTpcdsTuned(const RunOptions& opt, const TpcdsTunedSize& size);

}  // namespace perfbench
