#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of an ascending-sorted sample: the smallest value
// with at least p * n samples at or below it. p in (0, 1]; `sorted` must be
// non-empty.
int64_t Percentile(const std::vector<int64_t>& sorted, double p);

// p50/p99 of raw latency samples (nanoseconds). A p99 is only reported when
// at least kMinBeyondP99 samples lie strictly above it; with fewer, the tail
// rests on a handful of statements and moves from run to run.
struct LatencySummary {
  static constexpr size_t kMinBeyondP99 = 10;

  size_t samples = 0;
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
  size_t beyond_p99 = 0;

  bool p99_supported() const { return beyond_p99 >= kMinBeyondP99; }
};

// Sorts `samples_ns` in place and summarizes it. Empty input gives zeros.
LatencySummary Summarize(std::vector<int64_t>* samples_ns);

}  // namespace perfbench
