#include "samples.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

LatencySummary Summarize(std::vector<int64_t>* samples_ns) {
  LatencySummary summary;
  if (samples_ns->empty()) return summary;
  std::sort(samples_ns->begin(), samples_ns->end());
  summary.samples = samples_ns->size();
  summary.p50_ns = Percentile(*samples_ns, 0.50);
  summary.p99_ns = Percentile(*samples_ns, 0.99);
  summary.beyond_p99 = static_cast<size_t>(
      samples_ns->end() - std::upper_bound(samples_ns->begin(),
                                           samples_ns->end(), summary.p99_ns));
  return summary;
}

}  // namespace perfbench
