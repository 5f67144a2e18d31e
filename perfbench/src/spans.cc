#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

std::atomic<uint64_t> next_recorder_id{1};

// Trees at least this long are kept past the first keep_limit spans (up to
// twice that), so the Chrome trace also shows the slow statements, tuning
// rounds and index builds of a run's later part.
constexpr int64_t kSlowTreeNs = 1'000'000;

}  // namespace

std::vector<int64_t> SelfTimes(const std::vector<Span>& tree) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(tree.size());
  for (const Span& span : tree) {
    if (span.parent < 0) continue;
    const Span& parent = tree[static_cast<size_t>(span.parent)];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) {
      children[static_cast<size_t>(span.parent)].emplace_back(lo, hi);
    }
  }
  std::vector<int64_t> self(tree.size());
  for (size_t i = 0; i < tree.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& covered = children[i];
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    bool in_run = false;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    for (const auto& [lo, hi] : covered) {
      if (in_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (in_run) covered_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      in_run = true;
    }
    if (in_run) covered_ns += run_hi - run_lo;
    self[i] = tree[i].end_ns - tree[i].start_ns - covered_ns;
  }
  return self;
}

struct SpanRecorder::ThreadLog {
  uint32_t tid = 0;
  std::vector<Span> tree;
  std::vector<int32_t> open;  // indexes into `tree`, innermost last
  std::unordered_map<const char*, LayerTotal> totals;
};

SpanRecorder::SpanRecorder(bool enabled, size_t keep_limit)
    : enabled_(enabled),
      keep_limit_(keep_limit),
      id_(next_recorder_id.fetch_add(1)),
      origin_(std::chrono::steady_clock::now()) {}

SpanRecorder::~SpanRecorder() = default;

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

SpanRecorder::ThreadLog* SpanRecorder::LogForThisThread() {
  // Recorder ids are never reused, so a cached log of an earlier recorder
  // is recognized as stale and never dereferenced.
  thread_local uint64_t cached_id = 0;
  thread_local ThreadLog* cached_log = nullptr;
  if (cached_id != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    cached_log = logs_.back().get();
    cached_log->tid = static_cast<uint32_t>(logs_.size());
    cached_id = id_;
  }
  return cached_log;
}

void SpanRecorder::FinishTree(ThreadLog* log) {
  const std::vector<int64_t> self = SelfTimes(log->tree);
  for (size_t i = 0; i < log->tree.size(); ++i) {
    const Span& span = log->tree[i];
    LayerTotal& total = log->totals[span.name];
    ++total.count;
    total.total_ns += span.end_ns - span.start_ns;
    total.self_ns += self[i];
  }
  const Span& root = log->tree.front();
  const bool slow = root.end_ns - root.start_ns >= kSlowTreeNs;
  if (slow || !kept_full_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t cap = slow ? 2 * keep_limit_ : keep_limit_;
    if (kept_.size() + log->tree.size() <= cap) {
      const int64_t base = static_cast<int64_t>(kept_.size());
      for (size_t i = 0; i < log->tree.size(); ++i) {
        const Span& span = log->tree[i];
        kept_.push_back(KeptSpan{span, log->tid,
                                 base + static_cast<int64_t>(i),
                                 span.parent < 0 ? -1 : base + span.parent});
      }
    }
    if (kept_.size() >= keep_limit_) kept_full_.store(true);
  }
  log->tree.clear();
}

std::map<std::string, LayerTotal> SpanRecorder::Totals() const {
  std::map<std::string, LayerTotal> merged;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    for (const auto& [name, total] : log->totals) {
      LayerTotal& out = merged[name];
      out.count += total.count;
      out.total_ns += total.total_ns;
      out.self_ns += total.self_ns;
    }
  }
  return merged;
}

std::string SpanRecorder::ChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[320];
  for (size_t i = 0; i < kept_.size(); ++i) {
    const KeptSpan& k = kept_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%lld,"
                  "\"parent\":%lld,\"stmt\":%llu}}",
                  i == 0 ? "" : ",", k.span.name, k.tid,
                  static_cast<double>(k.span.start_ns) / 1e3,
                  static_cast<double>(k.span.end_ns - k.span.start_ns) / 1e3,
                  static_cast<long long>(k.id),
                  static_cast<long long>(k.parent_id),
                  static_cast<unsigned long long>(k.span.stmt_id));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

SpanScope::SpanScope(SpanRecorder* recorder, const char* name,
                     uint64_t stmt_id) {
  if (recorder == nullptr || !recorder->enabled()) return;
  recorder_ = recorder;
  log_ = recorder->LogForThisThread();
  Span span;
  span.name = name;
  span.stmt_id = stmt_id;
  if (!log_->open.empty()) {
    span.parent = log_->open.back();
    if (stmt_id == 0) {
      span.stmt_id = log_->tree[static_cast<size_t>(span.parent)].stmt_id;
    }
  }
  index_ = static_cast<int32_t>(log_->tree.size());
  log_->tree.push_back(span);
  log_->open.push_back(index_);
  log_->tree.back().start_ns = recorder->NowNs();
}

SpanScope::~SpanScope() {
  if (log_ == nullptr) return;
  log_->tree[static_cast<size_t>(index_)].end_ns = recorder_->NowNs();
  log_->open.pop_back();
  if (log_->open.empty()) recorder_->FinishTree(log_);
}

}  // namespace perfbench
