#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// One recorded interval of a span tree. Spans are recorded from the
// benchmark's side of each call into a layer, so a span's name is the
// layer it times.
struct Span {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;   // since the recorder was created
  int64_t end_ns = 0;
  int32_t parent = -1;    // index of the enclosing span in its tree; -1 = root
  uint64_t stmt_id = 0;   // the statement this span belongs to (0 = none)
};

// Self time of every span of one tree: its duration minus the part of its
// interval that its direct children cover (children clipped to the parent,
// overlapping children counted once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& tree);

// Per-name totals over every finished tree.
struct LayerTotal {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

// An in-memory span recorder. Each thread builds its current tree in a
// private log; when the tree's root closes, its self times are added to
// that thread's per-name totals, and whole trees are kept for the Chrome
// trace: every tree until `keep_limit` spans are kept, then only trees
// lasting 1 ms or more, up to twice that. A disabled recorder makes every
// SpanScope a no-op.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled, size_t keep_limit = 50'000);
  ~SpanRecorder();

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  // Totals by span name. Call only after every recording thread finished.
  std::map<std::string, LayerTotal> Totals() const;

  // The kept spans as Chrome trace-event JSON (chrome://tracing, Perfetto).
  std::string ChromeJson() const;

 private:
  friend class SpanScope;
  struct ThreadLog;

  ThreadLog* LogForThisThread();
  void FinishTree(ThreadLog* log);
  int64_t NowNs() const;

  const bool enabled_;
  const size_t keep_limit_;
  const uint64_t id_;
  const std::chrono::steady_clock::time_point origin_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by mu_
  struct KeptSpan {
    Span span;
    uint32_t tid = 0;
    int64_t id = 0;
    int64_t parent_id = -1;
  };
  std::vector<KeptSpan> kept_;  // guarded by mu_
  std::atomic<bool> kept_full_{false};
};

// Opens a span on the calling thread for the scope's lifetime. A span
// opened while another is open on the same thread becomes its child and
// inherits its statement id.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name, uint64_t stmt_id = 0);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_ = nullptr;
  SpanRecorder::ThreadLog* log_ = nullptr;
  int32_t index_ = -1;
};

}  // namespace perfbench
