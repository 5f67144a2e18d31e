#include "storage/latch_manager.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/trace.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

// Latch observability series (DESIGN.md §11). Resolved once; the
// registry hands out stable pointers, so the statics stay valid for the
// process lifetime.
struct LatchMetrics {
  util::Counter* acquisitions;
  util::Counter* contended;
  util::LatencyHistogram* wait_us;
  util::LatencyHistogram* hold_us;

  static const LatchMetrics& Get() {
    static const LatchMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::Default();
      return LatchMetrics{registry.GetCounter("latch.acquisitions"),
                          registry.GetCounter("latch.contended"),
                          registry.GetHistogram("latch.wait_us"),
                          registry.GetHistogram("latch.hold_us")};
    }();
    return metrics;
  }
};

}  // namespace

void LatchManager::Guard::Release() {
  if (manager_ == nullptr || held_.empty()) {
    manager_ = nullptr;
    held_.clear();
    return;
  }
  // One hold-time sample per acquisition batch (the statement-visible
  // critical-section length, not per-table).
  if constexpr (util::kMetricsEnabled) {
    LatchMetrics::Get().hold_us->Record(hold_watch_.ElapsedUs());
  }
  const std::thread::id tid = std::this_thread::get_id();
  bool wake = false;
  {
    util::MutexLock lock(manager_->mu_);
    wake = manager_->waiters_ > 0;
    auto thread_it = manager_->held_by_thread_.find(tid);
    // Reverse acquisition order, mirroring classic lock discipline.
    for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
      auto latch_it = manager_->latches_.find(it->first);
      if (latch_it == manager_->latches_.end()) continue;
      LatchInfo& info = latch_it->second;
      if (it->second == LatchMode::kExclusive) {
        info.writer = false;
      } else {
        --info.readers;
      }
      if (info.readers == 0 && !info.writer && info.waiting_writers == 0) {
        manager_->latches_.erase(latch_it);
      }
      if (thread_it != manager_->held_by_thread_.end()) {
        auto& held = thread_it->second;
        for (auto h = held.begin(); h != held.end(); ++h) {
          if (h->first == it->first && h->second == it->second) {
            held.erase(h);
            break;
          }
        }
      }
    }
    if (thread_it != manager_->held_by_thread_.end() &&
        thread_it->second.empty()) {
      manager_->held_by_thread_.erase(thread_it);
    }
  }
  if (wake) manager_->cv_.NotifyAll();
  manager_ = nullptr;
  held_.clear();
}

const LatchManager::LatchMode* LatchManager::HeldModeLocked(
    std::thread::id tid, const std::string& key) const {
  auto it = held_by_thread_.find(tid);
  if (it == held_by_thread_.end()) return nullptr;
  for (const auto& [name, mode] : it->second) {
    if (name == key) return &mode;
  }
  return nullptr;
}

bool LatchManager::SharedAdmissibleLocked(const std::string& key) const {
  auto it = latches_.find(key);
  return it == latches_.end() ||
         (!it->second.writer && it->second.waiting_writers == 0);
}

LatchManager::Guard LatchManager::Acquire(
    std::vector<LatchRequest> requests) {
  // Normalize to the catalog's case-insensitive keying, then coalesce
  // duplicates to the strongest mode and sort into the global order.
  for (LatchRequest& r : requests) r.table = ToLower(r.table);
  std::sort(requests.begin(), requests.end(),
            [](const LatchRequest& a, const LatchRequest& b) {
              if (a.table != b.table) return a.table < b.table;
              return a.mode == LatchMode::kExclusive &&
                     b.mode == LatchMode::kShared;
            });
  std::vector<LatchRequest> wanted;
  for (LatchRequest& r : requests) {
    if (!wanted.empty() && wanted.back().table == r.table) continue;
    wanted.push_back(std::move(r));
  }

  const std::thread::id tid = std::this_thread::get_id();
  std::vector<std::pair<std::string, LatchMode>> acquired;
  util::MutexLock lock(mu_);
  for (const LatchRequest& r : wanted) {
    if (const LatchMode* held = HeldModeLocked(tid, r.table)) {
      if (r.mode == LatchMode::kExclusive && *held == LatchMode::kShared) {
        // Shared->exclusive upgrades deadlock against other upgraders and
        // are always a statement-scoping bug here; fail fast.
        std::fprintf(stderr,
                     "LatchManager: shared->exclusive upgrade on '%s'\n",
                     r.table.c_str());
        std::abort();
      }
      continue;  // already held at a sufficient mode: nested no-op
    }
    if (r.mode == LatchMode::kExclusive) {
      LatchInfo& info = latches_[r.table];
      if (info.readers != 0 || info.writer) {
        // The map entry stays pinned while waiting_writers > 0 (Release
        // only erases latches nobody holds or waits on), so `info` stays
        // a valid reference across the waits.
        LatchMetrics::Get().contended->Add();
        // Contended-path span: records only thread-local trace state and
        // a lock-free histogram, so it is safe under mu_ (no lock-order
        // edge).
        obs::ScopedSpan wait_span("latch.wait", LatchMetrics::Get().wait_us);
        ++info.waiting_writers;
        ++waiters_;
        do {
          cv_.Wait(mu_);
        } while (info.readers != 0 || info.writer);
        --waiters_;
        --info.waiting_writers;
      }
      info.writer = true;
    } else {
      // Writer preference: a new reader also waits for queued writers so
      // a steady reader stream cannot starve index builds / updates.
      if (!SharedAdmissibleLocked(r.table)) {
        LatchMetrics::Get().contended->Add();
        obs::ScopedSpan wait_span("latch.wait", LatchMetrics::Get().wait_us);
        ++waiters_;
        do {
          cv_.Wait(mu_);
        } while (!SharedAdmissibleLocked(r.table));
        --waiters_;
      }
      ++latches_[r.table].readers;
    }
    held_by_thread_[tid].emplace_back(r.table, r.mode);
    acquired.emplace_back(r.table, r.mode);
    ++total_acquisitions_;
    LatchMetrics::Get().acquisitions->Add();
  }
  return Guard(this, std::move(acquired));
}

LatchManager::Guard LatchManager::AcquireShared(
    const std::vector<std::string>& tables) {
  std::vector<LatchRequest> requests;
  requests.reserve(tables.size());
  for (const std::string& t : tables) {
    requests.push_back({t, LatchMode::kShared});
  }
  return Acquire(std::move(requests));
}

LatchManager::Guard LatchManager::AcquireExclusive(const std::string& table) {
  return Acquire({{table, LatchMode::kExclusive}});
}

LatchManager::DebugSnapshot LatchManager::Snapshot() const {
  DebugSnapshot snap;
  util::MutexLock lock(mu_);
  snap.latches.reserve(latches_.size());
  for (const auto& [table, info] : latches_) {
    snap.latches.push_back(
        {table, info.readers, info.writer, info.waiting_writers});
  }
  snap.threads.reserve(held_by_thread_.size());
  for (const auto& [tid, held] : held_by_thread_) {
    (void)tid;
    snap.threads.push_back({held});
  }
  return snap;
}

size_t LatchManager::total_acquisitions() const {
  util::MutexLock lock(mu_);
  return total_acquisitions_;
}

void LatchManager::TestOnlyAddPhantomReader(const std::string& table) {
  util::MutexLock lock(mu_);
  ++latches_[ToLower(table)].readers;
}

}  // namespace autoindex
