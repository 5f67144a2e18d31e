#include "obs/trace.h"

namespace autoindex {
namespace obs {

namespace {

// One reusable context per thread: beginning a trace is allocation-free
// after the first few (the span vector keeps its capacity between
// traces).
thread_local TraceContext tls_context;
thread_local TraceContext* tls_current = nullptr;

// splitmix64 finalizer — the deterministic head-sampling coin. Spreads
// consecutive trace ids uniformly over u64 so comparing against
// rate * 2^64 keeps an unbiased `rate` fraction, with no RNG state and
// full reproducibility (the banned-random rule stays happy).
uint64_t MixTraceId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t SampleThresholdFor(double rate) {
  if (rate <= 0.0) return 0;
  if (rate >= 1.0) return UINT64_MAX;
  return static_cast<uint64_t>(rate * 18446744073709551616.0);  // 2^64
}

}  // namespace

// --- TraceContext ------------------------------------------------------

uint32_t TraceContext::StartSpan(const char* name) {
  if (data_.spans.size() >= kMaxSpansPerTrace) {
    ++data_.spans_dropped;
    return 0;
  }
  return PushSpan(name, watch_.ElapsedUs());
}

uint32_t TraceContext::PushSpan(const char* name, uint64_t start_us) {
  SpanRecord span;
  span.id = static_cast<uint32_t>(data_.spans.size() + 1);
  span.parent = active_;
  span.start_us = start_us;
  span.name = name;
  data_.spans.push_back(span);
  active_ = span.id;
  return span.id;
}

void TraceContext::DetachSpan(uint32_t id) {
  if (id == 0) return;
  active_ = data_.spans[id - 1].parent;
}

uint64_t TraceContext::FinishSpan(uint32_t id) {
  if (id == 0) return 0;
  SpanRecord& span = data_.spans[id - 1];
  span.duration_us = watch_.ElapsedUs() - span.start_us;
  return span.duration_us;
}

void TraceContext::SetSpanAttr(uint32_t id, const char* attr_name,
                               int64_t value) {
  if (id == 0) return;
  SpanRecord& span = data_.spans[id - 1];
  span.attr_name = attr_name;
  span.attr_value = value;
}

void TraceContext::Begin(const char* name, Tracer* tracer, uint64_t trace_id,
                         bool sampled) {
  // One clock read places the trace in the tracer's epoch, starts its
  // stopwatch and opens the root span at 0.
  const util::Stopwatch::TimePoint now = util::Stopwatch::Now();
  tracer_ = tracer;
  data_.trace_id = trace_id;
  data_.client_trace_id = 0;
  data_.start_offset_us = tracer->epoch_.ElapsedUsAt(now);
  data_.total_us = 0;
  data_.spans_dropped = 0;
  data_.sampled = sampled;
  data_.spans.clear();
  active_ = 0;
  watch_.RestartAt(now);
  root_ = PushSpan(name, 0);
}

uint64_t TraceContext::End() {
  data_.total_us = EndSpan(root_);
  tracer_->Submit(data_);
  tracer_ = nullptr;
  return data_.total_us;
}

void TraceContext::Abandon() {
  tracer_->NoteCancelled();
  tracer_ = nullptr;
}

// --- Tracer ------------------------------------------------------------

Tracer::Tracer(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  Configure(kDefaultSlowUs, kDefaultSampleRate);
  util::MutexLock lock(mu_);
  ring_.reserve(capacity_);
}

Tracer& Tracer::Default() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Configure(uint64_t slow_us, double sample_rate) {
  slow_us_.store(slow_us, std::memory_order_relaxed);
  sample_threshold_.store(SampleThresholdFor(sample_rate),
                          std::memory_order_relaxed);
}

uint64_t Tracer::BeginTrace(bool* sampled) {
  const uint64_t id = next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  *sampled = MixTraceId(id) < sample_threshold_.load(std::memory_order_relaxed);
  return id;
}

void Tracer::Submit(const TraceData& data) {
  if (data.spans_dropped > 0) {
    spans_dropped_.fetch_add(data.spans_dropped, std::memory_order_relaxed);
  }
  const bool slow =
      data.total_us >= slow_us_.load(std::memory_order_relaxed);
  if (!slow && !data.sampled) {
    sampled_out_.fetch_add(1, std::memory_order_relaxed);
    finished_.fetch_add(1, std::memory_order_release);
    return;
  }
  util::MutexLock lock(mu_);
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(data);
  } else {
    ring_[next_slot_] = data;
  }
  next_slot_ = (next_slot_ + 1) % capacity_;
  finished_.fetch_add(1, std::memory_order_release);
}

void Tracer::NoteCancelled() {
  util::MutexLock lock(mu_);
  ++cancelled_;
}

Tracer::Snapshot Tracer::TakeSnapshot() const {
  Snapshot snap;
  snap.capacity = capacity_;
  util::MutexLock lock(mu_);
  Stats& stats = snap.stats;
  // The lock holds recorded_ and the kept share of finished_ still, but a
  // dropped trace may sit between its two lock-free adds. Re-read until
  // none does, so a correct Submit always yields a balanced snapshot
  // (finished == recorded + sampled_out); a dropped trace finishes its
  // adds without waiting for anything. The bound turns a Submit that
  // stopped balancing into a validator report instead of a hang.
  for (int round = 0; round < 1000; ++round) {
    stats.sampled_out = sampled_out_.load(std::memory_order_acquire);
    stats.finished = finished_.load(std::memory_order_acquire);
    if (stats.finished == recorded_ + stats.sampled_out) break;
  }
  stats.recorded = recorded_;
  stats.cancelled = cancelled_;
  stats.spans_dropped = spans_dropped_.load(std::memory_order_relaxed);
  // Loaded after finished_: every submitted trace had its id allocated
  // first, so started never reads behind finished.
  stats.started = next_trace_id_.load(std::memory_order_acquire);
  stats.finished += skew_.finished;
  stats.recorded += skew_.recorded;
  stats.sampled_out += skew_.sampled_out;
  // Oldest first: once the ring wrapped, next_slot_ points at the oldest
  // kept trace.
  snap.traces.reserve(ring_.size());
  const size_t first = ring_.size() < capacity_ ? 0 : next_slot_;
  for (size_t i = 0; i < ring_.size(); ++i) {
    snap.traces.push_back(ring_[(first + i) % ring_.size()]);
  }
  return snap;
}

void Tracer::ResetForTest() {
  util::MutexLock lock(mu_);
  ring_.clear();
  next_slot_ = 0;
  recorded_ = 0;
  cancelled_ = 0;
  skew_ = Stats{};
  finished_.store(0, std::memory_order_relaxed);
  sampled_out_.store(0, std::memory_order_relaxed);
  spans_dropped_.store(0, std::memory_order_relaxed);
  next_trace_id_.store(0, std::memory_order_relaxed);
}

TraceData* Tracer::TestOnlyMutableTrace(size_t index) {
  util::MutexLock lock(mu_);
  if (index >= ring_.size()) return nullptr;
  const size_t first = ring_.size() < capacity_ ? 0 : next_slot_;
  return &ring_[(first + index) % ring_.size()];
}

void Tracer::TestOnlyCorruptStats(int64_t d_finished, int64_t d_recorded,
                                  int64_t d_sampled_out) {
  util::MutexLock lock(mu_);
  skew_.finished += static_cast<uint64_t>(d_finished);
  skew_.recorded += static_cast<uint64_t>(d_recorded);
  skew_.sampled_out += static_cast<uint64_t>(d_sampled_out);
}

// --- RAII helpers ------------------------------------------------------

uint64_t CurrentTraceId() {
  if constexpr (!util::kMetricsEnabled) return 0;
  return tls_current == nullptr ? 0 : tls_current->trace_id();
}

ScopedTrace::ScopedTrace(const char* name, Tracer* tracer,
                         util::LatencyHistogram* hist, Clock clock)
    : sample_(hist) {
  // Nested: the outermost scope owns the trace.
  if (util::kMetricsEnabled && tls_current == nullptr) {
    if (tracer == nullptr) tracer = &Tracer::Default();
    bool sampled = false;
    const uint64_t id = tracer->BeginTrace(&sampled);
    tls_context.Begin(name, tracer, id, sampled);
    tls_current = &tls_context;
    ctx_ = &tls_context;
  }
  sample_.Arm(/*traced=*/ctx_ != nullptr, clock);
}

uint64_t ScopedTrace::End() {
  uint64_t traced_us = 0;
  if (ctx_ != nullptr) {
    tls_current = nullptr;
    if (ctx_->tracer_ != nullptr) traced_us = ctx_->End();
    ctx_ = nullptr;
  }
  return sample_.Finish(traced_us);
}

void ScopedTrace::Cancel() {
  sample_.Skip();
  if (ctx_ == nullptr || ctx_->tracer_ == nullptr) return;
  ctx_->Abandon();
}

void ScopedTrace::SetRootAttr(const char* name, int64_t value) {
  if (ctx_ != nullptr) ctx_->SetSpanAttr(ctx_->root_, name, value);
}

ScopedSpan::ScopedSpan(const char* name, util::LatencyHistogram* hist,
                       Clock clock)
    : sample_(hist) {
  if (util::kMetricsEnabled) ctx_ = tls_current;
  if (ctx_ != nullptr) id_ = ctx_->StartSpan(name);
  sample_.Arm(/*traced=*/id_ != 0, clock);
}

uint64_t ScopedSpan::End() {
  uint64_t traced_us = 0;
  if (ctx_ != nullptr) {
    traced_us = ctx_->EndSpan(id_);
    ctx_ = nullptr;
  }
  return sample_.Finish(traced_us);
}

void ScopedSpan::SetAttr(const char* name, int64_t value) {
  if (ctx_ != nullptr) ctx_->SetSpanAttr(id_, name, value);
}

void OperatorSpan::Begin(const char* name) {
  if (util::kMetricsEnabled) ctx_ = tls_current;
  if (ctx_ != nullptr) id_ = ctx_->StartSpan(name);
}

void OperatorSpan::Leave() {
  if (ctx_ != nullptr) ctx_->DetachSpan(id_);
}

void OperatorSpan::End(const char* attr_name, int64_t attr_value) {
  if (ctx_ == nullptr) return;
  ctx_->SetSpanAttr(id_, attr_name, attr_value);
  ctx_->FinishSpan(id_);
  ctx_ = nullptr;
  id_ = 0;
}

}  // namespace obs
}  // namespace autoindex
