#include "net/server.h"

#include <signal.h>
#include <string.h>

#include <memory>
#include <utility>

#include "engine/database.h"
#include "engine/session.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace autoindex {
namespace net {
namespace {

// Process-wide net.* series (DESIGN.md §11 idiom: one registry lookup,
// cached pointers for the process lifetime).
struct NetMetrics {
  util::Gauge* connections_open;
  util::Counter* connections_total;
  util::Counter* connections_rejected;
  util::Counter* requests_total;
  util::Counter* responses_total;
  util::Counter* busy_rejections;
  util::Counter* idle_disconnects;
  util::Counter* statement_timeouts;
  util::Counter* bytes_read;
  util::Counter* bytes_written;
  util::Gauge* inflight_statements;
  util::LatencyHistogram* statement_us;

  static const NetMetrics& Get() {
    static const NetMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::Default();
      return NetMetrics{
          registry.GetGauge("net.connections_open"),
          registry.GetCounter("net.connections_total"),
          registry.GetCounter("net.connections_rejected"),
          registry.GetCounter("net.requests_total"),
          registry.GetCounter("net.responses_total"),
          registry.GetCounter("net.busy_rejections"),
          registry.GetCounter("net.idle_disconnects"),
          registry.GetCounter("net.statement_timeouts"),
          registry.GetCounter("net.bytes_read"),
          registry.GetCounter("net.bytes_written"),
          registry.GetGauge("net.inflight_statements"),
          registry.GetHistogram("net.statement_us"),
      };
    }();
    return metrics;
  }
};

// Signal integration: the handler may only touch async-signal-safe
// state, so it goes through one global pipe pointer. Only one server
// installs handlers at a time (the server binary).
std::atomic<SelfPipe*> g_signal_pipe{nullptr};

void HandleShutdownSignal(int /*signo*/) {
  SelfPipe* pipe = g_signal_pipe.load(std::memory_order_acquire);
  if (pipe != nullptr) pipe->Signal();
}

}  // namespace

Server::Server(Database* db, ServerConfig config)
    : db_(db), config_(std::move(config)) {}

Server::~Server() {
  Stop();
  // Release the signal handlers if this server owned them; the handlers
  // stay installed but become no-ops against a null pipe.
  SelfPipe* expected = &shutdown_pipe_;
  g_signal_pipe.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_acq_rel);
}

Status Server::Start() {
  {
    util::MutexLock lock(mu_);
    if (started_) return Status::AlreadyExists("server already started");
  }
  Status piped = shutdown_pipe_.OpenPipe();
  if (!piped.ok()) return piped;
  StatusOr<ListenSocket> bound =
      ListenSocket::Listen(config_.host, config_.port, config_.max_connections);
  if (!bound.ok()) return bound.status();
  listener_ = std::move(*bound);
  port_ = listener_.port();

  util::MutexLock lock(mu_);
  started_ = true;
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  return Status::Ok();
}

void Server::RequestShutdown() {
  draining_.store(true, std::memory_order_release);
  shutdown_pipe_.Signal();
}

void Server::Stop() {
  {
    util::MutexLock lock(mu_);
    if (!started_) return;
  }
  RequestShutdown();
  std::thread accept_thread;
  {
    util::MutexLock lock(mu_);
    accept_thread = std::move(accept_thread_);
  }
  if (accept_thread.joinable()) accept_thread.join();
  WaitUntilStopped();
}

void Server::WaitUntilStopped() {
  util::MutexLock lock(mu_);
  if (!started_) return;
  while (!stopped_) stopped_cv_.Wait(mu_);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_total = connections_total_.load(std::memory_order_relaxed);
  s.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.requests_started = requests_started_.load(std::memory_order_relaxed);
  s.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  s.busy_rejections = busy_rejections_.load(std::memory_order_relaxed);
  s.idle_disconnects = idle_disconnects_.load(std::memory_order_relaxed);
  s.statement_timeouts =
      statement_timeouts_.load(std::memory_order_relaxed);
  return s;
}

Status Server::InstallSignalHandlers() {
  SelfPipe* expected = nullptr;
  if (!g_signal_pipe.compare_exchange_strong(expected, &shutdown_pipe_,
                                             std::memory_order_acq_rel)) {
    return Status::AlreadyExists(
        "another server already owns the signal handlers");
  }
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  if (sigaction(SIGINT, &action, nullptr) != 0 ||
      sigaction(SIGTERM, &action, nullptr) != 0) {
    g_signal_pipe.store(nullptr, std::memory_order_release);
    return Status::Internal("sigaction failed");
  }
  return Status::Ok();
}

void Server::ReapFinished() {
  std::vector<std::thread> done;
  {
    util::MutexLock lock(mu_);
    for (uint64_t id : finished_) {
      auto it = workers_.find(id);
      if (it != workers_.end()) {
        done.push_back(std::move(it->second));
        workers_.erase(it);
      }
    }
    finished_.clear();
  }
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
}

void Server::AcceptLoop() {
  const NetMetrics& metrics = NetMetrics::Get();
  // Modest poll period so finished workers are reaped promptly even on a
  // quiet listener; shutdown wakes the loop immediately via the pipe.
  constexpr int kAcceptPollMs = 200;

  while (!draining()) {
    ReapFinished();
    StatusOr<Socket::WaitResult> wait =
        listener_.WaitAcceptable(kAcceptPollMs, shutdown_pipe_.read_fd());
    if (!wait.ok()) break;  // listener torn down underneath us
    if (*wait == Socket::WaitResult::kWake) break;
    if (*wait == Socket::WaitResult::kTimeout) continue;

    StatusOr<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) continue;  // transient (ECONNABORTED etc.)

    connections_total_.fetch_add(1, std::memory_order_relaxed);
    metrics.connections_total->Add(1);

    if (open_connections() >= static_cast<size_t>(config_.max_connections)) {
      // Admission: shed the connection with an explicit busy response
      // instead of letting it queue. Best-effort write — a peer that
      // already vanished changes nothing.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      busy_rejections_.fetch_add(1, std::memory_order_relaxed);
      metrics.connections_rejected->Add(1);
      metrics.busy_rejections->Add(1);
      (void)SendFrame(&*accepted,
                      Message::Busy(StrCat("server busy: ",
                                           config_.max_connections,
                                           " connections open")),
                      config_.io_timeout_ms, metrics.bytes_written);
      continue;
    }

    open_connections_.fetch_add(1, std::memory_order_acq_rel);
    metrics.connections_open->Add(1);
    util::MutexLock lock(mu_);
    const uint64_t conn_id = next_conn_id_++;
    workers_.emplace(conn_id, std::thread(&Server::ServeConnection, this,
                                          conn_id, std::move(*accepted)));
  }

  // Drain: stop accepting, wake every worker (the pipe is latched), join
  // them all, and only then report the server stopped.
  listener_.Close();
  RequestShutdown();
  for (;;) {
    std::vector<std::thread> workers;
    {
      util::MutexLock lock(mu_);
      for (auto& [id, t] : workers_) workers.push_back(std::move(t));
      workers_.clear();
      finished_.clear();
    }
    if (workers.empty()) break;
    for (std::thread& t : workers) {
      if (t.joinable()) t.join();
    }
  }
  util::MutexLock lock(mu_);
  stopped_ = true;
  stopped_cv_.NotifyAll();
}

void Server::FinishConnection(uint64_t conn_id) {
  open_connections_.fetch_sub(1, std::memory_order_acq_rel);
  NetMetrics::Get().connections_open->Add(-1);
  util::MutexLock lock(mu_);
  finished_.push_back(conn_id);
}

void Server::ServeConnection(uint64_t conn_id, Socket sock) {
  const NetMetrics& metrics = NetMetrics::Get();

  // Handshake: Hello -> HelloOk | Error. Everything else is fatal.
  Message hello;
  Status got = ReadFrame(&sock, &hello, config_.handshake_timeout_ms,
                         metrics.bytes_read);
  if (!got.ok() || hello.type != MessageType::kHello) {
    if (got.ok()) {
      (void)SendFrame(&sock,
                      Message::Error(StrCat("expected Hello, got ",
                                            MessageTypeName(hello.type))),
                      config_.io_timeout_ms, metrics.bytes_written);
    }
    FinishConnection(conn_id);
    return;
  }
  if (hello.protocol_version != kProtocolVersion) {
    (void)SendFrame(
        &sock,
        Message::Error(StrCat("protocol version mismatch: client ",
                              hello.protocol_version, ", server ",
                              kProtocolVersion)),
        config_.io_timeout_ms, metrics.bytes_written);
    FinishConnection(conn_id);
    return;
  }

  std::unique_ptr<Session> session = db_->CreateSession();
  if (!SendFrame(&sock, Message::HelloOk(session->id()),
                 config_.io_timeout_ms, metrics.bytes_written)
           .ok()) {
    FinishConnection(conn_id);
    return;
  }

  const int idle_ms = config_.idle_timeout_ms > 0 ? config_.idle_timeout_ms : -1;
  while (!draining()) {
    StatusOr<Socket::WaitResult> wait =
        sock.WaitReadable(idle_ms, shutdown_pipe_.read_fd());
    if (!wait.ok() || *wait == Socket::WaitResult::kWake) break;
    if (*wait == Socket::WaitResult::kTimeout) {
      idle_disconnects_.fetch_add(1, std::memory_order_relaxed);
      metrics.idle_disconnects->Add(1);
      (void)SendFrame(&sock,
                      Message::Error(StrCat("idle timeout after ",
                                            config_.idle_timeout_ms, " ms")),
                      config_.io_timeout_ms, metrics.bytes_written);
      break;
    }

    // The request trace opens once the socket is readable, so net.recv
    // measures frame parsing, not idle time between statements. Control
    // frames (ping/quit/...) cancel the trace below — only queries and
    // metrics scrapes are worth a flight-recorder slot.
    obs::ScopedTrace trace("net.request");
    Message request;
    {
      obs::ScopedSpan recv_span("net.recv");
      got = ReadFrame(&sock, &request, config_.io_timeout_ms,
                      metrics.bytes_read);
    }
    if (!got.ok()) {
      trace.Cancel();
      // A torn or corrupt frame poisons the stream: report once (the
      // peer may already be gone) and close. A clean EOF just closes.
      if (got.code() != StatusCode::kNotFound) {
        (void)SendFrame(&sock, Message::Error(got.ToString()),
                        config_.io_timeout_ms, metrics.bytes_written);
      }
      break;
    }

    if (request.type == MessageType::kPing) {
      trace.Cancel();
      if (!SendFrame(&sock, Message::Simple(MessageType::kPong),
                     config_.io_timeout_ms, metrics.bytes_written)
               .ok()) {
        break;
      }
      continue;
    }
    if (request.type == MessageType::kQuit) {
      trace.Cancel();
      (void)SendFrame(&sock, Message::Simple(MessageType::kBye),
                      config_.io_timeout_ms, metrics.bytes_written);
      break;
    }
    if (request.type == MessageType::kShutdown) {
      trace.Cancel();
      (void)SendFrame(&sock, Message::Simple(MessageType::kBye),
                      config_.io_timeout_ms, metrics.bytes_written);
      RequestShutdown();
      break;
    }
    if (request.type == MessageType::kMetricsRequest) {
      trace.Cancel();
      if (!SendFrame(&sock,
                     Message::MetricsResponse(
                         db_->RenderMetricsText(request.text)),
                     config_.io_timeout_ms, metrics.bytes_written)
               .ok()) {
        break;
      }
      continue;
    }
    if (request.type != MessageType::kQuery) {
      trace.Cancel();
      (void)SendFrame(&sock,
                      Message::Error(StrCat("unexpected ",
                                            MessageTypeName(request.type),
                                            " from client")),
                      config_.io_timeout_ms, metrics.bytes_written);
      break;
    }
    trace.set_client_trace_id(request.client_trace_id);

    // Admission: bound the statements executing concurrently across the
    // whole server; over the bound we shed with kBusy instead of
    // queueing, so a load spike degrades into explicit rejections the
    // client can back off from.
    bool shed = false;
    {
      obs::ScopedSpan admit_span("net.admit");
      const int inflight =
          inflight_statements_.fetch_add(1, std::memory_order_acq_rel) + 1;
      shed = inflight > config_.max_inflight_statements;
      if (shed) {
        inflight_statements_.fetch_sub(1, std::memory_order_acq_rel);
        busy_rejections_.fetch_add(1, std::memory_order_relaxed);
        metrics.busy_rejections->Add(1);
      }
    }
    if (shed) {
      trace.Cancel();
      if (!SendFrame(&sock,
                     Message::Busy(StrCat(
                         "server busy: ", config_.max_inflight_statements,
                         " statements in flight")),
                     config_.io_timeout_ms, metrics.bytes_written)
               .ok()) {
        break;
      }
      continue;
    }
    metrics.inflight_statements->Add(1);
    requests_started_.fetch_add(1, std::memory_order_relaxed);
    metrics.requests_total->Add(1);
    if (statement_hook_) statement_hook_();

    // Timed in every build: the statement deadline below acts on it.
    obs::ScopedSpan exec_span("net.execute", metrics.statement_us,
                              obs::Clock::kAlways);
    StatusOr<ExecResult> result = session->Execute(request.sql);
    const uint64_t elapsed_us = exec_span.End();
    metrics.inflight_statements->Add(-1);
    inflight_statements_.fetch_sub(1, std::memory_order_acq_rel);

    Message response;
    if (config_.statement_timeout_us > 0 &&
        elapsed_us > static_cast<uint64_t>(config_.statement_timeout_us)) {
      statement_timeouts_.fetch_add(1, std::memory_order_relaxed);
      metrics.statement_timeouts->Add(1);
      response = Message::FailedResult(Status::OutOfRange(
          StrCat("statement deadline exceeded: ", elapsed_us, " us > ",
                 config_.statement_timeout_us, " us")));
    } else if (!result.ok()) {
      response = Message::FailedResult(result.status());
    } else {
      response.type = MessageType::kResult;
      response.rows = std::move(result->rows);
      response.stats = result->stats;
      response.indexes_used = std::move(result->indexes_used);
    }
    // Stamp the server trace identity into the result so a traced client
    // can correlate its client.query trace with the server-side record.
    // The span count is as-of-encode: net.send closes after the write.
    response.trace_id = trace.trace_id();
    response.trace_span_count = static_cast<uint32_t>(trace.span_count());

    std::string frame = EncodeFrame(response);
    if (frame.size() - kFrameHeaderBytes > kMaxFrameBytes) {
      // The result is too wide for one frame; replace it with an error
      // rather than sending a header the client must reject.
      response = Message::FailedResult(Status::OutOfRange(
          StrCat("result exceeds frame limit (", frame.size(), " bytes)")));
      frame = EncodeFrame(response);
    }
    obs::ScopedSpan send_span("net.send");
    Status sent = sock.SendAll(frame.data(), frame.size(),
                               config_.io_timeout_ms);
    if (sent.ok()) metrics.bytes_written->Add(frame.size());
    responses_sent_.fetch_add(1, std::memory_order_relaxed);
    metrics.responses_total->Add(1);
    if (!sent.ok()) break;
  }

  FinishConnection(conn_id);
}

}  // namespace net
}  // namespace autoindex
