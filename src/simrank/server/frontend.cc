#include "simrank/server/frontend.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include "simrank/common/json_writer.h"
#include "simrank/common/string_util.h"

namespace simrank {
namespace {

/// Backpressure bounds: when a connection's unsent responses or unparsed
/// input exceed these, the loop stops *reading* it (TCP pushes back on the
/// peer) until the backlog drains — no connection can buffer the frontend
/// into the ground, which is what lets frontend.h promise bounded queues.
constexpr size_t kMaxPendingOutputBytes = 4u << 20;
constexpr size_t kInputBufferSlackBytes = 64u << 10;

uint64_t WallClockMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string ErrorBody(std::string_view code, std::string_view message) {
  JsonWriter json;
  json.BeginObject()
      .Key("error")
      .BeginObject()
      .Key("code")
      .String(code)
      .Key("message")
      .String(message)
      .EndObject()
      .EndObject();
  return std::move(json).Take();
}

FrontendResponse ErrorResponse(int status, std::string_view code,
                               std::string_view message) {
  return {status, ErrorBody(code, message)};
}

bool CheckAllowedParams(const HttpRequest& request,
                        std::initializer_list<const char*> allowed,
                        std::string* error) {
  std::vector<std::string_view> seen;
  for (const auto& [key, value] : request.params) {
    bool known = false;
    for (const char* name : allowed) known = known || key == name;
    if (!known) {
      *error = StrFormat("unknown parameter '%s'", key.c_str());
      return false;
    }
    for (const std::string_view earlier : seen) {
      if (earlier == key) {
        *error = StrFormat("duplicate parameter '%s'", key.c_str());
        return false;
      }
    }
    seen.push_back(key);
  }
  return true;
}

/// Per-connection state owned by the event loop. A connection handles one
/// dispatched request at a time (`awaiting`); pipelined requests stay
/// buffered in `in` until the response of the previous one is queued, so
/// responses always leave in request order.
struct HttpFrontend::Connection {
  int fd = -1;
  uint64_t id = 0;
  std::string in;
  std::string out;
  size_t out_sent = 0;
  /// Work is dispatched (or a profile is parked) and its completion not
  /// yet queued.
  bool awaiting = false;
  /// Flush `out`, then close (error, Connection: close, drain).
  bool close_after_flush = false;
  /// The peer half-closed: no further reads, but every request already
  /// buffered still gets its answer before the connection closes.
  bool peer_eof = false;
  /// Keep-alive decision of the request currently being answered.
  bool request_keep_alive = true;
  /// Events currently registered with epoll.
  uint32_t epoll_events = 0;
  /// Access-log capture of the request currently being answered: set by
  /// RouteRequest (only when the access log is active), consumed and
  /// cleared by QueueResponse. One dispatched request at a time per
  /// connection keeps this a single slot.
  uint64_t access_start_ns = 0;
  uint64_t access_trace_id = 0;
  std::string access_method;
  std::string access_path;
};

/// A worker's (or the profile thread's) finished answer, handed back to
/// the loop thread.
struct HttpFrontend::Completion {
  int fd = -1;
  uint64_t connection_id = 0;
  /// The admission class whose slot this completion releases; -1 for
  /// out-of-band completions (the parked profile capture), which hold no
  /// slot.
  int64_t admission_class = -1;
  FrontendResponse response;
};

/// Tracing decisions for one dispatch, made on the loop thread so the
/// worker needs no access to the request.
struct HttpFrontend::TraceRequest {
  bool inline_json = false;  // ?trace=1: trace JSON into the envelope
  bool header = false;       // X-Simrank-Trace: trace in response header
  bool sampled = false;      // coin flip / slow-query threshold
  uint64_t id = 0;
  /// Request path + query, kept only for traced requests (slow-ring
  /// target).
  std::string target;

  bool traced() const { return inline_json || header || sampled; }
};

HttpFrontend::HttpFrontend(FrontendOptions options,
                           std::vector<AdmissionClass> classes,
                           std::function<std::string()> metrics_body)
    : options_(std::move(options)),
      classes_(std::move(classes)),
      metrics_body_(std::move(metrics_body)),
      class_inflight_(classes_.size(), 0),
      class_latency_(std::make_unique<LatencyHistogram[]>(classes_.size())),
      slow_log_(options_.slow_ring_capacity),
      pool_(options_.threads) {
  FrontendRoute healthz;
  healthz.path = "/healthz";
  healthz.answer = [this](const HttpRequest&) {
    stat_healthz_.fetch_add(1, std::memory_order_relaxed);
    return FrontendResponse{200, "ok\n", "text/plain"};
  };
  AddRoute(std::move(healthz));
  FrontendRoute timeseries;
  timeseries.path = "/v1/debug/timeseries";
  timeseries.answer = [this](const HttpRequest& request) {
    return AnswerTimeseries(request);
  };
  AddRoute(std::move(timeseries));
  // Neither inline nor dispatched: the connection parks while a capture
  // thread runs (HandleProfileRequest).
  FrontendRoute profile;
  profile.path = "/v1/debug/profile";
  AddRoute(std::move(profile));
}

HttpFrontend::~HttpFrontend() {
  // Diagnostics threads poll pool_ and call metrics_body_; stop them
  // before member destructors run (pool_ is declared after them and would
  // be destroyed first).
  StopDiagnostics();
  // Workers may still be running if Serve was never run to completion;
  // let them finish (they only touch the completion queue and wake_fd_
  // beyond their own work) before the fds go away.
  pool_.Wait();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
}

void HttpFrontend::AddRoute(FrontendRoute route) {
  routes_.push_back(std::move(route));
}

Status HttpFrontend::Bind() {
  if (listen_fd_ >= 0) {
    return Status::InvalidArgument("Bind() called twice");
  }
  if (!options_.trace_log_path.empty() && trace_sink_ == nullptr) {
    auto sink = JsonlLogSink::Open(options_.trace_log_path);
    if (!sink.ok()) return sink.status();
    trace_sink_ = std::move(*sink);
  }
  if (!options_.access_log_path.empty() && access_sink_ == nullptr) {
    auto sink = JsonlLogSink::Open(options_.access_log_path);
    if (!sink.ok()) return sink.status();
    access_sink_ = std::move(*sink);
  }
  if (options_.metrics_history_window_s > 0 && metrics_history_ == nullptr) {
    MetricsHistory::Options history_options;
    history_options.window_seconds = options_.metrics_history_window_s;
    history_options.interval_ms = options_.metrics_history_interval_ms;
    metrics_history_ = std::make_unique<MetricsHistory>(history_options);
  }
  if (!options_.profile_log_path.empty() && profile_logger_ == nullptr) {
    ProfileLogger::Options logger_options;
    logger_options.path = options_.profile_log_path;
    logger_options.frequency_hz = options_.profile_log_hz;
    logger_options.period_seconds = options_.profile_log_period_s;
    // Sample a slice of each period, not all of it: the profiler is a
    // singleton, and a full-duty logger would starve every on-demand
    // /v1/debug/profile session with 409s.
    logger_options.duty_cycle = 0.1;
    auto logger = ProfileLogger::Start(logger_options);
    if (!logger.ok()) return logger.status();
    profile_logger_ = std::move(*logger);
  }
  sample_state_ = GenerateTraceId();

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("not an IPv4 bind address: " +
                                   options_.bind_address);
  }

  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string message = StrFormat(
        "cannot bind %s:%u: %s", options_.bind_address.c_str(),
        options_.port, std::strerror(errno));
    ::close(fd);
    return Status::IoError(message);
  }
  if (::listen(fd, 128) != 0) {
    const std::string message =
        StrFormat("listen() failed: %s", std::strerror(errno));
    ::close(fd);
    return Status::IoError(message);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
      0) {
    ::close(fd);
    return Status::IoError("getsockname() failed");
  }
  bound_port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    ::close(fd);
    return Status::IoError("epoll_create1/eventfd failed");
  }
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  listen_fd_ = fd;

  epoll_event event = {};
  event.events = EPOLLIN;
  event.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event);
  event.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);
  return Status::OK();
}

void HttpFrontend::Shutdown() {
  stop_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    // Async-signal-safe: a plain write on an eventfd. The return value is
    // irrelevant — a full counter already wakes the loop.
    [[maybe_unused]] const auto ignored =
        ::write(wake_fd_, &one, sizeof(one));
  }
}

Status HttpFrontend::Serve() {
  if (listen_fd_ < 0) {
    return Status::InvalidArgument("Serve() requires a successful Bind()");
  }
  // The loop thread itself shows up in profiles, and its kernel tid is
  // what the watchdog annotates stall warnings with.
  ScopedProfiledThread profiled_loop(options_.loop_name);
  StartDiagnostics();
  // An armed watchdog needs the idle loop to keep beating: cap the epoll
  // wait at the watchdog poll interval instead of blocking forever.
  const int idle_timeout_ms =
      options_.watchdog_interval_ms > 0
          ? static_cast<int>(options_.watchdog_interval_ms)
          : -1;
  epoll_event events[64];
  while (true) {
    watchdog_.Beat();
    if (stop_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (draining_) {
      // Idle keep-alive connections have nothing left to say; everything
      // else drains through its completion + flush.
      std::vector<Connection*> idle;
      for (auto& [fd, conn] : connections_) {
        if (!conn->awaiting && conn->out_sent == conn->out.size()) {
          idle.push_back(conn.get());
        }
      }
      for (Connection* conn : idle) CloseConnection(conn);
      if (connections_.empty() && inflight_ == 0) {
        StopDiagnostics();
        return Status::OK();
      }
    }
    const int ready =
        ::epoll_wait(epoll_fd_, events, 64,
                     /*timeout_ms=*/draining_ ? 50 : idle_timeout_ms);
    if (ready < 0 && errno != EINTR) {
      StopDiagnostics();
      return Status::IoError(StrFormat("epoll_wait failed: %s",
                                       std::strerror(errno)));
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        [[maybe_unused]] const auto ignored =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection* conn = it->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        if (conn->awaiting || conn->out_sent < conn->out.size()) {
          // Let the completion/flush path observe the error itself.
        } else {
          CloseConnection(conn);
          continue;
        }
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
      it = connections_.find(fd);
      if (it == connections_.end() || it->second.get() != conn) continue;
      if (events[i].events & EPOLLOUT) HandleWritable(conn);
    }
    DrainCompletions();
  }
}

void HttpFrontend::HandleAccept() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if ((errno == EMFILE || errno == ENFILE) && reserve_fd_ >= 0) {
        // Out of fds: the pending connection would keep the level-
        // triggered listener readable forever. Spend the reserve fd to
        // accept-and-shed it, then re-arm the reserve.
        ::close(reserve_fd_);
        reserve_fd_ = -1;
        const int shed = ::accept4(listen_fd_, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (shed >= 0) ::close(shed);
        reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        continue;
      }
      return;  // EAGAIN, or a transient accept failure
    }
    stat_connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (connections_.size() >= options_.max_connections) {
      // Beyond the connection cap there is no buffer to even parse a
      // request from; shedding at accept keeps existing traffic intact.
      ::close(fd);
      continue;
    }
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_connection_id_++;
    conn->epoll_events = EPOLLIN;
    epoll_event event = {};
    event.events = EPOLLIN;
    event.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
    connections_.emplace(fd, std::move(conn));
    stat_connections_open_.fetch_add(1, std::memory_order_relaxed);
  }
}

void HttpFrontend::HandleReadable(Connection* conn) {
  char buffer[4096];
  // The budget covers a full head plus the largest admissible body — a
  // request the parser would accept must be able to buffer completely, or
  // the read-side backpressure below would deadlock it.
  const size_t input_cap = options_.http.max_request_bytes +
                           options_.http.max_body_bytes +
                           kInputBufferSlackBytes;
  while (conn->in.size() < input_cap) {
    const ssize_t got = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (got > 0) {
      conn->in.append(buffer, static_cast<size_t>(got));
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (got < 0) {
      CloseConnection(conn);  // hard error; nothing is deliverable
      return;
    }
    conn->peer_eof = true;  // orderly half-close: answer, then close
    break;
  }
  ProcessBufferedRequests(conn);
}

void HttpFrontend::ProcessBufferedRequests(Connection* conn) {
  // One dispatched request per connection at a time; the rest of the
  // pipeline waits buffered so responses preserve request order. Parsing
  // also pauses while the unsent-output backlog is over the cap — a
  // pipelining client that never reads cannot make `out` grow without
  // bound, it just stops being read itself.
  while (!conn->awaiting && !conn->close_after_flush &&
         conn->out.size() - conn->out_sent < kMaxPendingOutputBytes) {
    HttpRequest request;
    const HttpParseStatus parsed =
        ParseHttpRequest(conn->in, options_.http, &request);
    if (parsed.outcome == HttpParseStatus::kNeedMore) break;
    if (parsed.outcome == HttpParseStatus::kError) {
      conn->request_keep_alive = false;
      QueueErrorResponse(conn, parsed.error_status, parsed.error_message);
      break;
    }
    conn->in.erase(0, parsed.consumed);
    conn->request_keep_alive = request.keep_alive;
    RouteRequest(conn, request);
  }
  if (MaybeCloseAfterEof(conn)) return;
  UpdateEpoll(conn);
}

/// After a half-close, the connection lives exactly until its buffered
/// requests are answered and flushed. Returns true when it closed `conn`.
bool HttpFrontend::MaybeCloseAfterEof(Connection* conn) {
  if (!conn->peer_eof) return false;
  if (conn->awaiting || conn->out_sent < conn->out.size()) return false;
  // Nothing in flight, everything flushed; whatever remains buffered is an
  // incomplete request head that can never complete.
  CloseConnection(conn);
  return true;
}

void HttpFrontend::RouteRequest(Connection* conn,
                                const HttpRequest& request) {
  stat_requests_.fetch_add(1, std::memory_order_relaxed);
  if (access_sink_ != nullptr) {
    conn->access_start_ns = TraceNowNanos();
    conn->access_trace_id = 0;
    conn->access_method = request.method;
    conn->access_path = request.path;
  }
  const FrontendRoute* route = nullptr;
  for (const FrontendRoute& candidate : routes_) {
    if (candidate.path == request.path) {
      route = &candidate;
      break;
    }
  }
  if (route == nullptr) {
    QueueResponse(conn, ErrorResponse(404, "NotFound",
                                      "no such endpoint: " + request.path));
    return;
  }
  if (request.method != route->method) {
    FrontendResponse response = ErrorResponse(
        405, "MethodNotAllowed",
        StrFormat("%s only accepts %s", request.path.c_str(),
                  route->method));
    response.headers.emplace_back("Allow", route->method);
    QueueResponse(conn, response);
    return;
  }
  if (request.method == "GET" && !request.body.empty()) {
    QueueErrorResponse(conn, 400, "GET endpoints take no request body");
    return;
  }
  if (route->answer) {
    QueueResponse(conn, route->answer(request));
  } else if (route->prepare) {
    Dispatch(conn, *route, request);
  } else {
    HandleProfileRequest(conn, request);
  }
}

void HttpFrontend::Dispatch(Connection* conn, const FrontendRoute& route,
                            const HttpRequest& request) {
  FrontendResponse reject;
  FrontendWork work = route.prepare(request, &reject);
  if (!work) {
    QueueResponse(conn, reject);
    return;
  }
  TraceRequest trace;
  // ?trace=1 inlines the trace JSON into the response envelope — the only
  // tracing channel allowed to change a body.
  if (const std::string* param = request.FindParam("trace")) {
    if (*param == "1") {
      trace.inline_json = true;
    } else if (*param != "0") {
      QueueErrorResponse(
          conn, 400,
          StrFormat("parameter 'trace' must be 0 or 1, got '%s'",
                    param->c_str()));
      return;
    }
  }
  // X-Simrank-Trace activates tracing without touching the body: the
  // trace comes back in the X-Simrank-Trace-Json response header. This is
  // how the router threads one trace id through its shard fan-out (the
  // /internal/* bodies are binary and must stay byte-exact).
  if (const std::string* header = request.FindHeader("x-simrank-trace")) {
    trace.header = ParseTraceId(*header, &trace.id);
  }
  // Ambient tracing: every request when a slow-query threshold is armed
  // (the slow ones must already have a trace by the time they turn out
  // slow), else a trace_sample coin flip.
  if (options_.slow_query_us > 0) {
    trace.sampled = true;
  } else if (options_.trace_sample > 0.0) {
    // xorshift64*: cheap, loop-thread-only, statistical only.
    sample_state_ ^= sample_state_ >> 12;
    sample_state_ ^= sample_state_ << 25;
    sample_state_ ^= sample_state_ >> 27;
    const uint64_t draw = sample_state_ * 0x2545F4914F6CDD1Dull;
    trace.sampled =
        static_cast<double>(draw >> 11) * 0x1.0p-53 < options_.trace_sample;
  }
  if (trace.traced()) {
    if (trace.id == 0) trace.id = GenerateTraceId();
    // Reassembled path + query (the parser splits the raw target) so slow
    // captures name the exact request.
    trace.target = request.path;
    for (size_t i = 0; i < request.params.size(); ++i) {
      trace.target += i == 0 ? '?' : '&';
      trace.target += request.params[i].first;
      trace.target += '=';
      trace.target += request.params[i].second;
    }
    if (access_sink_ != nullptr) conn->access_trace_id = trace.id;
  }

  // Admission control: bounded queues, never buffered overload. The global
  // cap answers 429 (the client is fanning out faster than the pool
  // drains), the class cap 503 (this endpoint specifically is saturated);
  // both tell the client when to come back.
  const uint32_t cls = route.admission_class;
  auto overloaded = [this, conn](int status, const std::string& message) {
    FrontendResponse response = ErrorResponse(status, "Overloaded", message);
    response.headers.emplace_back(
        "Retry-After", StrFormat("%u", options_.retry_after_seconds));
    QueueResponse(conn, response);
  };
  if (inflight_ >= options_.max_inflight) {
    stat_rejected_inflight_.fetch_add(1, std::memory_order_relaxed);
    overloaded(429, StrFormat("server is at its in-flight cap (%u); retry",
                              options_.max_inflight));
    return;
  }
  if (class_inflight_[cls] >= options_.max_class_inflight) {
    stat_rejected_class_.fetch_add(1, std::memory_order_relaxed);
    overloaded(503,
               StrFormat("endpoint %s is at its in-flight cap (%u); retry",
                         classes_[cls].path, options_.max_class_inflight));
    return;
  }

  ++inflight_;
  ++class_inflight_[cls];
  stat_inflight_.store(inflight_, std::memory_order_relaxed);
  conn->awaiting = true;
  const int fd = conn->fd;
  const uint64_t connection_id = conn->id;
  const auto dispatched_at = std::chrono::steady_clock::now();
  // One clock read per *traced* dispatch; untraced requests skip it.
  const uint64_t dispatch_ns = trace.traced() ? TraceNowNanos() : 0;
  pool_.Submit([this, fd, connection_id, cls, dispatched_at, dispatch_ns,
                trace = std::move(trace), work = std::move(work)] {
    // Queue-wait component of latency: dispatch to the moment a worker
    // actually picks the work up. Recorded before the synthetic handler
    // delay so tests measure real scheduling, not the injection.
    dispatch_latency_.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - dispatched_at)
            .count()));
    if (options_.handler_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.handler_delay_ms));
    }
    const bool traced = trace.traced();
    std::optional<TraceRecorder> recorder;
    if (traced) recorder.emplace(trace.id);
    Completion completion;
    completion.fd = fd;
    completion.connection_id = connection_id;
    completion.admission_class = cls;
    {
      // Bound for the duration of the work: every TraceScope/TraceAdd
      // down in the handler lands in this recorder (or no-ops when null).
      TraceBinding binding(traced ? &*recorder : nullptr);
      if (traced) {
        recorder->AddCompletedSpan(TraceStage::kQueueWait, dispatch_ns,
                                   TraceNowNanos() - dispatch_ns);
      }
      TraceScope root(TraceStage::kRequest, classes_[cls].name);
      completion.response = work();
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - dispatched_at);
    const uint64_t elapsed_us = static_cast<uint64_t>(elapsed.count());
    class_latency_[cls].Record(elapsed_us);
    if (traced) {
      stat_traced_requests_.fetch_add(1, std::memory_order_relaxed);
      FoldTrace(*recorder);
      const bool slow = options_.slow_query_us > 0 &&
                        elapsed_us >= options_.slow_query_us;
      const bool sampled_capture =
          trace.sampled && options_.slow_query_us == 0;
      if (slow || sampled_capture) {
        CaptureTrace(*recorder, trace.target, elapsed_us);
      }
      std::string& body = completion.response.body;
      if (trace.inline_json && body.size() > 2 && body.front() == '{' &&
          body.back() == '}') {
        // Splice the trace into the JSON envelope. Only the explicit
        // ?trace=1 opt-in ever changes a response body.
        body.insert(body.size() - 1, ",\"trace\":" + recorder->ToJson());
      }
      if (trace.header) {
        completion.response.headers.emplace_back("X-Simrank-Trace-Json",
                                                 recorder->ToJson());
      }
    }
    PushCompletion(std::move(completion));
  });
}

void HttpFrontend::PushCompletion(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.push_back(std::move(completion));
  }
  const uint64_t one = 1;
  [[maybe_unused]] const auto ignored = ::write(wake_fd_, &one, sizeof(one));
}

void HttpFrontend::DrainCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    if (completion.admission_class >= 0) {
      --inflight_;
      --class_inflight_[completion.admission_class];
      stat_inflight_.store(inflight_, std::memory_order_relaxed);
    }
    auto it = connections_.find(completion.fd);
    if (it == connections_.end() ||
        it->second->id != completion.connection_id) {
      continue;  // the client hung up mid-request; drop the answer
    }
    Connection* conn = it->second.get();
    conn->awaiting = false;
    QueueResponse(conn, completion.response);
    // The response is queued; pipelined follow-ups may now proceed (this
    // also closes half-closed connections once they flush).
    ProcessBufferedRequests(conn);
  }
}

FrontendResponse HttpFrontend::AnswerTimeseries(const HttpRequest& request) {
  stat_debug_timeseries_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_history_ == nullptr) {
    return ErrorResponse(503, "Unavailable",
                         "metrics history is disabled "
                         "(--metrics-history=0)");
  }
  const std::string* metric = request.FindParam("metric");
  if (metric == nullptr) {
    // No metric selected: list what is recorded.
    return {200, metrics_history_->ListJson()};
  }
  uint64_t window = 0;  // 0 = the full configured window
  const std::string* raw_window = request.FindParam("window");
  if (raw_window != nullptr && !ParseUint64(*raw_window, &window)) {
    return ErrorResponse(400, "InvalidArgument",
                         "parameter 'window' must be a span in seconds");
  }
  return {200, metrics_history_->QueryJson(*metric, window)};
}

void HttpFrontend::HandleProfileRequest(Connection* conn,
                                        const HttpRequest& request) {
  stat_debug_profile_.fetch_add(1, std::memory_order_relaxed);
  std::string error;
  if (!CheckAllowedParams(request, {"seconds", "hz"}, &error)) {
    QueueErrorResponse(conn, 400, error);
    return;
  }
  double seconds = 2.0;
  if (const std::string* raw = request.FindParam("seconds")) {
    if (!ParseDouble(*raw, &seconds) || !(seconds > 0.0) ||
        seconds > CpuProfiler::kMaxSeconds) {
      QueueErrorResponse(
          conn, 400,
          StrFormat("parameter 'seconds' must be in (0, %g]",
                    CpuProfiler::kMaxSeconds));
      return;
    }
  }
  uint64_t hz = CpuProfiler::kDefaultHz;
  if (const std::string* raw = request.FindParam("hz")) {
    if (!ParseUint64(*raw, &hz) || hz == 0 || hz > CpuProfiler::kMaxHz) {
      QueueErrorResponse(conn, 400,
                         StrFormat("parameter 'hz' must be in [1, %u]",
                                   CpuProfiler::kMaxHz));
      return;
    }
  }
  bool expected = false;
  if (!profile_busy_.compare_exchange_strong(expected, true)) {
    QueueResponse(conn, ErrorResponse(409, "Busy",
                                      "a profiling session is already "
                                      "running; retry when it finishes"));
    return;
  }
  // Park the connection and capture on a dedicated thread: the session
  // sleeps for `seconds`, which must not block the loop or hold a worker.
  conn->awaiting = true;
  const int fd = conn->fd;
  const uint64_t connection_id = conn->id;
  std::lock_guard<std::mutex> lock(profile_thread_mutex_);
  // The previous session released profile_busy_ before pushing its
  // completion, so this join only waits out its final microseconds.
  if (profile_thread_.joinable()) profile_thread_.join();
  profile_thread_ = std::thread([this, fd, connection_id, seconds, hz] {
    auto profiled =
        CpuProfiler::Instance().ProfileFor(seconds, static_cast<uint32_t>(hz));
    profile_busy_.store(false, std::memory_order_release);
    Completion completion;
    completion.fd = fd;
    completion.connection_id = connection_id;
    if (!profiled.ok()) {
      // The profiler itself was busy (e.g. a profile-log period is
      // mid-capture) or the platform lacks support.
      completion.response =
          ErrorResponse(409, "Busy", profiled.status().message());
    } else {
      const ProfileReport& report = *profiled;
      completion.response.status = 200;
      completion.response.content_type = "text/plain";
      completion.response.body = StrFormat(
          "# profile duration_seconds=%.3f frequency_hz=%u samples=%llu "
          "dropped=%llu threads=%u\n",
          report.duration_seconds, report.frequency_hz,
          static_cast<unsigned long long>(report.total_samples),
          static_cast<unsigned long long>(report.dropped_samples),
          report.armed_threads);
      completion.response.body += report.collapsed;
    }
    PushCompletion(std::move(completion));
  });
}

void HttpFrontend::StartDiagnostics() {
  if (options_.watchdog_interval_ms > 0) {
    WatchdogOptions watchdog_options;
    watchdog_options.poll_interval_ms = options_.watchdog_interval_ms;
    watchdog_options.stall_threshold_us = options_.watchdog_stall_us;
    watchdog_options.name = options_.loop_name;
    watchdog_.set_options(watchdog_options);
    // Called from the loop thread itself, so this tid is the loop's.
    watchdog_.SetWatchedTid(CurrentTid());
    watchdog_.SetQueueDepthProvider([this] { return pool_.queue_depth(); });
    watchdog_.Start();
  }
  if (metrics_history_ != nullptr && metrics_sampler_ == nullptr) {
    metrics_sampler_ = std::make_unique<MetricsSampler>(
        metrics_history_.get(), metrics_body_);
  }
  if (metrics_sampler_ != nullptr) metrics_sampler_->Start();
}

void HttpFrontend::StopDiagnostics() {
  watchdog_.Stop();
  if (metrics_sampler_ != nullptr) metrics_sampler_->Stop();
  if (profile_logger_ != nullptr) profile_logger_->Stop();
  std::lock_guard<std::mutex> lock(profile_thread_mutex_);
  if (profile_thread_.joinable()) profile_thread_.join();
}

void HttpFrontend::QueueResponse(Connection* conn,
                                 const FrontendResponse& response) {
  const bool keep =
      conn->request_keep_alive && !draining_ && !conn->close_after_flush;
  HttpResponseOptions response_options;
  response_options.keep_alive = keep;
  response_options.content_type = response.content_type;
  response_options.extra_headers = response.headers;
  conn->out += BuildHttpResponse(response.status, response.body,
                                 response_options);
  if (!keep) conn->close_after_flush = true;
  CountResponse(response.status);
  if (access_sink_ != nullptr && !conn->access_method.empty()) {
    LogAccess(*conn, response.status, response.body.size());
    conn->access_method.clear();
  }
  UpdateEpoll(conn);
}

void HttpFrontend::QueueErrorResponse(Connection* conn, int status,
                                      std::string_view message) {
  const char* code = status == 400 ? "InvalidArgument" : "BadRequest";
  QueueResponse(conn, ErrorResponse(status, code, message));
}

void HttpFrontend::HandleWritable(Connection* conn) {
  while (conn->out_sent < conn->out.size()) {
    const ssize_t sent =
        ::send(conn->fd, conn->out.data() + conn->out_sent,
               conn->out.size() - conn->out_sent, MSG_NOSIGNAL);
    if (sent > 0) {
      conn->out_sent += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    CloseConnection(conn);  // peer is gone; nothing left to deliver
    return;
  }
  conn->out.clear();
  conn->out_sent = 0;
  if (conn->close_after_flush && !conn->awaiting) {
    CloseConnection(conn);
    return;
  }
  // Output drained: resume any requests that were parked on the
  // output-backlog backpressure cap (no-op when there are none).
  ProcessBufferedRequests(conn);
}

void HttpFrontend::UpdateEpoll(Connection* conn) {
  // Backpressure: a connection over its input or unsent-output budget is
  // not read until the backlog drains (ProcessBufferedRequests and
  // HandleWritable re-run this as they consume).
  const bool over_budget =
      conn->in.size() >= options_.http.max_request_bytes +
                             options_.http.max_body_bytes +
                             kInputBufferSlackBytes ||
      conn->out.size() - conn->out_sent >= kMaxPendingOutputBytes;
  uint32_t desired = 0;
  if (!conn->close_after_flush && !conn->peer_eof && !over_budget) {
    desired |= EPOLLIN;
  }
  if (conn->out_sent < conn->out.size()) desired |= EPOLLOUT;
  if (desired == conn->epoll_events) return;
  epoll_event event = {};
  event.events = desired;
  event.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event);
  conn->epoll_events = desired;
}

void HttpFrontend::CloseConnection(Connection* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_.erase(conn->fd);
  stat_connections_open_.fetch_sub(1, std::memory_order_relaxed);
}

FrontendStats HttpFrontend::stats() const {
  FrontendStats stats;
  stats.requests = stat_requests_.load(std::memory_order_relaxed);
  stats.healthz = stat_healthz_.load(std::memory_order_relaxed);
  stats.debug_profile = stat_debug_profile_.load(std::memory_order_relaxed);
  stats.debug_timeseries =
      stat_debug_timeseries_.load(std::memory_order_relaxed);
  stats.traced_requests =
      stat_traced_requests_.load(std::memory_order_relaxed);
  stats.responses_2xx = stat_responses_2xx_.load(std::memory_order_relaxed);
  stats.responses_4xx = stat_responses_4xx_.load(std::memory_order_relaxed);
  stats.responses_5xx = stat_responses_5xx_.load(std::memory_order_relaxed);
  stats.misdirected = stat_misdirected_.load(std::memory_order_relaxed);
  stats.rejected_inflight =
      stat_rejected_inflight_.load(std::memory_order_relaxed);
  stats.rejected_class = stat_rejected_class_.load(std::memory_order_relaxed);
  stats.connections_accepted =
      stat_connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_open =
      stat_connections_open_.load(std::memory_order_relaxed);
  stats.inflight = stat_inflight_.load(std::memory_order_relaxed);
  return stats;
}

void HttpFrontend::CountResponse(int status) {
  if (status < 300) {
    stat_responses_2xx_.fetch_add(1, std::memory_order_relaxed);
  } else if (status < 500) {
    stat_responses_4xx_.fetch_add(1, std::memory_order_relaxed);
  } else {
    stat_responses_5xx_.fetch_add(1, std::memory_order_relaxed);
  }
  if (status == 421) {
    stat_misdirected_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string HttpFrontend::BuildSlowBody() const {
  // Hand-built (not JsonWriter): the captured traces are already
  // serialized JSON objects and are embedded verbatim.
  const std::vector<SlowQueryEntry> entries = slow_log_.Snapshot();
  std::string out = StrFormat(
      "{\"capacity\":%zu,\"total_recorded\":%llu,\"threshold_us\":%llu,"
      "\"entries\":[",
      slow_log_.capacity(),
      static_cast<unsigned long long>(slow_log_.total_recorded()),
      static_cast<unsigned long long>(options_.slow_query_us));
  for (size_t i = 0; i < entries.size(); ++i) {
    const SlowQueryEntry& entry = entries[i];
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"unix_micros\":%llu,\"duration_us\":%llu,\"trace_id\":\"%s\","
        "\"target\":\"",
        static_cast<unsigned long long>(entry.unix_micros),
        static_cast<unsigned long long>(entry.duration_micros),
        TraceIdToHex(entry.trace_id).c_str());
    JsonEscape(entry.target, &out);
    out += "\",\"trace\":";
    out += entry.trace_json;
    out += '}';
  }
  out += "]}";
  return out;
}

void HttpFrontend::FoldTrace(const TraceRecorder& recorder) {
  for (uint32_t i = 0; i < recorder.num_spans(); ++i) {
    const TraceSpan& span = recorder.span(i);
    stage_latency_[static_cast<size_t>(span.stage)].Record(
        span.duration_ns / 1000);
  }
  for (uint32_t c = 0; c < kNumTraceCounters; ++c) {
    const uint64_t value = recorder.counter(static_cast<TraceCounter>(c));
    if (value > 0) {
      stage_counters_[c].fetch_add(value, std::memory_order_relaxed);
    }
  }
}

void HttpFrontend::CaptureTrace(const TraceRecorder& recorder,
                                std::string_view target,
                                uint64_t duration_micros) {
  SlowQueryEntry entry;
  entry.unix_micros = WallClockMicros();
  entry.duration_micros = duration_micros;
  entry.trace_id = recorder.trace_id();
  entry.target = std::string(target);
  entry.trace_json = recorder.ToJson();
  if (trace_sink_ != nullptr) {
    std::string line =
        StrFormat("{\"unix_micros\":%llu,\"target\":\"",
                  static_cast<unsigned long long>(entry.unix_micros));
    JsonEscape(target, &line);
    line += StrFormat(
        "\",\"duration_us\":%llu,\"trace\":",
        static_cast<unsigned long long>(duration_micros));
    line += entry.trace_json;
    line += '}';
    trace_sink_->Append(std::move(line));
  }
  slow_log_.Record(std::move(entry));
}

void HttpFrontend::LogAccess(const Connection& conn, int status,
                             size_t body_bytes) {
  const uint64_t micros =
      conn.access_start_ns == 0
          ? 0
          : (TraceNowNanos() - conn.access_start_ns) / 1000;
  std::string line = StrFormat("{\"unix_micros\":%llu,\"method\":\"",
                               static_cast<unsigned long long>(
                                   WallClockMicros()));
  JsonEscape(conn.access_method, &line);
  line += "\",\"path\":\"";
  JsonEscape(conn.access_path, &line);
  line += StrFormat("\",\"status\":%d,\"bytes\":%zu,\"micros\":%llu",
                    status, body_bytes,
                    static_cast<unsigned long long>(micros));
  if (conn.access_trace_id != 0) {
    line += StrFormat(",\"trace_id\":\"%s\"",
                      TraceIdToHex(conn.access_trace_id).c_str());
  }
  line += '}';
  access_sink_->Append(std::move(line));
}

}  // namespace simrank
