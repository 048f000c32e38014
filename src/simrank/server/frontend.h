// Epoll HTTP frontend shared by SimRankServer and SimRankRouter: each of
// them is a table of routes on one of these.
//
// One event-loop thread owns every socket: nonblocking accept on the
// listener, buffered reads, request parsing (server/http.h), response
// flushing, keep-alive and pipelining. Handler work never runs on the
// loop: a validated request is *dispatched* to a worker pool and the
// connection keeps reading/writing other traffic until the worker's
// completion is handed back through an eventfd-signalled queue. Cheap
// introspection routes are answered inline on the loop, so they respond
// even when every worker is busy — that is what makes a stats endpoint
// usable as an overload probe.
//
// Admission control bounds the work queue: a dispatch beyond the global
// in-flight cap is rejected with 429, one beyond its admission class's
// in-flight cap with 503, both carrying Retry-After — the frontend never
// buffers work it cannot serve. Rejections are serialized on the loop
// thread, so they stay fast and allocation-light under fanout. A
// connection whose unsent output or unparsed input is over budget is not
// read until the backlog drains (TCP pushes back on the peer), and
// connections beyond max_connections are accepted and closed at once.
//
// Answered by the frontend itself, for every route table:
//   - 404 for an unknown path, 405 (with Allow) for the wrong method, 400
//     for a GET with a body; parser errors (400/413/414/431/501/505) close
//     the connection;
//   - GET /healthz             liveness probe (text/plain "ok")
//   - GET /v1/debug/profile    sampling CPU profile: arms SIGPROF timers
//                              for ?seconds=N (default 2), returns
//                              flamegraph collapsed-stack text; 409 when a
//                              session is already running. The connection
//                              parks and a dedicated capture thread
//                              answers, so the loop keeps serving while
//                              the profile runs.
//   - GET /v1/debug/timeseries metrics history ring as JSON
//                              (?metric=NAME&window=SECONDS; no args lists
//                              the available families)
//
// Tracing of dispatched requests: a request is traced when the client
// sent `?trace=1` (trace JSON spliced into the JSON envelope — the only
// channel allowed to change a body), an `X-Simrank-Trace: <hex id>`
// header (trace JSON returned in the `X-Simrank-Trace-Json` response
// header, body untouched — how the router collects shard sub-traces), it
// won the trace_sample coin flip, or slow_query_us > 0. The recorder is
// bound to the worker thread for the whole handler. Every trace folds
// into per-stage histograms and counters; sampled traces and those slower
// than slow_query_us land in the slow-query ring and the trace log.
//
// Lifecycle: Bind() (port 0 picks a free port, see port()), then Serve()
// blocks until Shutdown() — which is async-signal-safe, so a SIGINT/
// SIGTERM handler may call it directly. Shutdown drains: the listener
// closes first, in-flight work finishes and flushes, then Serve returns.
// Linux-only (epoll/eventfd).
#ifndef OIPSIM_SIMRANK_SERVER_FRONTEND_H_
#define OIPSIM_SIMRANK_SERVER_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simrank/common/latency_histogram.h"
#include "simrank/common/macros.h"
#include "simrank/common/status.h"
#include "simrank/common/thread_pool.h"
#include "simrank/obs/log_sink.h"
#include "simrank/obs/metrics_history.h"
#include "simrank/obs/profiler.h"
#include "simrank/obs/slow_query_log.h"
#include "simrank/obs/trace.h"
#include "simrank/obs/watchdog.h"
#include "simrank/server/http.h"

namespace simrank {

/// One answer: status, body (JSON unless content_type says otherwise) and
/// extra headers (Retry-After, version headers, ...).
struct FrontendResponse {
  FrontendResponse() = default;
  FrontendResponse(int status, std::string body,
                   std::string content_type = "application/json")
      : status(status),
        body(std::move(body)),
        content_type(std::move(content_type)) {}

  int status = 500;
  std::string body;
  std::string content_type = "application/json";
  std::vector<std::pair<std::string, std::string>> headers;
};

/// The error envelope every endpoint uses:
/// {"error":{"code":CODE,"message":MESSAGE}}.
std::string ErrorBody(std::string_view code, std::string_view message);

/// A JSON error response with ErrorBody(code, message).
FrontendResponse ErrorResponse(int status, std::string_view code,
                               std::string_view message);

/// Rejects query parameters outside `allowed` (and duplicates), so a typo
/// like `/v1/pair?a=1&c=2` fails loudly instead of querying b=0. Fills
/// `*error` with a 400-worthy message on failure.
bool CheckAllowedParams(const HttpRequest& request,
                        std::initializer_list<const char*> allowed,
                        std::string* error);

/// A dispatched request's handler: runs on a pool worker with the
/// request's trace recorder (if any) bound to the thread.
using FrontendWork = std::function<FrontendResponse()>;

/// One path of a route table. Exactly one of `answer` and `prepare` is
/// set.
struct FrontendRoute {
  std::string path;
  /// "GET" or "POST"; other methods are answered 405 with Allow.
  const char* method = "GET";
  /// Inline route: answered on the loop thread, so it must be cheap.
  std::function<FrontendResponse(const HttpRequest&)> answer;
  /// Dispatched route: validates on the loop thread and returns the work
  /// to run on a worker under `admission_class` — or fills `*reject` and
  /// returns an empty function, which answers without taking a slot.
  std::function<FrontendWork(const HttpRequest&, FrontendResponse* reject)>
      prepare;
  uint32_t admission_class = 0;
};

/// Dispatched routes sharing one in-flight cap and latency histogram.
struct AdmissionClass {
  /// Root span detail and histogram label ("pair").
  const char* name;
  /// Named in 503 bodies ("/v1/pair").
  const char* path;
};

/// Frontend knobs; each owner fills these from its own options and
/// validates them there.
struct FrontendOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;
  /// Worker threads; 0 means hardware concurrency.
  uint32_t threads = 0;
  /// Global cap on dispatched-but-unfinished work (429 beyond it).
  uint32_t max_inflight = 64;
  /// Per-admission-class cap (503 beyond it).
  uint32_t max_class_inflight = 32;
  uint32_t max_connections = 1024;
  uint32_t retry_after_seconds = 1;
  /// Synthetic per-dispatch service time (tests and benches only).
  uint32_t handler_delay_ms = 0;
  HttpLimits http;
  double trace_sample = 0.0;
  uint64_t slow_query_us = 0;
  uint32_t slow_ring_capacity = 64;
  std::string trace_log_path;
  std::string access_log_path;
  std::string profile_log_path;
  uint32_t profile_log_hz = 19;
  uint32_t profile_log_period_s = 60;
  /// 0 disables the loop watchdog.
  uint32_t watchdog_interval_ms = 100;
  uint64_t watchdog_stall_us = 1000000;
  /// 0 disables the metrics history ring.
  uint32_t metrics_history_window_s = 900;
  uint32_t metrics_history_interval_ms = 1000;
  /// The loop thread's name in profiles and watchdog warnings; tells a
  /// router's loop from a server's when both run in one process.
  const char* loop_name = "epoll-loop";
};

/// Monotonic counters since construction, readable from any thread.
struct FrontendStats {
  /// Complete requests parsed, whatever their route.
  uint64_t requests = 0;
  uint64_t healthz = 0;
  uint64_t debug_profile = 0;
  uint64_t debug_timeseries = 0;
  /// Dispatched requests that ran with a live trace recorder.
  uint64_t traced_requests = 0;
  uint64_t responses_2xx = 0;
  uint64_t responses_4xx = 0;
  uint64_t responses_5xx = 0;
  /// 421 Misdirected Request responses.
  uint64_t misdirected = 0;
  /// Admission rejections: global cap (429) and class cap (503).
  uint64_t rejected_inflight = 0;
  uint64_t rejected_class = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  /// Dispatched work not yet completed.
  uint64_t inflight = 0;
};

class HttpFrontend {
 public:
  /// `metrics_body` renders the owner's /metrics text; the metrics history
  /// samples it from its own thread, so it must be safe to call
  /// concurrently with serving.
  HttpFrontend(FrontendOptions options, std::vector<AdmissionClass> classes,
               std::function<std::string()> metrics_body);
  ~HttpFrontend();

  OIPSIM_DISALLOW_COPY_AND_ASSIGN(HttpFrontend);

  /// Adds a route; every route must be added before Serve().
  void AddRoute(FrontendRoute route);

  /// Opens the log sinks, the profile logger, the listener and the epoll
  /// set. Must precede Serve().
  Status Bind();

  /// The bound port (the kernel's choice when options.port was 0).
  uint16_t port() const { return bound_port_; }

  /// Runs the event loop on the calling thread until Shutdown(). Returns
  /// OK after a clean drain.
  Status Serve();

  /// Requests a graceful stop; callable from any thread and from signal
  /// handlers (it only touches an atomic and an eventfd write).
  void Shutdown();

  FrontendStats stats() const;

  uint32_t num_threads() const { return pool_.num_threads(); }
  /// True once Shutdown() was observed (loop thread only: inline routes).
  bool draining() const { return draining_; }

  LatencyHistogram::Snapshot class_latency(uint32_t admission_class) const {
    return class_latency_[admission_class].snapshot();
  }
  LatencyHistogram::Snapshot stage_latency(TraceStage stage) const {
    return stage_latency_[static_cast<size_t>(stage)].snapshot();
  }
  uint64_t stage_counter(TraceCounter counter) const {
    return stage_counters_[static_cast<size_t>(counter)].load(
        std::memory_order_relaxed);
  }
  /// Dispatch-to-start latency (queue wait before a worker picks work up).
  LatencyHistogram::Snapshot dispatch_latency() const {
    return dispatch_latency_.snapshot();
  }
  Watchdog::Snapshot watchdog_snapshot() const {
    return watchdog_.snapshot();
  }
  const SlowQueryLog& slow_log() const { return slow_log_; }
  /// Null when the history is disabled.
  const MetricsHistory* metrics_history() const {
    return metrics_history_.get();
  }

  /// The slow-query ring as JSON (capacity, totals, captured traces).
  std::string BuildSlowBody() const;

 private:
  struct Connection;
  struct Completion;
  struct TraceRequest;

  // Event-loop steps (loop thread only).
  void HandleAccept();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  void ProcessBufferedRequests(Connection* conn);
  bool MaybeCloseAfterEof(Connection* conn);
  void RouteRequest(Connection* conn, const HttpRequest& request);
  void Dispatch(Connection* conn, const FrontendRoute& route,
                const HttpRequest& request);
  /// Parks the connection and runs the profile session on a dedicated
  /// thread; the result comes back through the completion queue.
  void HandleProfileRequest(Connection* conn, const HttpRequest& request);
  FrontendResponse AnswerTimeseries(const HttpRequest& request);
  /// Starts/stops the watchdog, metrics sampler, profile logger and any
  /// profile capture thread (Serve entry/exit + destructor).
  void StartDiagnostics();
  void StopDiagnostics();
  void PushCompletion(Completion completion);
  void DrainCompletions();
  void QueueResponse(Connection* conn, const FrontendResponse& response);
  void QueueErrorResponse(Connection* conn, int status,
                          std::string_view message);
  void UpdateEpoll(Connection* conn);
  void CloseConnection(Connection* conn);
  void CountResponse(int status);
  /// Folds a finished trace into the per-stage histograms and counter
  /// totals (any thread).
  void FoldTrace(const TraceRecorder& recorder);
  /// Captures a finished trace into the slow ring and trace log (any
  /// thread).
  void CaptureTrace(const TraceRecorder& recorder, std::string_view target,
                    uint64_t duration_micros);
  /// Emits one access-log JSONL line (loop thread; no-op without a sink).
  void LogAccess(const Connection& conn, int status, size_t body_bytes);

  FrontendOptions options_;
  std::vector<AdmissionClass> classes_;
  std::function<std::string()> metrics_body_;
  std::vector<FrontendRoute> routes_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  /// Sacrificial fd closed to accept-then-shed under EMFILE/ENFILE (the
  /// level-triggered listener would otherwise busy-spin the loop).
  int reserve_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<bool> stop_{false};
  bool draining_ = false;

  /// Live connections by fd; ids disambiguate completions across fd reuse.
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 1;

  /// Loop-thread view of admission state.
  uint32_t inflight_ = 0;
  std::vector<uint32_t> class_inflight_;

  /// Worker -> loop handoff.
  std::mutex completions_mutex_;
  std::deque<Completion> completions_;

  /// Counters (relaxed atomics: read by stats() from other threads).
  std::atomic<uint64_t> stat_requests_{0};
  std::atomic<uint64_t> stat_healthz_{0};
  std::atomic<uint64_t> stat_debug_profile_{0};
  std::atomic<uint64_t> stat_debug_timeseries_{0};
  std::atomic<uint64_t> stat_traced_requests_{0};
  std::atomic<uint64_t> stat_responses_2xx_{0};
  std::atomic<uint64_t> stat_responses_4xx_{0};
  std::atomic<uint64_t> stat_responses_5xx_{0};
  std::atomic<uint64_t> stat_misdirected_{0};
  std::atomic<uint64_t> stat_rejected_inflight_{0};
  std::atomic<uint64_t> stat_rejected_class_{0};
  std::atomic<uint64_t> stat_connections_accepted_{0};
  std::atomic<uint64_t> stat_connections_open_{0};
  std::atomic<uint64_t> stat_inflight_{0};

  /// Dispatch-to-completion latency per admission class.
  std::unique_ptr<LatencyHistogram[]> class_latency_;
  /// Per-stage latency and stage-counter totals, folded from traced
  /// requests only.
  LatencyHistogram stage_latency_[kNumTraceStages];
  std::atomic<uint64_t> stage_counters_[kNumTraceCounters] = {};
  /// Dispatch-to-start queue-wait latency (workers record).
  LatencyHistogram dispatch_latency_;

  SlowQueryLog slow_log_;
  /// Optional JSONL sinks; opened in Bind().
  std::unique_ptr<JsonlLogSink> trace_sink_;
  std::unique_ptr<JsonlLogSink> access_sink_;
  /// xorshift state for trace_sample coin flips (loop thread only).
  uint64_t sample_state_ = 0;

  /// Self-diagnosis (obs/), all stopped by StopDiagnostics() *before*
  /// pool_ is destroyed — the watchdog and sampler read
  /// pool_.queue_depth().
  Watchdog watchdog_;
  std::unique_ptr<MetricsHistory> metrics_history_;
  std::unique_ptr<MetricsSampler> metrics_sampler_;
  std::unique_ptr<ProfileLogger> profile_logger_;
  /// Serializes /v1/debug/profile sessions (second request gets 409).
  std::atomic<bool> profile_busy_{false};
  std::mutex profile_thread_mutex_;
  std::thread profile_thread_;

  /// Declared last so its destructor joins workers before the members
  /// above go away — work may still be appending to the sinks.
  ThreadPool pool_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_SERVER_FRONTEND_H_
