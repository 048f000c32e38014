// Scatter-gather query router for a sharded SimRank cluster.
//
// The router owns the shard plan and is the only process clients talk to.
// It speaks the same public /v1/* dialect as a single-node simrank_server
// and answers bitwise-identically to one — the merge is exact, not
// approximate:
//
//   - pair(a, b) with both endpoints on one shard is forwarded verbatim;
//     a cross-shard pair fetches a's walk row from its owner
//     (/internal/walks) and has b's owner score it (/internal/pair), the
//     double crossing the wire in native binary.
//   - single_source(v) fetches v's row once, fans it to every shard
//     (/internal/partial), and concatenates the returned nonzeros in
//     shard order — the shard slices are disjoint and reproduce the
//     single-node row exactly — then writes the dense JSON array from
//     them (JsonWriter::SparseDoubleArray).
//   - topk(v, k) fans the row the same way (/internal/topk), then merges
//     the per-shard top-k candidate lists under ScoredVertexBefore — the
//     identical (score desc, vertex asc) total order the single-node
//     engine sorts with, so cross-shard ties break the same way.
//   - batch_pair routes each pair as above and re-emits the scores; the
//     shortest-round-trip double text a shard emitted parses back
//     bit-exact, so even the forwarded path re-serializes identically.
//   - update is broadcast to every primary in shard order; each shard
//     appends the batch to its own WAL before answering, so an acked
//     update is durable on all shards. Divergent per-shard results
//     (sequence, fingerprint) fail the request loudly.
//
// Both score exchanges answer packed {u32 vertex, f64 score} records
// (kScoreRecordBytes each, native byte order). Shard output is outside
// input: a frame that is truncated, leaves the shard's range, or breaks
// its op's shape (a partial ascending with finite scores > 0; a top-k of
// at most k distinct ids) fails the request with 500 naming the shard and
// the byte offset — never the router.
//
// Consistency across the fan-out is pinned by overlay sequence: the row
// fetch reports the owner's sequence, every fanned request carries it,
// and a shard whose sequence has moved answers 409 — the router re-fetches
// and retries, then degrades to 503 + Retry-After. A plan-epoch mismatch
// in any shard response is a deployment error and fails loudly with 500.
//
// Reads fail over: when a shard's primary is unreachable (connect error or
// timeout), the router retries the same read against the shard's replica,
// counting the failover in /v1/stats and /metrics. Writes never fail over
// (replicas reject them with 403; they catch up by tailing the primary's
// WAL stream).
//
// The router is a route table on the same epoll HttpFrontend as the
// server (server/frontend.h): one loop thread owns every client socket,
// and the query routes run on a fixed worker pool under admission
// control, so no client connection or request costs a thread. A fan-out
// writes its request on every shard's pooled keep-alive connection before
// reading any reply, so the shards compute concurrently. Linux-only, like
// the frontend.
#ifndef OIPSIM_SIMRANK_CLUSTER_ROUTER_H_
#define OIPSIM_SIMRANK_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "simrank/cluster/shard_plan.h"
#include "simrank/common/macros.h"
#include "simrank/common/status.h"
#include "simrank/extra/topk.h"
#include "simrank/server/frontend.h"
#include "simrank/server/http.h"
#include "simrank/server/http_client.h"

namespace simrank {

/// Where one shard of the plan is served: a primary and an optional
/// replica (0 = none), both on loopback.
struct RouterShard {
  uint32_t shard_id = 0;
  uint16_t primary_port = 0;
  uint16_t replica_port = 0;
};

struct RouterOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port (see SimRankRouter::port()).
  uint16_t port = 0;
  /// The plan this router serves; every response's X-Plan-Epoch is checked
  /// against plan.epoch.
  ShardPlan plan;
  /// One entry per plan shard, in shard-id order.
  std::vector<RouterShard> shards;
  /// Per-operation socket timeout on shard connections; bounds the damage
  /// of a dead shard to one timeout per attempt.
  uint32_t timeout_ms = 2000;
  /// Extra attempts after an overlay-sequence conflict (409) before the
  /// router degrades to 503.
  uint32_t retries = 1;
  /// Retry-After value on 503 responses.
  uint32_t retry_after_seconds = 1;
  uint32_t max_batch_pairs = 4096;
  HttpLimits http;

  /// Fleet scraping: every interval the router GETs each shard's (and
  /// replica's) /metrics with its own short timeout, feeding
  /// /v1/cluster/health and the fleet-aggregated section of the router's
  /// /metrics. 0 disables the scrape thread.
  uint32_t scrape_interval_ms = 1000;
  uint32_t scrape_timeout_ms = 500;

  /// In-process history of the router's own (aggregated) metrics, served
  /// at /v1/debug/timeseries. 0 disables it.
  uint32_t metrics_history_window_s = 900;
  uint32_t metrics_history_interval_ms = 1000;

  /// Continuous background profiling (JSONL flight recorder), same
  /// semantics as the server's --profile-log.
  std::string profile_log_path;
  uint32_t profile_log_hz = 19;
  uint32_t profile_log_period_s = 60;

  Status Validate() const;
};

/// Router-side counters, readable concurrently with serving.
struct RouterStats {
  uint64_t requests_total = 0;
  uint64_t requests_pair = 0;
  uint64_t requests_single_source = 0;
  uint64_t requests_topk = 0;
  uint64_t requests_batch_pair = 0;
  uint64_t requests_update = 0;
  uint64_t requests_stats = 0;
  uint64_t requests_healthz = 0;
  uint64_t requests_metrics = 0;
  uint64_t responses_2xx = 0;
  uint64_t responses_4xx = 0;
  uint64_t responses_5xx = 0;
  /// Reads answered by a replica after the primary failed.
  uint64_t failovers = 0;
  /// Fan-out rounds re-run after a 409 overlay-sequence conflict.
  uint64_t conflicts_retried = 0;
  /// Transport errors talking to shards (before any failover).
  uint64_t shard_errors = 0;
  /// Requests served with a live trace recorder (?trace=1 or an
  /// X-Simrank-Trace header).
  uint64_t traced_requests = 0;
  uint64_t requests_cluster_health = 0;
  uint64_t requests_debug_profile = 0;
  uint64_t requests_debug_timeseries = 0;
  /// Fleet scrape rounds completed / individual target scrapes that
  /// failed (connect error, timeout, non-200).
  uint64_t scrape_rounds = 0;
  uint64_t scrape_failures = 0;
};

/// Merges per-shard top-k candidate lists into the global top-k under
/// ScoredVertexBefore — the exact comparator (score desc, vertex asc)
/// TopKFromRow sorts with, so the merged ranking equals the single-node
/// ranking whenever each part contains its range's top-min(k, range) and
/// the parts' vertex sets are disjoint.
std::vector<ScoredVertex> MergeTopK(
    const std::vector<std::vector<ScoredVertex>>& parts, uint32_t k);

/// The router process: a route table on the epoll HttpFrontend over a
/// keep-alive client pool to the shards. Bind() then Start(); Shutdown()
/// stops accepting, drains in-flight requests, joins the loop and the
/// fleet scraper.
class SimRankRouter {
 public:
  explicit SimRankRouter(RouterOptions options);
  ~SimRankRouter();

  OIPSIM_DISALLOW_COPY_AND_ASSIGN(SimRankRouter);

  /// Validates options and binds + listens on bind_address:port.
  Status Bind();

  /// Runs the event loop on its own thread and starts the fleet scraper.
  /// Requires a successful Bind().
  Status Start();

  /// Async-signal-safe stop request (an atomic store and an eventfd
  /// write). Follow with Shutdown() from ordinary thread context to join.
  void RequestStop();

  /// Stops accepting, drains, joins all threads. Idempotent.
  void Shutdown();

  /// The bound port (resolves port 0 after Bind()).
  uint16_t port() const { return frontend_.port(); }

  const RouterOptions& options() const { return options_; }

  RouterStats stats() const;

 private:
  /// One shard reply with its parsed version headers.
  struct ShardReply {
    int status = 0;
    std::string body;
    uint64_t sequence = 0;
    uint64_t fingerprint = 0;
    uint64_t epoch = 0;
    bool have_versions = false;
  };

  /// A keep-alive connection pool per target port.
  class ClientPool;
  /// One request written to a shard whose reply is not read yet.
  struct Exchange;

  /// Writes one request to `port` on a pooled keep-alive connection
  /// without waiting for the reply. When a trace recorder is bound to the
  /// calling thread the request carries X-Simrank-Trace.
  Exchange Send(uint16_t port, bool post, const std::string& target,
                std::string_view body);

  /// Reads the reply of `exchange` and returns its connection to the pool
  /// (a connection that saw a transport error is dropped instead). The
  /// shard's X-Simrank-Trace-Json comes back as a child of the bound
  /// recorder.
  Result<ShardReply> Receive(Exchange& exchange);

  /// One request against a fixed port through the pool: Send, then
  /// Receive.
  Result<ShardReply> SendToPort(uint16_t port, bool post,
                                const std::string& target,
                                std::string_view body);

  /// A read against shard `shard_id`: primary first, replica on transport
  /// failure (counted as a failover).
  Result<ShardReply> ReadFromShard(uint32_t shard_id, bool post,
                                   const std::string& target,
                                   std::string_view body);

  /// Fetches v's walk row from its owner (with failover): 200 body is the
  /// binary row, and the reply's sequence pins the fan-out.
  Result<ShardReply> FetchRow(VertexId v);

  /// Scores one pair, cross-shard if needed. Returns the score through
  /// `*score`; fills `*error` otherwise.
  bool ScorePair(VertexId a, VertexId b, double* score,
                 FrontendResponse* error);

  /// Decodes shard `shard`'s 200 body into the caller's per-shard slot;
  /// returns an error message for a malformed body, "" when it decoded.
  using ReplyDecoder =
      std::function<std::string(size_t shard, std::string& body)>;

  /// The scatter-gather of single_source and top-k: fetches v's row, sends
  /// it to every shard at `target` + "&seq=<row sequence>", validates each
  /// reply (status, plan epoch, agreeing fingerprints) and decodes it.
  /// Re-runs from the row fetch on a 409 sequence conflict, up to
  /// options.retries times. Fills `*error` and returns false on failure.
  bool FanOut(VertexId v, const std::string& target,
              const ReplyDecoder& decode, FrontendResponse* error);

  FrontendResponse Unavailable(const std::string& message) const;

  FrontendResponse HandlePair(const HttpRequest& request);
  FrontendResponse HandleSingleSource(const HttpRequest& request);
  FrontendResponse HandleTopK(const HttpRequest& request);
  FrontendResponse HandleBatchPair(const HttpRequest& request);
  FrontendResponse HandleUpdate(const HttpRequest& request);
  std::string BuildStats() const;
  std::string BuildMetrics() const;
  std::string BuildClusterHealth() const;

  /// The latest scrape of one fleet target (a shard primary or replica).
  struct TargetState {
    uint32_t shard_id = 0;
    bool replica = false;
    uint16_t port = 0;
    /// False until the first successful scrape, and again from the first
    /// failed one — a killed shard shows unhealthy within one interval.
    bool healthy = false;
    uint64_t last_attempt_unix_s = 0;
    uint64_t last_success_unix_s = 0;
    uint64_t consecutive_failures = 0;
    std::string error;  // last failure, "" while healthy
    /// Gauges lifted from the scraped exposition for the health summary.
    double overlay_sequence = 0;
    double wal_records = 0;
    double loop_lag_seconds = 0;
    double uptime_seconds = 0;
    double resident_bytes = 0;
    /// The raw scraped text, re-emitted (with shard/role labels injected)
    /// in the fleet-aggregated section of the router's /metrics.
    std::string metrics_text;
  };

  void ScrapeLoop();
  void ScrapeOnce();
  /// Copies the current per-target states (scrape-thread writes them
  /// under targets_mutex_).
  std::vector<TargetState> SnapshotTargets() const;

  RouterOptions options_;
  std::vector<std::unique_ptr<ClientPool>> pools_;  // indexed by port lookup
  std::mutex pools_mutex_;

  std::atomic<uint64_t> stat_requests_pair_{0};
  std::atomic<uint64_t> stat_requests_single_source_{0};
  std::atomic<uint64_t> stat_requests_topk_{0};
  std::atomic<uint64_t> stat_requests_batch_pair_{0};
  std::atomic<uint64_t> stat_requests_update_{0};
  std::atomic<uint64_t> stat_requests_stats_{0};
  std::atomic<uint64_t> stat_requests_metrics_{0};
  std::atomic<uint64_t> stat_requests_cluster_health_{0};
  std::atomic<uint64_t> stat_failovers_{0};
  std::atomic<uint64_t> stat_conflicts_retried_{0};
  std::atomic<uint64_t> stat_shard_errors_{0};
  std::atomic<uint64_t> stat_scrape_rounds_{0};
  std::atomic<uint64_t> stat_scrape_failures_{0};

  mutable std::mutex targets_mutex_;
  std::vector<TargetState> targets_;
  std::atomic<bool> scrape_stop_{true};
  std::thread scrape_thread_;

  /// Declared after everything its handlers and metrics sampler touch:
  /// its destructor joins the workers and diagnostics threads.
  HttpFrontend frontend_;
  /// Runs frontend_.Serve(); joined by Shutdown().
  std::thread serve_thread_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_CLUSTER_ROUTER_H_
