#include "simrank/cluster/router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "simrank/common/build_info.h"
#include "simrank/common/json_writer.h"
#include "simrank/common/memory_tracker.h"
#include "simrank/common/simd.h"
#include "simrank/common/string_util.h"
#include "simrank/graph/graph_io.h"
#include "simrank/index/segment_reader.h"
#include "simrank/server/server.h"

namespace simrank {
namespace {

// Router handlers block on shard I/O: a fan-out holds its worker from the
// row fetch until the slowest shard answers. The worker count therefore
// bounds concurrent shard exchanges (and pooled shard connections), not
// CPU use, which is why it is fixed well above a core count instead of
// following the hardware.
constexpr uint32_t kRouterWorkers = 16;
// Admission caps: beyond them a request is refused with 429/503 +
// Retry-After instead of queueing behind shard I/O without bound.
constexpr uint32_t kRouterMaxInflight = 64;
constexpr uint32_t kRouterMaxEndpointInflight = 32;

FrontendOptions RouterFrontendOptions(const RouterOptions& options) {
  FrontendOptions frontend;
  frontend.bind_address = options.bind_address;
  frontend.port = options.port;
  frontend.threads = kRouterWorkers;
  frontend.max_inflight = kRouterMaxInflight;
  frontend.max_class_inflight = kRouterMaxEndpointInflight;
  frontend.retry_after_seconds = options.retry_after_seconds;
  frontend.http = options.http;
  frontend.profile_log_path = options.profile_log_path;
  frontend.profile_log_hz = options.profile_log_hz;
  frontend.profile_log_period_s = options.profile_log_period_s;
  frontend.metrics_history_window_s = options.metrics_history_window_s;
  frontend.metrics_history_interval_ms = options.metrics_history_interval_ms;
  frontend.loop_name = "router-loop";
  return frontend;
}

uint64_t UnixSeconds() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

bool ParseVertexParam(const HttpRequest& request, std::string_view name,
                      uint32_t n, VertexId* out, std::string* error) {
  const std::string* value = request.FindParam(name);
  uint64_t parsed = 0;
  if (value == nullptr || !ParseUint64(*value, &parsed)) {
    *error = StrFormat("missing or malformed ?%.*s= parameter",
                       static_cast<int>(name.size()), name.data());
    return false;
  }
  if (parsed >= n) {
    *error = StrFormat("vertex %llu out of range (plan covers %u vertices)",
                       static_cast<unsigned long long>(parsed), n);
    return false;
  }
  *out = static_cast<VertexId>(parsed);
  return true;
}

/// Prefixes a Prometheus label block with shard/role labels, e.g.
/// `{endpoint="pair"}` + shard 1 primary ->
/// `{shard="1",role="primary",endpoint="pair"}`.
std::string InjectShardLabels(const std::string& labels, uint32_t shard_id,
                              const char* role) {
  const std::string injected =
      StrFormat("shard=\"%u\",role=\"%s\"", shard_id, role);
  if (labels.empty()) return "{" + injected + "}";
  return "{" + injected + "," + labels.substr(1);
}

/// Decodes a shard's /internal/partial or /internal/topk reply — packed
/// {u32 vertex, f64 score} records — into `out`, checking what holds for
/// both frames: whole records only, every vertex inside the shard's
/// range. Shard output is outside input to the router, so a malformed
/// frame fails the request rather than the process. Returns "" or a
/// message naming the shard and the byte offset of the offending record.
std::string DecodeScoreRecords(size_t shard, const char* op,
                               const std::string& body,
                               const ShardRange& range,
                               std::vector<ScoredVertex>* out) {
  if (body.size() % kScoreRecordBytes != 0) {
    return StrFormat("shard %zu /internal/%s reply is truncated: %zu bytes "
                     "leave a partial record at byte %zu",
                     shard, op, body.size(),
                     body.size() - body.size() % kScoreRecordBytes);
  }
  out->resize(body.size() / kScoreRecordBytes);
  for (size_t r = 0; r < out->size(); ++r) {
    const char* record = body.data() + r * kScoreRecordBytes;
    ScoredVertex& scored = (*out)[r];
    std::memcpy(&scored.vertex, record, sizeof(uint32_t));
    std::memcpy(&scored.score, record + sizeof(uint32_t), sizeof(double));
    if (!range.Contains(scored.vertex)) {
      return StrFormat("shard %zu /internal/%s reply: vertex %u at byte %zu "
                       "is outside the shard's range [%u, %u)",
                       shard, op, scored.vertex, r * kScoreRecordBytes,
                       range.begin, range.end);
    }
  }
  return {};
}

}  // namespace

Status RouterOptions::Validate() const {
  if (bind_address.empty()) {
    return Status::InvalidArgument("router bind address must not be empty");
  }
  OIPSIM_RETURN_IF_ERROR(plan.Validate());
  if (shards.size() != plan.shards.size()) {
    return Status::InvalidArgument(
        StrFormat("plan has %zu shards but %zu shard endpoints were given",
                  plan.shards.size(), shards.size()));
  }
  for (size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].shard_id != i) {
      return Status::InvalidArgument(
          StrFormat("shard endpoints must be declared in id order; "
                    "position %zu declares shard %u",
                    i, shards[i].shard_id));
    }
    if (shards[i].primary_port == 0) {
      return Status::InvalidArgument(
          StrFormat("shard %zu has no primary port", i));
    }
  }
  if (timeout_ms == 0) {
    return Status::InvalidArgument("--timeout-ms must be positive");
  }
  if (scrape_interval_ms > 0 && scrape_timeout_ms == 0) {
    return Status::InvalidArgument(
        "--scrape-timeout-ms must be positive when fleet scraping is on");
  }
  if (metrics_history_window_s > 0 && metrics_history_interval_ms == 0) {
    return Status::InvalidArgument(
        "--metrics-history-interval-ms must be positive");
  }
  if (!profile_log_path.empty()) {
    if (profile_log_hz == 0 || profile_log_hz > CpuProfiler::kMaxHz) {
      return Status::InvalidArgument(
          StrFormat("--profile-log-hz=%u is not in [1, %u]", profile_log_hz,
                    CpuProfiler::kMaxHz));
    }
    if (profile_log_period_s == 0) {
      return Status::InvalidArgument(
          "--profile-log-period must be positive");
    }
  }
  return Status::OK();
}

std::vector<ScoredVertex> MergeTopK(
    const std::vector<std::vector<ScoredVertex>>& parts, uint32_t k) {
  std::vector<ScoredVertex> merged;
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  merged.reserve(total);
  for (const auto& part : parts) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(), ScoredVertexBefore);
  if (merged.size() > k) merged.resize(k);
  return merged;
}

/// A mutex-guarded stack of keep-alive connections to one port. Acquire
/// pops an idle connection or dials a new one; Release returns it after a
/// clean exchange. Connections that saw a transport error are simply not
/// returned — the next Acquire dials fresh.
class SimRankRouter::ClientPool {
 public:
  ClientPool(uint16_t port, uint32_t timeout_ms)
      : port_(port), timeout_ms_(timeout_ms) {}

  uint16_t port() const { return port_; }

  Result<LoopbackHttpClient> Acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        LoopbackHttpClient client = std::move(idle_.back());
        idle_.pop_back();
        return client;
      }
    }
    return LoopbackHttpClient::Connect(port_, timeout_ms_);
  }

  void Release(LoopbackHttpClient client) {
    std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(client));
  }

 private:
  const uint16_t port_;
  const uint32_t timeout_ms_;
  std::mutex mutex_;
  std::vector<LoopbackHttpClient> idle_;
};

struct SimRankRouter::Exchange {
  ClientPool* pool = nullptr;
  /// The connection the request went out on, or why it could not be sent.
  Result<LoopbackHttpClient> client = Status::IoError("not sent");
};

SimRankRouter::SimRankRouter(RouterOptions options)
    : options_(std::move(options)),
      frontend_(RouterFrontendOptions(options_), ServerEndpointClasses(),
                [this] { return BuildMetrics(); }) {
  // The query routes count themselves on the loop thread and run on a
  // worker (the handler blocks on shard I/O).
  auto routed = [this](ServerEndpoint endpoint,
                       std::atomic<uint64_t>* counter,
                       FrontendResponse (SimRankRouter::*handle)(
                           const HttpRequest&)) {
    FrontendRoute route;
    route.path = ServerEndpointPath(endpoint);
    route.method = ServerEndpointMethod(endpoint);
    route.admission_class = static_cast<uint32_t>(endpoint);
    route.prepare = [this, counter, handle](const HttpRequest& request,
                                            FrontendResponse*) {
      counter->fetch_add(1, std::memory_order_relaxed);
      return FrontendWork(
          [this, handle, request] { return (this->*handle)(request); });
    };
    frontend_.AddRoute(std::move(route));
  };
  routed(ServerEndpoint::kPair, &stat_requests_pair_,
         &SimRankRouter::HandlePair);
  routed(ServerEndpoint::kSingleSource, &stat_requests_single_source_,
         &SimRankRouter::HandleSingleSource);
  routed(ServerEndpoint::kTopK, &stat_requests_topk_,
         &SimRankRouter::HandleTopK);
  routed(ServerEndpoint::kBatchPair, &stat_requests_batch_pair_,
         &SimRankRouter::HandleBatchPair);
  routed(ServerEndpoint::kUpdate, &stat_requests_update_,
         &SimRankRouter::HandleUpdate);

  auto answered = [this](std::string path, std::atomic<uint64_t>* counter,
                         std::string (SimRankRouter::*build)() const,
                         const char* content_type) {
    FrontendRoute route;
    route.path = std::move(path);
    route.answer = [this, counter, build,
                    content_type](const HttpRequest&) {
      counter->fetch_add(1, std::memory_order_relaxed);
      return FrontendResponse{200, (this->*build)(), content_type};
    };
    frontend_.AddRoute(std::move(route));
  };
  answered("/v1/stats", &stat_requests_stats_, &SimRankRouter::BuildStats,
           "application/json");
  answered("/metrics", &stat_requests_metrics_, &SimRankRouter::BuildMetrics,
           "text/plain; version=0.0.4");
  answered("/v1/cluster/health", &stat_requests_cluster_health_,
           &SimRankRouter::BuildClusterHealth, "application/json");
}

SimRankRouter::~SimRankRouter() { Shutdown(); }

RouterStats SimRankRouter::stats() const {
  const FrontendStats frontend = frontend_.stats();
  RouterStats stats;
  stats.requests_total = frontend.requests;
  stats.requests_pair = stat_requests_pair_.load(std::memory_order_relaxed);
  stats.requests_single_source =
      stat_requests_single_source_.load(std::memory_order_relaxed);
  stats.requests_topk = stat_requests_topk_.load(std::memory_order_relaxed);
  stats.requests_batch_pair =
      stat_requests_batch_pair_.load(std::memory_order_relaxed);
  stats.requests_update =
      stat_requests_update_.load(std::memory_order_relaxed);
  stats.requests_stats = stat_requests_stats_.load(std::memory_order_relaxed);
  stats.requests_healthz = frontend.healthz;
  stats.requests_metrics =
      stat_requests_metrics_.load(std::memory_order_relaxed);
  stats.responses_2xx = frontend.responses_2xx;
  stats.responses_4xx = frontend.responses_4xx;
  stats.responses_5xx = frontend.responses_5xx;
  stats.failovers = stat_failovers_.load(std::memory_order_relaxed);
  stats.conflicts_retried =
      stat_conflicts_retried_.load(std::memory_order_relaxed);
  stats.shard_errors = stat_shard_errors_.load(std::memory_order_relaxed);
  stats.traced_requests = frontend.traced_requests;
  stats.requests_cluster_health =
      stat_requests_cluster_health_.load(std::memory_order_relaxed);
  stats.requests_debug_profile = frontend.debug_profile;
  stats.requests_debug_timeseries = frontend.debug_timeseries;
  stats.scrape_rounds = stat_scrape_rounds_.load(std::memory_order_relaxed);
  stats.scrape_failures =
      stat_scrape_failures_.load(std::memory_order_relaxed);
  return stats;
}

Status SimRankRouter::Bind() {
  OIPSIM_RETURN_IF_ERROR(options_.Validate());
  {
    std::lock_guard<std::mutex> lock(pools_mutex_);
    pools_.clear();
    for (const RouterShard& shard : options_.shards) {
      pools_.push_back(std::make_unique<ClientPool>(shard.primary_port,
                                                    options_.timeout_ms));
      if (shard.replica_port != 0) {
        pools_.push_back(std::make_unique<ClientPool>(shard.replica_port,
                                                      options_.timeout_ms));
      }
    }
  }
  {
    // One scrape target per fleet process; the vector never resizes after
    // Bind, so the scrape thread updates entries in place.
    std::lock_guard<std::mutex> lock(targets_mutex_);
    targets_.clear();
    for (const RouterShard& shard : options_.shards) {
      TargetState primary;
      primary.shard_id = shard.shard_id;
      primary.port = shard.primary_port;
      targets_.push_back(std::move(primary));
      if (shard.replica_port != 0) {
        TargetState replica;
        replica.shard_id = shard.shard_id;
        replica.replica = true;
        replica.port = shard.replica_port;
        targets_.push_back(std::move(replica));
      }
    }
  }
  return frontend_.Bind();
}

Status SimRankRouter::Start() {
  if (frontend_.port() == 0) {
    return Status::InvalidArgument("Start() requires a successful Bind()");
  }
  if (serve_thread_.joinable()) {
    return Status::InvalidArgument("Start() called twice");
  }
  serve_thread_ = std::thread([this] {
    const Status served = frontend_.Serve();
    if (!served.ok()) {
      std::fprintf(stderr, "simrank_router: event loop failed: %s\n",
                   served.ToString().c_str());
    }
  });
  if (options_.scrape_interval_ms > 0) {
    scrape_stop_.store(false, std::memory_order_release);
    scrape_thread_ = std::thread([this] { ScrapeLoop(); });
  }
  return Status::OK();
}

void SimRankRouter::RequestStop() { frontend_.Shutdown(); }

void SimRankRouter::Shutdown() {
  scrape_stop_.store(true, std::memory_order_release);
  if (scrape_thread_.joinable()) scrape_thread_.join();
  frontend_.Shutdown();
  if (serve_thread_.joinable()) serve_thread_.join();
}

SimRankRouter::Exchange SimRankRouter::Send(uint16_t port, bool post,
                                            const std::string& target,
                                            std::string_view body) {
  Exchange exchange;
  {
    std::lock_guard<std::mutex> lock(pools_mutex_);
    for (const auto& candidate : pools_) {
      if (candidate->port() == port) {
        exchange.pool = candidate.get();
        break;
      }
    }
  }
  if (exchange.pool == nullptr) {
    exchange.client = Status::InvalidArgument(
        StrFormat("port %u is not a configured shard endpoint", port));
    return exchange;
  }
  std::vector<std::pair<std::string, std::string>> headers;
  if (const TraceRecorder* recorder = CurrentTraceRecorder()) {
    headers.emplace_back("X-Simrank-Trace",
                         TraceIdToHex(recorder->trace_id()));
  }
  exchange.client = exchange.pool->Acquire();
  if (exchange.client.ok()) {
    const Status sent = exchange.client->SendRaw(FormatHttpRequest(
        post, target, body, "application/octet-stream", headers));
    if (!sent.ok()) exchange.client = sent;
  }
  if (!exchange.client.ok()) {
    stat_shard_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return exchange;
}

Result<SimRankRouter::ShardReply> SimRankRouter::Receive(
    Exchange& exchange) {
  if (!exchange.client.ok()) return exchange.client.status();
  auto response = exchange.client->ReadResponse();
  if (!response.ok()) {
    stat_shard_errors_.fetch_add(1, std::memory_order_relaxed);
    return response.status();  // the dead connection dies with `exchange`
  }
  exchange.pool->Release(std::move(*exchange.client));
  ShardReply reply;
  reply.status = response->status;
  reply.body = std::move(response->body);
  const std::string* fingerprint =
      response->FindHeader("x-graph-fingerprint");
  const std::string* sequence = response->FindHeader("x-overlay-sequence");
  const std::string* epoch = response->FindHeader("x-plan-epoch");
  if (fingerprint != nullptr && sequence != nullptr && epoch != nullptr &&
      ParseFingerprint(*fingerprint, &reply.fingerprint) &&
      ParseUint64(*sequence, &reply.sequence) &&
      ParseUint64(*epoch, &reply.epoch)) {
    reply.have_versions = true;
  }
  if (TraceRecorder* recorder = CurrentTraceRecorder()) {
    recorder->Add(TraceCounter::kShardsContacted, 1);
    if (const std::string* child =
            response->FindHeader("x-simrank-trace-json")) {
      recorder->AddChildTrace(*child);
    }
  }
  return reply;
}

Result<SimRankRouter::ShardReply> SimRankRouter::SendToPort(
    uint16_t port, bool post, const std::string& target,
    std::string_view body) {
  Exchange exchange = Send(port, post, target, body);
  return Receive(exchange);
}

Result<SimRankRouter::ShardReply> SimRankRouter::ReadFromShard(
    uint32_t shard_id, bool post, const std::string& target,
    std::string_view body) {
  const RouterShard& shard = options_.shards[shard_id];
  auto reply = SendToPort(shard.primary_port, post, target, body);
  if (reply.ok() || shard.replica_port == 0) return reply;
  stat_failovers_.fetch_add(1, std::memory_order_relaxed);
  return SendToPort(shard.replica_port, post, target, body);
}

Result<SimRankRouter::ShardReply> SimRankRouter::FetchRow(VertexId v) {
  const uint32_t owner = options_.plan.OwnerOf(v);
  TraceScope scope(TraceStage::kRowFetch, StrFormat("shard=%u", owner));
  return ReadFromShard(owner, /*post=*/false,
                       StrFormat("/internal/walks?v=%u", v),
                       std::string_view());
}

FrontendResponse SimRankRouter::Unavailable(const std::string& message) const {
  FrontendResponse response = ErrorResponse(503, "Unavailable", message);
  response.headers.emplace_back(
      "Retry-After", StrFormat("%u", options_.retry_after_seconds));
  return response;
}

bool SimRankRouter::ScorePair(VertexId a, VertexId b, double* score,
                              FrontendResponse* error) {
  const uint32_t owner_a = options_.plan.OwnerOf(a);
  const uint32_t owner_b = options_.plan.OwnerOf(b);
  if (owner_a == owner_b) {
    TraceScope exchange(TraceStage::kShardExchange,
                        StrFormat("shard=%u", owner_a));
    auto reply = ReadFromShard(owner_a, /*post=*/false,
                               StrFormat("/v1/pair?a=%u&b=%u", a, b),
                               std::string_view());
    if (!reply.ok()) {
      *error = Unavailable(StrFormat("shard %u unreachable: %s", owner_a,
                                     reply.status().message().c_str()));
      return false;
    }
    if (reply->status != 200) {
      error->status = reply->status;
      error->body = std::move(reply->body);
      return false;
    }
    // The shard emits shortest-round-trip doubles; this parse is
    // bit-exact, so re-serializing reproduces the shard's text.
    *score = FindJsonNumber(reply->body, "score");
    return true;
  }

  for (uint32_t attempt = 0; attempt <= options_.retries; ++attempt) {
    auto row = FetchRow(a);
    if (!row.ok()) {
      *error = Unavailable(StrFormat("shard %u unreachable: %s", owner_a,
                                     row.status().message().c_str()));
      return false;
    }
    if (row->status != 200) {
      error->status = row->status;
      error->body = std::move(row->body);
      return false;
    }
    if (!row->have_versions || row->epoch != options_.plan.epoch) {
      *error = ErrorResponse(
          500, "Internal",
          StrFormat("shard %u is serving plan epoch %llu, router has %llu",
                    owner_a, static_cast<unsigned long long>(row->epoch),
                    static_cast<unsigned long long>(options_.plan.epoch)));
      return false;
    }
    Result<ShardReply> reply = Status::IoError("not attempted");
    {
      TraceScope exchange(TraceStage::kShardExchange,
                          StrFormat("shard=%u", owner_b));
      reply = ReadFromShard(
          owner_b, /*post=*/true,
          StrFormat("/internal/pair?b=%u&seq=%llu", b,
                    static_cast<unsigned long long>(row->sequence)),
          row->body);
    }
    if (!reply.ok()) {
      *error = Unavailable(StrFormat("shard %u unreachable: %s", owner_b,
                                     reply.status().message().c_str()));
      return false;
    }
    if (reply->status == 409) {
      stat_conflicts_retried_.fetch_add(1, std::memory_order_relaxed);
      TraceAdd(TraceCounter::kConflictRetries, 1);
      continue;  // an update landed between row fetch and scoring
    }
    if (reply->status != 200) {
      error->status = reply->status;
      error->body = std::move(reply->body);
      return false;
    }
    if (reply->body.size() != sizeof(double)) {
      *error = ErrorResponse(
          500, "Internal",
          StrFormat("shard %u returned a %zu-byte pair score", owner_b,
                    reply->body.size()));
      return false;
    }
    std::memcpy(score, reply->body.data(), sizeof(double));
    return true;
  }
  *error = Unavailable(
      "overlay sequence kept moving during the cross-shard exchange; "
      "retry after the update burst settles");
  return false;
}

FrontendResponse SimRankRouter::HandlePair(
    const HttpRequest& request) {
  VertexId a = 0;
  VertexId b = 0;
  std::string error;
  if (!ParseVertexParam(request, "a", options_.plan.n, &a, &error) ||
      !ParseVertexParam(request, "b", options_.plan.n, &b, &error)) {
    return ErrorResponse(400, "InvalidArgument", error);
  }
  FrontendResponse response;
  double score = 0.0;
  if (!ScorePair(a, b, &score, &response)) return response;
  JsonWriter json;
  json.BeginObject()
      .Key("a")
      .Uint(a)
      .Key("b")
      .Uint(b)
      .Key("score")
      .Double(score)
      .EndObject();
  response.status = 200;
  response.body = std::move(json).Take();
  return response;
}

bool SimRankRouter::FanOut(VertexId v, const std::string& target,
                           const ReplyDecoder& decode,
                           FrontendResponse* error) {
  const size_t num_shards = options_.shards.size();
  for (uint32_t attempt = 0; attempt <= options_.retries; ++attempt) {
    auto row = FetchRow(v);
    if (!row.ok()) {
      *error = Unavailable(StrFormat("row owner unreachable: %s",
                                     row.status().message().c_str()));
      return false;
    }
    if (row->status != 200) {
      *error = FrontendResponse{row->status, std::move(row->body)};
      return false;
    }
    if (!row->have_versions || row->epoch != options_.plan.epoch) {
      *error = ErrorResponse(500, "Internal",
                             "row owner is serving a different plan epoch "
                             "than this router");
      return false;
    }
    const std::string pinned =
        StrFormat("%s&seq=%llu", target.c_str(),
                  static_cast<unsigned long long>(row->sequence));
    // Scatter, then gather: the request goes out on every shard's
    // connection before any reply is read, so the shards compute
    // concurrently on this one worker. Each shard_exchange span runs from
    // that shard's send to its reply (failover included).
    TraceRecorder* const recorder = CurrentTraceRecorder();
    std::vector<uint64_t> sent_ns(num_shards, 0);
    std::vector<Exchange> exchanges;
    exchanges.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      if (recorder != nullptr) sent_ns[i] = TraceNowNanos();
      exchanges.push_back(Send(options_.shards[i].primary_port,
                               /*post=*/true, pinned, row->body));
    }
    std::vector<Result<ShardReply>> replies;
    replies.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      Result<ShardReply> reply = Receive(exchanges[i]);
      if (!reply.ok() && options_.shards[i].replica_port != 0) {
        stat_failovers_.fetch_add(1, std::memory_order_relaxed);
        reply = SendToPort(options_.shards[i].replica_port, /*post=*/true,
                           pinned, row->body);
      }
      if (recorder != nullptr) {
        recorder->AddCompletedSpan(TraceStage::kShardExchange, sent_ns[i],
                                   TraceNowNanos() - sent_ns[i],
                                   StrFormat("shard=%zu", i));
      }
      replies.push_back(std::move(reply));
    }
    bool conflicted = false;
    uint64_t fingerprint = 0;
    for (size_t i = 0; i < num_shards; ++i) {
      if (!replies[i].ok()) {
        *error = Unavailable(StrFormat("shard %zu unreachable: %s", i,
                                       replies[i].status().message().c_str()));
        return false;
      }
      ShardReply& reply = *replies[i];
      if (reply.status == 409) {
        conflicted = true;
        break;
      }
      if (reply.status != 200) {
        *error = FrontendResponse{reply.status, std::move(reply.body)};
        return false;
      }
      if (!reply.have_versions || reply.epoch != options_.plan.epoch) {
        *error = ErrorResponse(
            500, "Internal",
            StrFormat("shard %zu is serving a different plan epoch than "
                      "this router",
                      i));
        return false;
      }
      if (i > 0 && reply.fingerprint != fingerprint) {
        *error = ErrorResponse(
            500, "Internal",
            "shards report different graph fingerprints at the same "
            "overlay sequence; the cluster has diverged");
        return false;
      }
      fingerprint = reply.fingerprint;
      const std::string malformed = decode(i, reply.body);
      if (!malformed.empty()) {
        *error = ErrorResponse(500, "Internal", malformed);
        return false;
      }
    }
    if (!conflicted) return true;
    stat_conflicts_retried_.fetch_add(1, std::memory_order_relaxed);
    TraceAdd(TraceCounter::kConflictRetries, 1);
  }
  *error = Unavailable(
      "overlay sequence kept moving during the fan-out; retry after the "
      "update burst settles");
  return false;
}

FrontendResponse SimRankRouter::HandleSingleSource(
    const HttpRequest& request) {
  VertexId v = 0;
  std::string error;
  if (!ParseVertexParam(request, "v", options_.plan.n, &v, &error)) {
    return ErrorResponse(400, "InvalidArgument", error);
  }
  // Each shard answers its range's nonzeros, ascending; the ranges
  // partition [0, n) in order, so the concatenated records are the
  // single-node row's nonzeros, bit for bit.
  std::vector<std::vector<ScoredVertex>> parts(options_.shards.size());
  FrontendResponse response;
  const bool ok = FanOut(
      v, StrFormat("/internal/partial?v=%u", v),
      [this, &parts](size_t shard, std::string& body) -> std::string {
        std::vector<ScoredVertex>& part = parts[shard];
        const std::string malformed = DecodeScoreRecords(
            shard, "partial", body, options_.plan.shards[shard], &part);
        if (!malformed.empty()) return malformed;
        for (size_t r = 0; r < part.size(); ++r) {
          if (r > 0 && part[r].vertex <= part[r - 1].vertex) {
            return StrFormat("shard %zu /internal/partial reply: vertex %u "
                             "at byte %zu is not above its predecessor %u",
                             shard, part[r].vertex, r * kScoreRecordBytes,
                             part[r - 1].vertex);
          }
          if (!std::isfinite(part[r].score) || !(part[r].score > 0.0)) {
            return StrFormat("shard %zu /internal/partial reply: score of "
                             "vertex %u at byte %zu is not finite and > 0",
                             shard, part[r].vertex, r * kScoreRecordBytes);
          }
        }
        return {};
      },
      &response);
  if (!ok) return response;
  TraceScope merge(TraceStage::kMerge);
  std::vector<uint32_t> ids;
  std::vector<double> scores;
  for (const std::vector<ScoredVertex>& part : parts) {
    for (const ScoredVertex& scored : part) {
      ids.push_back(scored.vertex);
      scores.push_back(scored.score);
    }
  }
  JsonWriter json;
  // 32: room for the {"v":…,"scores":…} envelope around the row.
  json.Reserve(32 + JsonSparseDoubleArrayBound(options_.plan.n, scores));
  json.BeginObject()
      .Key("v")
      .Uint(v)
      .Key("scores")
      .SparseDoubleArray(options_.plan.n, ids, scores)
      .EndObject();
  return {200, std::move(json).Take()};
}

FrontendResponse SimRankRouter::HandleTopK(const HttpRequest& request) {
  VertexId v = 0;
  std::string error;
  if (!ParseVertexParam(request, "v", options_.plan.n, &v, &error)) {
    return ErrorResponse(400, "InvalidArgument", error);
  }
  uint64_t k = 10;
  if (const std::string* value = request.FindParam("k");
      value != nullptr && (!ParseUint64(*value, &k) || k == 0)) {
    return ErrorResponse(400, "InvalidArgument",
                         "?k= must be a positive integer");
  }
  // Each shard answers its slice's top-k as packed {u32 vertex, f64
  // score} records in rank order.
  std::vector<std::vector<ScoredVertex>> parts(options_.shards.size());
  FrontendResponse response;
  const bool ok = FanOut(
      v,
      StrFormat("/internal/topk?v=%u&k=%llu", v,
                static_cast<unsigned long long>(k)),
      [this, &parts, k](size_t shard, std::string& body) -> std::string {
        std::vector<ScoredVertex>& part = parts[shard];
        if (body.size() / kScoreRecordBytes > k) {
          return StrFormat("shard %zu /internal/topk reply holds more than "
                           "k=%llu records: record at byte %llu is extra",
                           shard, static_cast<unsigned long long>(k),
                           static_cast<unsigned long long>(
                               k * kScoreRecordBytes));
        }
        const std::string malformed = DecodeScoreRecords(
            shard, "topk", body, options_.plan.shards[shard], &part);
        if (!malformed.empty()) return malformed;
        std::vector<std::pair<VertexId, size_t>> seen(part.size());
        for (size_t r = 0; r < part.size(); ++r) {
          seen[r] = {part[r].vertex, r};
        }
        std::sort(seen.begin(), seen.end());
        for (size_t i = 1; i < seen.size(); ++i) {
          if (seen[i].first == seen[i - 1].first) {
            return StrFormat("shard %zu /internal/topk reply: vertex %u at "
                             "byte %zu repeats an earlier record",
                             shard, seen[i].first,
                             seen[i].second * kScoreRecordBytes);
          }
        }
        return {};
      },
      &response);
  if (!ok) return response;
  TraceScope merge(TraceStage::kMerge);
  const std::vector<ScoredVertex> top =
      MergeTopK(parts, static_cast<uint32_t>(k));
  JsonWriter json;
  json.BeginObject()
      .Key("v")
      .Uint(v)
      .Key("k")
      .Uint(k)
      .Key("results")
      .BeginArray();
  for (const ScoredVertex& scored : top) {
    json.BeginObject()
        .Key("vertex")
        .Uint(scored.vertex)
        .Key("score")
        .Double(scored.score)
        .EndObject();
  }
  json.EndArray().EndObject();
  return {200, std::move(json).Take()};
}

FrontendResponse SimRankRouter::HandleBatchPair(
    const HttpRequest& request) {
  auto pairs = ParsePairBatch(request.body, options_.max_batch_pairs);
  if (!pairs.ok()) {
    return ErrorResponse(400, "InvalidArgument", pairs.status().message());
  }
  for (const auto& [a, b] : *pairs) {
    if (a >= options_.plan.n || b >= options_.plan.n) {
      return ErrorResponse(
          400, "OutOfRange",
          StrFormat("pair (%u, %u) exceeds the plan's %u vertices", a, b,
                    options_.plan.n));
    }
  }
  FrontendResponse response;
  std::vector<double> scores;
  scores.reserve(pairs->size());
  for (const auto& [a, b] : *pairs) {
    double score = 0.0;
    if (!ScorePair(a, b, &score, &response)) return response;
    scores.push_back(score);
  }
  JsonWriter json;
  json.BeginObject()
      .Key("count")
      .Uint(scores.size())
      .Key("scores")
      .BeginArray();
  for (const double score : scores) json.Double(score);
  json.EndArray().EndObject();
  response.status = 200;
  response.body = std::move(json).Take();
  return response;
}

FrontendResponse SimRankRouter::HandleUpdate(
    const HttpRequest& request) {
  FrontendResponse response;
  // Broadcast in shard order. Every shard appends the batch to its own WAL
  // before answering, so a 200 here means the update is durable everywhere.
  // A shard failing *after* an earlier one applied leaves the cluster
  // mid-batch — that is a loud 500, not a silent retry, because blind
  // re-submission would double-apply on the shards that already took it.
  struct ShardResult {
    double applied = 0;
    double sequence = 0;
    double patched_vertices = 0;
    double changed_slots = 0;
    double wal_records = 0;
    std::string fingerprint;
  };
  std::vector<ShardResult> results;
  for (size_t i = 0; i < options_.shards.size(); ++i) {
    auto reply = SendToPort(options_.shards[i].primary_port, /*post=*/true,
                            "/v1/update", request.body);
    if (!reply.ok()) {
      if (i == 0) {
        return Unavailable(
            StrFormat("shard 0 primary unreachable, nothing applied: %s",
                      reply.status().message().c_str()));
      }
      return ErrorResponse(
          500, "Internal",
          StrFormat("shard %zu primary unreachable after %zu shard(s) "
                    "already applied the batch; the cluster needs "
                    "reconciliation before further updates",
                    i, i));
    }
    if (reply->status != 200) {
      if (i == 0) {
        // Nothing has been applied anywhere; the first shard's verdict
        // (bad batch, overloaded, ...) is the client's answer.
        response.status = reply->status;
        response.body = std::move(reply->body);
        return response;
      }
      return ErrorResponse(
          500, "Internal",
          StrFormat("shard %zu rejected the batch (HTTP %d) after %zu "
                    "shard(s) already applied it; the cluster needs "
                    "reconciliation before further updates",
                    i, reply->status, i));
    }
    ShardResult result;
    result.applied = FindJsonNumber(reply->body, "applied");
    result.sequence = FindJsonNumber(reply->body, "sequence");
    result.patched_vertices =
        FindJsonNumber(reply->body, "patched_vertices");
    result.changed_slots = FindJsonNumber(reply->body, "changed_slots");
    result.wal_records = FindJsonNumber(reply->body, "wal_records");
    const std::string needle = "\"graph_fingerprint\":\"";
    const size_t at = reply->body.find(needle);
    if (at != std::string::npos) {
      result.fingerprint = reply->body.substr(at + needle.size(), 16);
    }
    results.push_back(std::move(result));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    if (results[i].applied != results[0].applied ||
        results[i].sequence != results[0].sequence ||
        results[i].wal_records != results[0].wal_records ||
        results[i].fingerprint != results[0].fingerprint) {
      return ErrorResponse(
          500, "Internal",
          StrFormat("shard %zu applied the batch but reports a different "
                    "sequence/fingerprint than shard 0; the cluster has "
                    "diverged",
                    i));
    }
  }
  // patched_vertices / changed_slots are per-shard work and sum across the
  // cluster; applied / sequence / fingerprint / wal_records must agree.
  double patched_vertices = 0;
  double changed_slots = 0;
  for (const ShardResult& result : results) {
    patched_vertices += result.patched_vertices;
    changed_slots += result.changed_slots;
  }
  JsonWriter json;
  json.BeginObject()
      .Key("applied")
      .Uint(static_cast<uint64_t>(results[0].applied))
      .Key("sequence")
      .Uint(static_cast<uint64_t>(results[0].sequence))
      .Key("patched_vertices")
      .Uint(static_cast<uint64_t>(patched_vertices))
      .Key("changed_slots")
      .Uint(static_cast<uint64_t>(changed_slots))
      .Key("graph_fingerprint")
      .String(results[0].fingerprint)
      .Key("wal_records")
      .Uint(static_cast<uint64_t>(results[0].wal_records))
      .EndObject();
  response.status = 200;
  response.body = std::move(json).Take();
  return response;
}

std::string SimRankRouter::BuildStats() const {
  const RouterStats stats = this->stats();
  JsonWriter json;
  json.BeginObject();
  json.Key("role").String("router");
  json.Key("plan_epoch").Uint(options_.plan.epoch);
  json.Key("plan_shards").Uint(options_.plan.shards.size());
  json.Key("n").Uint(options_.plan.n);
  json.Key("graph_fingerprint")
      .String(FormatFingerprint(options_.plan.graph_fingerprint));
  json.Key("uptime_seconds").Double(UptimeSeconds());
  const BuildInfo& build = GetBuildInfo();
  json.Key("build_info").BeginObject();
  json.Key("version").String(build.git_describe);
  json.Key("compiler").String(build.compiler);
  json.Key("build_type").String(build.build_type);
  json.Key("cxx_standard").String(build.cxx_standard);
  json.Key("simd").String(SimdLevelName(ActiveSimdLevel()));
  json.Key("io_uring_compiled").Bool(SegmentReader::BuildSupportsIoUring());
  json.Key("io_uring_enabled").Bool(SegmentReader::IoUringEnabled());
  json.EndObject();
  json.Key("requests").BeginObject();
  json.Key("total").Uint(stats.requests_total);
  json.Key("pair").Uint(stats.requests_pair);
  json.Key("single_source").Uint(stats.requests_single_source);
  json.Key("topk").Uint(stats.requests_topk);
  json.Key("batch_pair").Uint(stats.requests_batch_pair);
  json.Key("update").Uint(stats.requests_update);
  json.Key("stats").Uint(stats.requests_stats);
  json.Key("healthz").Uint(stats.requests_healthz);
  json.Key("metrics").Uint(stats.requests_metrics);
  json.Key("cluster_health").Uint(stats.requests_cluster_health);
  json.Key("debug_profile").Uint(stats.requests_debug_profile);
  json.Key("debug_timeseries").Uint(stats.requests_debug_timeseries);
  json.EndObject();
  json.Key("responses").BeginObject();
  json.Key("2xx").Uint(stats.responses_2xx);
  json.Key("4xx").Uint(stats.responses_4xx);
  json.Key("5xx").Uint(stats.responses_5xx);
  json.EndObject();
  json.Key("cluster").BeginObject();
  json.Key("failovers").Uint(stats.failovers);
  json.Key("conflicts_retried").Uint(stats.conflicts_retried);
  json.Key("shard_errors").Uint(stats.shard_errors);
  json.Key("scrape_rounds").Uint(stats.scrape_rounds);
  json.Key("scrape_failures").Uint(stats.scrape_failures);
  json.EndObject();
  json.Key("trace").BeginObject();
  json.Key("traced_requests").Uint(stats.traced_requests);
  json.EndObject();
  json.EndObject();
  return std::move(json).Take();
}

std::string SimRankRouter::BuildMetrics() const {
  const RouterStats stats = this->stats();
  std::string out;
  auto type = [&out](const char* name, const char* kind) {
    out += StrFormat("# TYPE %s %s\n", name, kind);
  };
  auto counter = [&out](const char* name, const char* labels,
                        uint64_t value) {
    out += StrFormat("%s%s %llu\n", name, labels,
                     static_cast<unsigned long long>(value));
  };
  type("simrank_router_requests_total", "counter");
  counter("simrank_router_requests_total", "{endpoint=\"pair\"}",
          stats.requests_pair);
  counter("simrank_router_requests_total", "{endpoint=\"single_source\"}",
          stats.requests_single_source);
  counter("simrank_router_requests_total", "{endpoint=\"topk\"}",
          stats.requests_topk);
  counter("simrank_router_requests_total", "{endpoint=\"batch_pair\"}",
          stats.requests_batch_pair);
  counter("simrank_router_requests_total", "{endpoint=\"update\"}",
          stats.requests_update);
  counter("simrank_router_requests_total", "{endpoint=\"stats\"}",
          stats.requests_stats);
  counter("simrank_router_requests_total", "{endpoint=\"healthz\"}",
          stats.requests_healthz);
  counter("simrank_router_requests_total", "{endpoint=\"metrics\"}",
          stats.requests_metrics);
  type("simrank_router_responses_total", "counter");
  counter("simrank_router_responses_total", "{class=\"2xx\"}",
          stats.responses_2xx);
  counter("simrank_router_responses_total", "{class=\"4xx\"}",
          stats.responses_4xx);
  counter("simrank_router_responses_total", "{class=\"5xx\"}",
          stats.responses_5xx);
  type("simrank_router_failovers_total", "counter");
  counter("simrank_router_failovers_total", "", stats.failovers);
  type("simrank_router_conflicts_total", "counter");
  counter("simrank_router_conflicts_total", "", stats.conflicts_retried);
  type("simrank_router_shard_errors_total", "counter");
  counter("simrank_router_shard_errors_total", "", stats.shard_errors);
  type("simrank_router_traced_requests_total", "counter");
  counter("simrank_router_traced_requests_total", "",
          stats.traced_requests);
  type("simrank_router_plan_epoch", "gauge");
  counter("simrank_router_plan_epoch", "", options_.plan.epoch);
  type("simrank_router_shards", "gauge");
  counter("simrank_router_shards", "", options_.plan.shards.size());

  const BuildInfo& build = GetBuildInfo();
  type("simrank_build_info", "gauge");
  out += StrFormat(
      "simrank_build_info{version=\"%s\",compiler=\"%s\",build_type=\"%s\","
      "simd=\"%s\",io_uring=\"%s\",role=\"router\"} 1\n",
      build.git_describe, build.compiler, build.build_type,
      SimdLevelName(ActiveSimdLevel()),
      SegmentReader::IoUringEnabled() ? "true" : "false");
  type("simrank_router_uptime_seconds", "gauge");
  out += StrFormat("simrank_router_uptime_seconds %g\n", UptimeSeconds());
  {
    ProcessMemoryStats memory;
    if (ReadProcessMemoryStats(&memory)) {
      type("simrank_router_resident_bytes", "gauge");
      counter("simrank_router_resident_bytes", "", memory.resident_bytes);
    }
  }

  if (options_.scrape_interval_ms > 0) {
    type("simrank_fleet_scrape_rounds_total", "counter");
    counter("simrank_fleet_scrape_rounds_total", "", stats.scrape_rounds);
    type("simrank_fleet_scrape_failures_total", "counter");
    counter("simrank_fleet_scrape_failures_total", "",
            stats.scrape_failures);

    const std::vector<TargetState> targets = SnapshotTargets();
    const uint64_t now_s = UnixSeconds();
    type("simrank_fleet_target_healthy", "gauge");
    for (const TargetState& target : targets) {
      out += StrFormat(
          "simrank_fleet_target_healthy{shard=\"%u\",role=\"%s\"} %d\n",
          target.shard_id, target.replica ? "replica" : "primary",
          target.healthy ? 1 : 0);
    }
    type("simrank_fleet_scrape_age_seconds", "gauge");
    for (const TargetState& target : targets) {
      const uint64_t age = target.last_success_unix_s == 0
                               ? 0
                               : (now_s >= target.last_success_unix_s
                                      ? now_s - target.last_success_unix_s
                                      : 0);
      out += StrFormat(
          "simrank_fleet_scrape_age_seconds{shard=\"%u\",role=\"%s\"} "
          "%llu\n",
          target.shard_id, target.replica ? "replica" : "primary",
          static_cast<unsigned long long>(age));
    }

    // Fleet aggregation: every family each target exports, re-emitted
    // verbatim with shard/role labels injected so one scrape of the
    // router sees the whole cluster. TYPE lines are merged per family
    // (a family may appear on many targets but is declared once).
    std::map<std::string, std::pair<std::string, std::string>> merged;
    for (const TargetState& target : targets) {
      if (target.metrics_text.empty()) continue;
      const char* role = target.replica ? "replica" : "primary";
      for (const PromFamily& family :
           ParsePrometheusText(target.metrics_text)) {
        auto& slot = merged[family.name];
        if (slot.first.empty()) slot.first = family.type;
        for (const PromSample& sample : family.samples) {
          slot.second += StrFormat(
              "%s%s %.17g\n", sample.name.c_str(),
              InjectShardLabels(sample.labels, target.shard_id, role)
                  .c_str(),
              sample.value);
        }
      }
    }
    for (const auto& [name, family] : merged) {
      out += StrFormat("# TYPE %s %s\n", name.c_str(),
                       family.first.c_str());
      out += family.second;
    }
  }

  return out;
}

std::vector<SimRankRouter::TargetState> SimRankRouter::SnapshotTargets()
    const {
  std::lock_guard<std::mutex> lock(targets_mutex_);
  return targets_;
}

void SimRankRouter::ScrapeOnce() {
  const uint64_t now_s = UnixSeconds();
  size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(targets_mutex_);
    count = targets_.size();
  }
  for (size_t i = 0; i < count; ++i) {
    uint16_t port = 0;
    {
      std::lock_guard<std::mutex> lock(targets_mutex_);
      port = targets_[i].port;
    }
    // Dedicated short-timeout connections, never the query pools: a dead
    // shard must cost the scraper one scrape_timeout_ms, not poison a
    // pooled keep-alive connection a query would pick up next.
    std::string text;
    std::string error;
    auto client =
        LoopbackHttpClient::Connect(port, options_.scrape_timeout_ms);
    if (!client.ok()) {
      error = client.status().message();
    } else {
      auto response = client->Get("/metrics");
      if (!response.ok()) {
        error = response.status().message();
      } else if (response->status != 200) {
        error = StrFormat("/metrics answered HTTP %d", response->status);
      } else {
        text = std::move(response->body);
      }
    }
    double overlay_sequence = 0;
    double wal_records = 0;
    double loop_lag_seconds = 0;
    double uptime_seconds = 0;
    double resident_bytes = 0;
    if (error.empty()) {
      for (const PromFamily& family : ParsePrometheusText(text)) {
        for (const PromSample& sample : family.samples) {
          if (sample.name == "simrank_overlay_sequence_current") {
            overlay_sequence = sample.value;
          } else if (sample.name == "simrank_wal_records") {
            wal_records = sample.value;
          } else if (sample.name == "simrank_loop_lag_seconds") {
            loop_lag_seconds = sample.value;
          } else if (sample.name == "simrank_uptime_seconds") {
            uptime_seconds = sample.value;
          } else if (sample.name == "simrank_resident_bytes") {
            resident_bytes = sample.value;
          }
        }
      }
    } else {
      stat_scrape_failures_.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(targets_mutex_);
    TargetState& target = targets_[i];
    target.last_attempt_unix_s = now_s;
    if (error.empty()) {
      target.healthy = true;
      target.consecutive_failures = 0;
      target.error.clear();
      target.last_success_unix_s = now_s;
      target.overlay_sequence = overlay_sequence;
      target.wal_records = wal_records;
      target.loop_lag_seconds = loop_lag_seconds;
      target.uptime_seconds = uptime_seconds;
      target.resident_bytes = resident_bytes;
      target.metrics_text = std::move(text);
    } else {
      // Unhealthy from the very first failed scrape: a killed shard is
      // reflected within one scrape interval.
      target.healthy = false;
      ++target.consecutive_failures;
      target.error = std::move(error);
      target.metrics_text.clear();
    }
  }
}

void SimRankRouter::ScrapeLoop() {
  ScopedProfiledThread profiled("fleet-scrape");
  const auto interval =
      std::chrono::milliseconds(options_.scrape_interval_ms);
  while (!scrape_stop_.load(std::memory_order_acquire)) {
    ScrapeOnce();
    stat_scrape_rounds_.fetch_add(1, std::memory_order_relaxed);
    const auto next = std::chrono::steady_clock::now() + interval;
    // Short slices keep Shutdown prompt at long scrape intervals.
    while (!scrape_stop_.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

std::string SimRankRouter::BuildClusterHealth() const {
  const std::vector<TargetState> targets = SnapshotTargets();
  const uint64_t now_s = UnixSeconds();
  JsonWriter json;
  json.BeginObject();
  json.Key("plan_epoch").Uint(options_.plan.epoch);
  json.Key("plan_shards").Uint(options_.plan.shards.size());
  json.Key("scraping").Bool(options_.scrape_interval_ms > 0);
  json.Key("scrape_interval_ms").Uint(options_.scrape_interval_ms);
  json.Key("scrape_rounds")
      .Uint(stat_scrape_rounds_.load(std::memory_order_relaxed));
  bool all_healthy = options_.scrape_interval_ms > 0;
  auto emit_target = [&](const TargetState& target, const char* key,
                         bool have_lag, double wal_lag) {
    json.Key(key).BeginObject();
    json.Key("port").Uint(target.port);
    json.Key("role").String(target.replica ? "replica" : "primary");
    json.Key("healthy").Bool(target.healthy);
    json.Key("consecutive_failures").Uint(target.consecutive_failures);
    if (!target.error.empty()) json.Key("error").String(target.error);
    if (target.last_success_unix_s > 0) {
      json.Key("last_scrape_age_seconds")
          .Uint(now_s >= target.last_success_unix_s
                    ? now_s - target.last_success_unix_s
                    : 0);
    }
    json.Key("overlay_sequence")
        .Uint(static_cast<uint64_t>(target.overlay_sequence));
    json.Key("wal_records").Uint(static_cast<uint64_t>(target.wal_records));
    if (have_lag) json.Key("wal_lag_records").Double(wal_lag);
    json.Key("loop_lag_seconds").Double(target.loop_lag_seconds);
    json.Key("uptime_seconds").Double(target.uptime_seconds);
    json.Key("resident_bytes")
        .Uint(static_cast<uint64_t>(target.resident_bytes));
    json.EndObject();
  };
  json.Key("shards").BeginArray();
  for (const RouterShard& shard : options_.shards) {
    const TargetState* primary = nullptr;
    const TargetState* replica = nullptr;
    for (const TargetState& target : targets) {
      if (target.shard_id != shard.shard_id) continue;
      (target.replica ? replica : primary) = &target;
    }
    json.BeginObject();
    json.Key("shard_id").Uint(shard.shard_id);
    const ShardRange& range = options_.plan.shards[shard.shard_id];
    json.Key("vertex_begin").Uint(range.begin);
    json.Key("vertex_end").Uint(range.end);
    if (primary != nullptr) {
      emit_target(*primary, "primary", /*have_lag=*/false, 0);
      if (!primary->healthy) all_healthy = false;
    }
    if (replica != nullptr) {
      // WAL shipping lag: records the primary has durably appended that
      // the replica has not yet applied. Meaningful only when both
      // scrapes are fresh.
      const bool have_lag = primary != nullptr && primary->healthy &&
                            replica->healthy;
      const double lag =
          have_lag ? primary->wal_records - replica->wal_records : 0;
      emit_target(*replica, "replica", have_lag, lag < 0 ? 0 : lag);
      if (!replica->healthy) all_healthy = false;
    }
    json.EndObject();
  }
  json.EndArray();
  json.Key("healthy").Bool(all_healthy);
  json.EndObject();
  return std::move(json).Take();
}

}  // namespace simrank
