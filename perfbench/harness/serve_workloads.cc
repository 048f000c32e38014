// serve_read, serve_write and serve_routed: loopback HTTP traffic against
// an in-process SimRankServer (or a 2-shard SimRankRouter deployment).
//
// All three share one fixed 10k-vertex web graph and walk index and one
// read mix (80% pair, 15% top-k, 5% single-source, Zipf-skewed sources).
// The seed picks the request stream, the Zipf hot set and the update
// batches; the graph and index never change with the seed.
//
// Untraced run: set the deployment up kSetupRepeats times (setup_s is the
// median), then an open-loop phase at a fixed rate (latency timed from
// each request's due time) and, for serve_read/serve_routed, a closed-loop
// capacity phase. serve_write runs its closed-loop writer beside the open
// loop for the whole window. Traced run: one setup, direct probes of the
// index, query engine and JSON layers on the same stream, the open loop
// with every other request carrying X-Simrank-Trace (so the stage traces
// fold into layer times and the traced/untraced p50 ratio gives the
// tracing overhead), and for serve_write a replay of the batch stream
// through a private IndexUpdater.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "harness/loadgen.h"
#include "harness/trace_fold.h"
#include "harness/workloads.h"
#include "simrank/cluster/router.h"
#include "simrank/cluster/shard_plan.h"
#include "simrank/cluster/shard_split.h"
#include "simrank/common/json_writer.h"
#include "simrank/common/string_util.h"
#include "simrank/gen/generators.h"
#include "simrank/graph/graph_io.h"
#include "simrank/index/edge_update.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/update_wal.h"
#include "simrank/index/walk_index.h"
#include "simrank/obs/trace.h"
#include "simrank/server/http_client.h"
#include "simrank/server/server.h"

namespace perfbench {
namespace {

using simrank::DiGraph;
using simrank::EdgeUpdate;
using simrank::IndexUpdater;
using simrank::LoopbackHttpClient;
using simrank::QueryEngine;
using simrank::SimRankRouter;
using simrank::SimRankServer;
using simrank::StrFormat;
using simrank::VertexId;
using simrank::WalkIndex;

// Fixed sizes; BENCHMARK.json and WORKLOADS.md record them.
constexpr uint32_t kVertices = 10000;
constexpr uint32_t kFingerprints = 128;  // R
constexpr uint32_t kWalkLength = 8;      // L
constexpr uint32_t kBuildThreads = 2;
constexpr uint32_t kServerWorkers = 2;  // single server; half per shard
constexpr uint32_t kTopK = 10;
constexpr double kZipfExponent = 0.9;
constexpr double kPairShare = 0.80;
constexpr double kTopKShare = 0.15;  // single-source: the remaining 5%
constexpr double kReadRate = 400;        // serve_read, serve_routed
constexpr double kWriteReadRate = 300;   // serve_write reads
// The last 75% of a run is the open loop (beside the writer for
// serve_write); the first 25% is closed-loop capacity for serve_read and
// serve_routed, and read-only open-loop traffic for serve_write.
constexpr double kOpenLoopShare = 0.75;
constexpr uint32_t kClosedLoopConnections = 2;
constexpr uint32_t kRecycleEvery = 128;  // requests per connection
constexpr uint32_t kVerifyEvery = 8;     // bitwise-checked responses
constexpr uint32_t kSetupRepeats = 3;
constexpr uint32_t kBatchEdges = 4;  // 2 deletes then 2 inserts
constexpr double kWriterThinkSeconds = 0.02;  // between ack and next batch
constexpr uint64_t kOverlayBudget = 2 * 1024 * 1024;
constexpr uint32_t kTimeoutMs = 5000;
constexpr uint32_t kProbeSources = 64;
constexpr uint32_t kCachedRows = 8 * 128;  // QueryEngineOptions defaults

enum class Mode { kRead, kWrite, kRouted };

DiGraph MakeGraph() {
  simrank::gen::WebGraphParams params;
  params.n = kVertices;
  params.out_degree = 3;
  params.copy_prob = 0.5;
  params.in_copy_prob = 0.3;
  params.seed = 7;
  auto graph = simrank::gen::WebGraph(params);
  OIPSIM_CHECK(graph.ok());
  return std::move(graph).value();
}

simrank::WalkIndexOptions IndexOptions() {
  simrank::WalkIndexOptions options;
  options.num_fingerprints = kFingerprints;
  options.walk_length = kWalkLength;
  options.damping = 0.6;
  options.seed = 7;
  options.num_threads = kBuildThreads;
  return options;
}

std::string Target(const ReadRequest& r) {
  switch (r.kind) {
    case ReadKind::kPair:
      return StrFormat("/v1/pair?a=%u&b=%u", r.a, r.b);
    case ReadKind::kTopK:
      return StrFormat("/v1/topk?v=%u&k=%u", r.a, kTopK);
    case ReadKind::kSingleSource:
      return StrFormat("/v1/single_source?v=%u", r.a);
  }
  return "";
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// Checks one served body against the reference engine, bitwise.
bool MatchesReference(const ReadRequest& r, const std::string& body,
                      QueryEngine& reference) {
  switch (r.kind) {
    case ReadKind::kPair: {
      auto expected = reference.Pair(r.a, r.b);
      return expected.ok() &&
             SameBits(simrank::FindJsonNumber(body, "score"), *expected);
    }
    case ReadKind::kSingleSource: {
      auto expected = reference.SingleSource(r.a);
      if (!expected.ok()) return false;
      const std::vector<double> served =
          simrank::FindJsonNumberArray(body, "scores");
      const std::vector<double>& row = **expected;
      if (served.size() != row.size()) return false;
      for (size_t i = 0; i < row.size(); ++i) {
        if (!SameBits(served[i], row[i])) return false;
      }
      return true;
    }
    case ReadKind::kTopK: {
      auto expected = reference.TopK(r.a, kTopK);
      if (!expected.ok()) return false;
      size_t cursor = 0;
      for (const simrank::ScoredVertex& scored : *expected) {
        if (static_cast<VertexId>(simrank::FindJsonNumber(
                body, "vertex", &cursor)) != scored.vertex ||
            !SameBits(simrank::FindJsonNumber(body, "score", &cursor),
                      scored.score)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

/// One serving deployment: the served index and engine, an independent
/// reference engine over the same index, and either one server (with an
/// IndexUpdater for serve_write) or two shard servers behind a router.
class Deployment {
 public:
  Deployment(Mode mode, const std::string& workdir, Spans& spans,
             const DiGraph& graph) {
    const std::string index_path = workdir + "/serve.widx";
    {
      std::optional<WalkIndex> built;
      {
        ScopedSpan span(spans, "index.build_s");
        auto result = WalkIndex::Build(graph, IndexOptions());
        OIPSIM_CHECK(result.ok());
        built.emplace(std::move(result).value());
      }
      OIPSIM_CHECK(built->Save(index_path).ok());
    }
    {
      // Default load options, as `simrank_server serve --index` uses.
      ScopedSpan span(spans, "index.load_s");
      auto loaded = WalkIndex::Load(index_path);
      OIPSIM_CHECK(loaded.ok());
      index_ = std::make_unique<WalkIndex>(std::move(loaded).value());
    }
    engine_ = std::make_unique<QueryEngine>(*index_);
    reference_ = std::make_unique<QueryEngine>(*index_);

    simrank::ServerOptions server_options;
    server_options.port = 0;
    server_options.threads = kServerWorkers;
    server_options.max_inflight = 256;
    server_options.max_endpoint_inflight = 128;

    if (mode == Mode::kRouted) {
      StartRouted(workdir, spans, server_options);
      return;
    }
    if (mode == Mode::kWrite) {
      simrank::IndexUpdaterOptions updater_options;
      updater_options.wal_path = workdir + "/serve.wal";
      updater_options.sync_wal = true;  // fsync per acknowledged batch
      updater_options.overlay_budget_bytes = kOverlayBudget;
      updater_options.auto_compact_path = workdir + "/compacted.widx";
      updater_options.auto_compact_graph_path = workdir + "/compacted.graph";
      auto updater = IndexUpdater::Open(*index_, graph, updater_options);
      OIPSIM_CHECK(updater.ok());
      updater_ = std::move(updater).value();
    }
    server_ = std::make_unique<SimRankServer>(*engine_, server_options,
                                              updater_.get());
    OIPSIM_CHECK(server_->Bind().ok());
    serve_thread_ =
        std::thread([this] { OIPSIM_CHECK(server_->Serve().ok()); });
    port_ = server_->port();
  }

  ~Deployment() {
    if (router_ != nullptr) router_->Shutdown();
    for (auto& shard : shards_) {
      shard->server->Shutdown();
      shard->thread.join();
    }
    if (server_ != nullptr) {
      server_->Shutdown();
      serve_thread_.join();
    }
    if (updater_ != nullptr) updater_->DrainBackgroundCompaction();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  uint16_t port() const { return port_; }
  WalkIndex& index() { return *index_; }
  QueryEngine& reference() { return *reference_; }
  IndexUpdater* updater() { return updater_.get(); }

  /// Cache counters summed over every serving engine.
  simrank::LruCacheStats CacheStats() const {
    simrank::LruCacheStats total;
    auto add = [&total](const QueryEngine& engine) {
      const auto s = engine.cache_stats();
      total.hits += s.hits;
      total.misses += s.misses;
      total.evictions += s.evictions;
    };
    if (shards_.empty()) add(*engine_);
    for (const auto& shard : shards_) add(*shard->engine);
    return total;
  }

  uint64_t Rejected() const {
    uint64_t total = 0;
    auto add = [&total](const SimRankServer& server) {
      const auto s = server.stats();
      total += s.rejected_inflight + s.rejected_endpoint;
    };
    if (server_ != nullptr) add(*server_);
    for (const auto& shard : shards_) add(*shard->server);
    return total;
  }

 private:
  struct Shard {
    std::unique_ptr<WalkIndex> index;
    std::unique_ptr<QueryEngine> engine;
    std::unique_ptr<SimRankServer> server;
    std::thread thread;
  };

  void StartRouted(const std::string& workdir, Spans& spans,
                   simrank::ServerOptions server_options) {
    auto plan = simrank::ShardPlan::EvenSplit(
        index_->n(), index_->graph_fingerprint(), 2);
    OIPSIM_CHECK(plan.ok());
    simrank::RouterOptions router_options;
    router_options.plan = *plan;
    std::vector<std::string> paths;
    {
      ScopedSpan span(spans, "shard_split.write_s");
      for (const simrank::ShardRange& range : plan->shards) {
        paths.push_back(StrFormat("%s/shard-%u.widx", workdir.c_str(),
                                  range.shard_id));
        OIPSIM_CHECK(simrank::WriteShardIndex(index_->store(), range,
                                              paths.back(), false)
                         .ok());
      }
    }
    server_options.threads = kServerWorkers / 2;
    server_options.sharded = true;
    server_options.shard_plan = *plan;
    for (const simrank::ShardRange& range : plan->shards) {
      auto shard = std::make_unique<Shard>();
      auto loaded = WalkIndex::Load(paths[range.shard_id]);
      OIPSIM_CHECK(loaded.ok());
      shard->index = std::make_unique<WalkIndex>(std::move(loaded).value());
      shard->engine = std::make_unique<QueryEngine>(*shard->index);
      server_options.shard_id = range.shard_id;
      shard->server =
          std::make_unique<SimRankServer>(*shard->engine, server_options);
      OIPSIM_CHECK(shard->server->Bind().ok());
      SimRankServer* server = shard->server.get();
      shard->thread =
          std::thread([server] { OIPSIM_CHECK(server->Serve().ok()); });
      router_options.shards.push_back(
          simrank::RouterShard{range.shard_id, shard->server->port(), 0});
      shards_.push_back(std::move(shard));
    }
    router_ = std::make_unique<SimRankRouter>(std::move(router_options));
    OIPSIM_CHECK(router_->Bind().ok());
    OIPSIM_CHECK(router_->Start().ok());
    port_ = router_->port();
  }

  std::unique_ptr<WalkIndex> index_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<QueryEngine> reference_;
  std::unique_ptr<IndexUpdater> updater_;
  std::unique_ptr<SimRankServer> server_;
  std::thread serve_thread_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<SimRankRouter> router_;
  uint16_t port_ = 0;
};

/// Builds a deployment and waits for its first correct answer.
std::unique_ptr<Deployment> SetUp(Mode mode, const RunOptions& options,
                                  Spans& spans, Report& report) {
  std::filesystem::remove_all(options.workdir);
  std::filesystem::create_directories(options.workdir);
  auto deployment =
      std::make_unique<Deployment>(mode, options.workdir, spans, MakeGraph());
  const ReadRequest first{ReadKind::kPair, 0, 1};
  auto client = LoopbackHttpClient::Connect(deployment->port(), kTimeoutMs);
  OIPSIM_CHECK(client.ok());
  auto response = client->Get(Target(first));
  report.Attempted();
  if (!response.ok() || response->status != 200 ||
      !MatchesReference(first, response->body, deployment->reference())) {
    report.Mismatch("first answer after setup");
  }
  return deployment;
}

struct ReadSample {
  double latency_us = 0;  // from due time (open loop) or send (closed)
  double service_us = 0;  // from send
  double late_us = 0;     // send time minus due time
  bool ok = false;
  bool traced = false;
  std::string body;        // kept for sampled verification
  std::string trace_json;  // X-Simrank-Trace-Json, traced requests only
};

struct LoopStats {
  std::vector<ReadSample> samples;
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t backlog_max = 0;
  double seconds = 0;
};

/// Sends one read, recording it into `sample`; reconnects on transport
/// errors and every kRecycleEvery requests.
void SendRead(uint16_t port, const ReadRequest& request, bool traced,
              bool keep_body, std::optional<LoopbackHttpClient>& client,
              uint32_t& used, ReadSample& sample, Report& report) {
  if (!client.has_value() || used >= kRecycleEvery) {
    client.reset();
    auto connected = LoopbackHttpClient::Connect(port, kTimeoutMs);
    if (connected.ok()) client.emplace(std::move(connected).value());
    used = 0;
  }
  report.Attempted();
  if (!client.has_value()) {
    report.Failed("connect");
    return;
  }
  std::vector<std::pair<std::string, std::string>> headers;
  if (traced) {
    headers.emplace_back("X-Simrank-Trace",
                         simrank::TraceIdToHex(simrank::GenerateTraceId()));
  }
  const double sent = NowSeconds();
  auto response = client->Get(Target(request), headers);
  sample.service_us = (NowSeconds() - sent) * 1e6;
  ++used;
  if (!response.ok()) {
    client.reset();
    report.Failed(response.status().ToString());
    return;
  }
  if (response->status != 200) {
    report.Failed(StrFormat("%s -> HTTP %d", Target(request).c_str(),
                            response->status));
    return;
  }
  sample.ok = true;
  sample.traced = traced;
  if (traced) {
    if (const std::string* trace =
            response->FindHeader("x-simrank-trace-json")) {
      sample.trace_json = *trace;
    }
  }
  if (keep_body) sample.body = std::move(response->body);
}

/// Open loop: request i is due at start + due[i]; generator threads take
/// the next due request, wait for its time, send it and block for the
/// answer. Latency counts from the due time.
LoopStats RunOpenLoop(uint16_t port, const std::vector<ReadRequest>& requests,
                      const std::vector<double>& due, bool trace_half,
                      Report& report) {
  LoopStats stats;
  stats.samples.resize(due.size());
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> backlog_max{0};
  const double start = NowSeconds() + 0.05;
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < GeneratorThreads(); ++t) {
    threads.emplace_back([&] {
      // Wake at the due time, not up to the default 50 us timer slack
      // after it.
      prctl(PR_SET_TIMERSLACK, 1UL);
      std::optional<LoopbackHttpClient> client;
      uint32_t used = 0;
      for (size_t i = next++; i < due.size(); i = next++) {
        const double due_at = start + due[i];
        const double wait = due_at - NowSeconds();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        const double now = NowSeconds();
        const uint64_t due_by_now = static_cast<uint64_t>(
            std::upper_bound(due.begin(), due.end(), now - start) -
            due.begin());
        const uint64_t in_flight_sent = sent++;
        const uint64_t backlog =
            due_by_now > in_flight_sent ? due_by_now - in_flight_sent : 0;
        uint64_t seen = backlog_max.load();
        while (backlog > seen &&
               !backlog_max.compare_exchange_weak(seen, backlog)) {
        }
        ReadSample& sample = stats.samples[i];
        sample.late_us = (now - due_at) * 1e6;
        SendRead(port, requests[i], trace_half && i % 2 == 1,
                 i % kVerifyEvery == 0, client, used, sample, report);
        sample.latency_us = (NowSeconds() - due_at) * 1e6;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  stats.seconds = NowSeconds() - start;
  stats.sent = sent.load();
  for (const ReadSample& s : stats.samples) stats.completed += s.ok;
  stats.backlog_max = backlog_max.load();
  return stats;
}

/// Closed loop: kClosedLoopConnections threads each send their next
/// request as soon as the previous answer arrived, until `seconds` elapse.
LoopStats RunClosedLoop(uint16_t port, const std::vector<ReadRequest>& requests,
                        double seconds, Report& report,
                        std::vector<std::pair<size_t, std::string>>* checks) {
  LoopStats stats;
  const uint32_t threads_n =
      std::min(kClosedLoopConnections, GeneratorThreads());
  std::vector<std::vector<std::pair<size_t, std::string>>> kept(threads_n);
  std::vector<uint64_t> completed(threads_n, 0);
  const double start = NowSeconds();
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < threads_n; ++t) {
    threads.emplace_back([&, t] {
      std::optional<LoopbackHttpClient> client;
      uint32_t used = 0;
      for (size_t i = t; NowSeconds() < deadline; i += threads_n) {
        const size_t r = i % requests.size();
        ReadSample sample;
        const bool keep = i % (kVerifyEvery * 8) == t;
        SendRead(port, requests[r], false, keep, client, used, sample, report);
        if (!sample.ok) continue;
        ++completed[t];
        if (keep) kept[t].emplace_back(r, std::move(sample.body));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  stats.seconds = NowSeconds() - start;
  for (uint32_t t = 0; t < threads_n; ++t) {
    stats.completed += completed[t];
    for (auto& entry : kept[t]) checks->push_back(std::move(entry));
  }
  return stats;
}

/// Keeps a copy of the served graph's edge set to draw valid update
/// batches from: deletes pick existing edges, inserts absent ones.
class EdgeMirror {
 public:
  explicit EdgeMirror(const DiGraph& graph) {
    for (VertexId v = 0; v < graph.n(); ++v) {
      for (VertexId w : graph.OutNeighbors(v)) Insert(v, w);
    }
  }

  std::vector<EdgeUpdate> NextBatch(SplitMix64& rng) const {
    std::vector<EdgeUpdate> batch;
    std::unordered_set<uint64_t> touched;
    while (batch.size() < kBatchEdges / 2) {
      const auto [src, dst] = edges_[rng.NextBelow(edges_.size())];
      if (touched.insert(Key(src, dst)).second) {
        batch.push_back({EdgeUpdate::Op::kDelete, src, dst});
      }
    }
    while (batch.size() < kBatchEdges) {
      const VertexId src = static_cast<VertexId>(rng.NextBelow(kVertices));
      const VertexId dst = static_cast<VertexId>(rng.NextBelow(kVertices));
      if (src != dst && keys_.count(Key(src, dst)) == 0 &&
          touched.insert(Key(src, dst)).second) {
        batch.push_back({EdgeUpdate::Op::kInsert, src, dst});
      }
    }
    return batch;
  }

  void Apply(const std::vector<EdgeUpdate>& batch) {
    for (const EdgeUpdate& u : batch) {
      if (u.op == EdgeUpdate::Op::kInsert) {
        Insert(u.src, u.dst);
      } else {
        const size_t at = positions_[Key(u.src, u.dst)];
        const auto last = edges_.back();
        edges_[at] = last;
        positions_[Key(last.first, last.second)] = at;
        edges_.pop_back();
        positions_.erase(Key(u.src, u.dst));
        keys_.erase(Key(u.src, u.dst));
      }
    }
  }

 private:
  static uint64_t Key(VertexId a, VertexId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }
  void Insert(VertexId a, VertexId b) {
    keys_.insert(Key(a, b));
    positions_[Key(a, b)] = edges_.size();
    edges_.emplace_back(a, b);
  }

  std::vector<std::pair<VertexId, VertexId>> edges_;
  std::unordered_set<uint64_t> keys_;
  std::unordered_map<uint64_t, size_t> positions_;
};

struct WriterStats {
  std::vector<double> latency_us;
  std::vector<std::vector<EdgeUpdate>> batches;  // acknowledged, in order
  double seconds = 0;
};

/// The closed-loop writer: POSTs 4-edge batches until `deadline`, each
/// kWriterThinkSeconds after the previous acknowledgement, so updates and
/// compaction leave the reads CPU to run on.
WriterStats RunWriter(uint16_t port, uint64_t seed, const DiGraph& base,
                      double deadline, Report& report) {
  WriterStats stats;
  EdgeMirror mirror(base);
  SplitMix64 rng(seed ^ 0x3417e5ULL);
  auto client = LoopbackHttpClient::Connect(port, 30000);
  OIPSIM_CHECK(client.ok());
  const double start = NowSeconds();
  while (NowSeconds() < deadline) {
    std::vector<EdgeUpdate> batch = mirror.NextBatch(rng);
    const std::string body = simrank::FormatEdgeUpdates(batch);
    report.Attempted();
    const double sent = NowSeconds();
    auto response = client->Post("/v1/update", body);
    const double latency_us = (NowSeconds() - sent) * 1e6;
    if (!response.ok() || response->status != 200) {
      report.Failed(response.ok() ? "update -> HTTP " +
                                        std::to_string(response->status) +
                                        " " + response->body
                                  : response.status().ToString());
      if (!response.ok()) break;
      continue;
    }
    stats.latency_us.push_back(latency_us);
    mirror.Apply(batch);
    stats.batches.push_back(std::move(batch));
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kWriterThinkSeconds));
  }
  stats.seconds = NowSeconds() - start;
  return stats;
}

/// After the writer stopped: the live index must be bitwise-equal to one
/// rebuilt from scratch on the final graph, and HTTP answers must equal
/// the reference engine's on a sample of every endpoint.
void CheckFinalWriteState(Deployment& deployment, const WriterStats& writer,
                          uint64_t seed, Report& report) {
  IndexUpdater& updater = *deployment.updater();
  updater.DrainBackgroundCompaction();
  DiGraph final_graph = updater.CurrentGraph();
  DiGraph expected_graph = MakeGraph();
  for (const auto& batch : writer.batches) {
    auto next = simrank::ApplyEdgeUpdates(expected_graph, batch);
    OIPSIM_CHECK(next.ok());
    expected_graph = std::move(next).value();
  }
  if (simrank::GraphFingerprint(final_graph) !=
      simrank::GraphFingerprint(expected_graph)) {
    report.Mismatch("serve_write final graph differs from the batches sent");
  }
  auto rebuilt = WalkIndex::Build(expected_graph, IndexOptions());
  OIPSIM_CHECK(rebuilt.ok());
  const WalkIndex& live = deployment.index();
  SplitMix64 rng(seed ^ 0xf1a1ULL);
  for (uint32_t i = 0; i < 32; ++i) {
    const VertexId v = static_cast<VertexId>(rng.NextBelow(kVertices));
    const VertexId w = static_cast<VertexId>(rng.NextBelow(kVertices));
    report.Attempted();
    const std::vector<double> a = live.EstimateSingleSource(v);
    const std::vector<double> b = rebuilt->EstimateSingleSource(v);
    if (a.size() != b.size() ||
        std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0 ||
        !SameBits(live.EstimatePair(v, w), rebuilt->EstimatePair(v, w))) {
      report.Mismatch(StrFormat("serve_write final row %u differs from a "
                                "rebuild on the final graph", v));
    }
  }
  auto client = LoopbackHttpClient::Connect(deployment.port(), kTimeoutMs);
  OIPSIM_CHECK(client.ok());
  for (uint32_t i = 0; i < 24; ++i) {
    const ReadRequest request{static_cast<ReadKind>(i % kNumReadKinds),
                              static_cast<uint32_t>(rng.NextBelow(kVertices)),
                              static_cast<uint32_t>(rng.NextBelow(kVertices))};
    report.Attempted();
    auto response = client->Get(Target(request));
    if (!response.ok() || response->status != 200 ||
        !MatchesReference(request, response->body, deployment.reference())) {
      report.Mismatch("serve_write final " + Target(request));
    }
  }
}

void VerifySamples(const std::vector<ReadRequest>& requests,
                   const LoopStats& loop, QueryEngine& reference,
                   Report& report) {
  for (size_t i = 0; i < loop.samples.size(); ++i) {
    const ReadSample& sample = loop.samples[i];
    if (!sample.ok || sample.body.empty()) continue;
    if (!MatchesReference(requests[i], sample.body, reference)) {
      report.Mismatch(Target(requests[i]));
    }
  }
}

/// The ss body exactly as the server formats it.
std::string SingleSourceBody(VertexId v, const std::vector<double>& row) {
  simrank::JsonWriter json;
  json.BeginObject().Key("v").Uint(v).Key("scores").BeginArray();
  for (const double score : row) json.Double(score);
  json.EndArray().EndObject();
  return json.str();
}

std::string TopKBody(VertexId v,
                     const std::vector<simrank::ScoredVertex>& top) {
  simrank::JsonWriter json;
  json.BeginObject().Key("v").Uint(v).Key("k").Uint(kTopK).Key("results");
  json.BeginArray();
  for (const auto& scored : top) {
    json.BeginObject()
        .Key("vertex")
        .Uint(scored.vertex)
        .Key("score")
        .Double(scored.score)
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

/// Direct calls into the index, query-engine and JSON layers on the
/// workload's own request stream, against the freshly set-up index.
void ProbeLayers(WalkIndex& index, const std::vector<ReadRequest>& requests,
                 Report& report) {
  Spans spans;
  std::vector<VertexId> sources;  // first occurrences: the cold misses
  std::unordered_set<VertexId> seen;
  uint32_t pairs = 0;
  for (const ReadRequest& r : requests) {
    if (r.kind == ReadKind::kPair) {
      if (pairs++ < 4000) {
        ScopedSpan span(spans, "index.pair");
        (void)index.EstimatePair(r.a, r.b);
      }
    } else if (sources.size() < kProbeSources && seen.insert(r.a).second) {
      sources.push_back(r.a);
    }
  }
  uint64_t row_bytes = 0;
  for (VertexId v : sources) {
    std::vector<double> row;
    {
      ScopedSpan span(spans, "index.single_source");
      row = index.EstimateSingleSource(v);
    }
    {
      ScopedSpan span(spans, "json.row");
      row_bytes += SingleSourceBody(v, row).size();
    }
  }
  QueryEngine engine(index);
  for (size_t i = 0; i < requests.size() && i < 4000; ++i) {
    const ReadRequest& r = requests[i];
    ScopedSpan span(spans, std::string("query_engine.") + ReadKindName(r.kind));
    switch (r.kind) {
      case ReadKind::kPair:
        OIPSIM_CHECK(engine.Pair(r.a, r.b).ok());
        break;
      case ReadKind::kTopK:
        OIPSIM_CHECK(engine.TopK(r.a, kTopK).ok());
        break;
      case ReadKind::kSingleSource:
        OIPSIM_CHECK(engine.SingleSource(r.a).ok());
        break;
    }
  }
  for (VertexId v : sources) {
    auto top = engine.TopK(v, kTopK);
    OIPSIM_CHECK(top.ok());
    ScopedSpan span(spans, "json.topk");
    (void)TopKBody(v, *top);
  }
  auto median_us = [&spans](const char* name) {
    return Median(spans.Samples(name)) * 1e6;
  };
  report.Set("index.pair_us", median_us("index.pair"));
  report.Set("index.single_source_us", median_us("index.single_source"));
  report.Set("query_engine.pair_us", median_us("query_engine.pair"));
  report.Set("query_engine.topk_us", median_us("query_engine.topk"));
  report.Set("query_engine.single_source_us",
             median_us("query_engine.single_source"));
  report.Set("json.row_us", median_us("json.row"));
  report.Set("json.row_bytes",
             sources.empty() ? 0.0
                             : static_cast<double>(row_bytes) / sources.size());
  report.Set("json.topk_us", median_us("json.topk"));
}

/// Folds the traced half of an open loop into server/index/router layer
/// figures (means per traced request) and the tracing overhead.
void FoldTraces(Mode mode, const LoopStats& loop, Report& report) {
  std::vector<double> traced_latency, untraced_latency, self_us;
  std::map<std::string, double> stage_total, counter_total;
  double root_total = 0, child_root_total = 0, exchange_max = 0,
         exchange_sum = 0, row_fetch = 0, merge = 0, router_self = 0;
  uint64_t folded = 0;
  for (const ReadSample& sample : loop.samples) {
    if (!sample.ok) continue;
    (sample.traced ? traced_latency : untraced_latency)
        .push_back(sample.service_us);
    FoldedTrace trace;
    if (!sample.traced || !FoldTrace(sample.trace_json, &trace)) continue;
    ++folded;
    for (const auto& [stage, us] : trace.stage_self_us) {
      stage_total[stage] += us;
    }
    for (const auto& [name, v] : trace.counters) counter_total[name] += v;
    root_total += trace.root_us;
    self_us.push_back(sample.service_us - trace.root_us);
    child_root_total += trace.child_root_mean_us;
    exchange_max += trace.shard_exchange_max_us;
    exchange_sum += trace.shard_exchange_sum_us;
    row_fetch += trace.row_fetch_us;
    merge += trace.merge_us;
    router_self += trace.root_us - trace.shard_exchange_max_us;
  }
  if (folded == 0) {
    report.Failed("no traced response carried a trace");
    return;
  }
  const double n = static_cast<double>(folded);
  auto stage = [&](const char* name) { return stage_total[name] / n; };
  report.Set("index.stage.index_probe_us", stage("index_probe"));
  report.Set("index.stage.cold_read_us", stage("cold_read"));
  report.Set("index.stage.decode_us", stage("decode"));
  report.Set("index.stage.accumulate_us", stage("accumulate"));
  report.Set("index.stage.overlay_merge_us", stage("overlay_merge"));
  report.Set("index.rows_decoded", counter_total["rows_decoded"] / n);
  report.Set("index.bytes_read", counter_total["bytes_read"] / n);
  report.Set("index.slots_probed", counter_total["slots_probed"] / n);
  report.Set("index.bucket_entries", counter_total["bucket_entries"] / n);
  report.Set("server.queue_wait_us", stage("queue_wait"));
  report.Set("server.serialize_us", stage("serialize"));
  if (mode == Mode::kRouted) {
    report.Set("server.request_us", child_root_total / n);
    report.Set("router.request_us", root_total / n);
    report.Set("router.shard_exchange_max_us", exchange_max / n);
    report.Set("router.shard_exchange_sum_us", exchange_sum / n);
    report.Set("router.row_fetch_us", row_fetch / n);
    report.Set("router.merge_us", merge / n);
    report.Set("router.self_us", router_self / n);
  } else {
    report.Set("server.request_us", root_total / n);
  }
  report.Set("server.self_us", Median(self_us));
  const double untraced = Median(untraced_latency);
  report.Set("trace.overhead_frac",
             untraced > 0 ? Median(traced_latency) / untraced - 1.0 : 0.0);
}

/// Replays the acknowledged batch stream through a private updater on a
/// fresh copy of the base index (same WAL flush policy, no compaction),
/// and times same-size WAL appends + fsyncs on the same filesystem.
void ProbeUpdater(const RunOptions& options, const WriterStats& writer,
                  Report& report) {
  const size_t batches = std::min<size_t>(writer.batches.size(), 100);
  if (batches == 0) return;
  DiGraph graph = MakeGraph();
  auto built = WalkIndex::Build(graph, IndexOptions());
  OIPSIM_CHECK(built.ok());
  WalkIndex index = std::move(built).value();
  simrank::IndexUpdaterOptions updater_options;
  updater_options.wal_path = options.workdir + "/replay.wal";
  updater_options.sync_wal = true;
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  OIPSIM_CHECK(updater.ok());
  std::vector<double> apply_ms;
  for (size_t i = 0; i < batches; ++i) {
    const double start = NowSeconds();
    const simrank::Status applied = (*updater)->ApplyUpdates(writer.batches[i]);
    apply_ms.push_back((NowSeconds() - start) * 1e3);
    if (!applied.ok()) report.Failed("replay: " + applied.ToString());
  }
  const simrank::IndexUpdateStats stats = (*updater)->stats();
  report.Set("updater.apply_ms", Median(apply_ms));
  report.Set("updater.walks_resimulated",
             static_cast<double>(stats.walks_resimulated) / batches);
  report.Set("updater.steps_resimulated",
             static_cast<double>(stats.steps_resimulated) / batches);

  simrank::WalBaseIdentity identity;
  identity.n = index.n();
  identity.num_fingerprints = kFingerprints;
  identity.walk_length = kWalkLength;
  identity.seed = 7;
  identity.damping = 0.6;
  identity.graph_fingerprint = index.graph_fingerprint();
  auto opened = simrank::UpdateWal::Open(options.workdir + "/probe.wal",
                                         identity, {});
  OIPSIM_CHECK(opened.ok());
  std::vector<double> sync_ms;
  for (size_t i = 0; i < batches; ++i) {
    simrank::WalRecord record;
    record.updates = writer.batches[i];
    record.post_graph_fingerprint = i + 1;
    const double start = NowSeconds();
    OIPSIM_CHECK(opened->wal.Append(record, false).ok());
    OIPSIM_CHECK(opened->wal.Sync().ok());
    sync_ms.push_back((NowSeconds() - start) * 1e3);
  }
  report.Set("updater.wal_sync_ms", Median(sync_ms));
}

Mode ParseMode(const std::string& workload) {
  if (workload == "serve_write") return Mode::kWrite;
  if (workload == "serve_routed") return Mode::kRouted;
  return Mode::kRead;
}

}  // namespace

uint32_t GeneratorThreads() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<uint32_t>(std::clamp<long>(nproc, 1, 4));
}

void RunServeWorkload(const RunOptions& options, Report& report) {
  const Mode mode = ParseMode(options.workload);
  Spans spans;

  // Set-up, repeated so setup_s is a median; the last one serves.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  for (uint32_t i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
    deployment.reset();
    const double start = NowSeconds();
    deployment = SetUp(mode, options, spans, report);
    setup_s.push_back(NowSeconds() - start);
  }

  // The request stream: sources Zipf-skewed over all vertices through a
  // per-seed permutation, so the hot set differs per seed.
  const ZipfSampler zipf(kVertices, kZipfExponent);
  const std::vector<uint32_t> hot = SeededPermutation(options.seed, kVertices);
  const double open_seconds = options.seconds * kOpenLoopShare;
  const double first_seconds = options.seconds - open_seconds;
  const double rate = mode == Mode::kWrite ? kWriteReadRate : kReadRate;
  const std::vector<double> due =
      OpenLoopSchedule(options.seed, rate, open_seconds);
  const std::vector<ReadRequest> requests =
      MakeReadMix(options.seed, static_cast<uint32_t>(due.size()), zipf, hot,
                  kPairShare, kTopKShare);

  if (options.trace) {
    ProbeLayers(deployment->index(), requests, report);
    report.Set("index.build_s", Median(spans.Samples("index.build_s")));
    report.Set("index.load_s", Median(spans.Samples("index.load_s")));
    report.Set("index.resident_bytes",
               static_cast<double>(deployment->index().SizeBytes()));
    if (mode == Mode::kRouted) {
      report.Set("shard_split.write_s",
                 Median(spans.Samples("shard_split.write_s")));
    }
  }

  // First phase, on a second stream from the same seed: closed-loop
  // capacity, or for serve_write reads before any write.
  const std::vector<ReadRequest> first_requests = MakeReadMix(
      options.seed + 1, 50000, zipf, hot, kPairShare, kTopKShare);
  std::vector<std::pair<size_t, std::string>> closed_checks;
  LoopStats first;
  const double first_cpu_before = ProcessCpuSeconds();
  if (options.trace) {
    // The traced run measures layers on the open loop only.
  } else if (mode == Mode::kWrite) {
    first = RunOpenLoop(deployment->port(), first_requests,
                        OpenLoopSchedule(options.seed + 1, rate, first_seconds),
                        false, report);
    // Checked now: the writer is about to change every answer.
    VerifySamples(first_requests, first, deployment->reference(), report);
  } else {
    first = RunClosedLoop(deployment->port(), first_requests, first_seconds,
                          report, &closed_checks);
  }
  const double first_cpu_us = (ProcessCpuSeconds() - first_cpu_before) * 1e6;

  // Measured window: the open loop, beside the writer for serve_write.
  const uint32_t threads_before = ProcessThreadCount();
  const simrank::LruCacheStats cache_before = deployment->CacheStats();
  const double cpu_before = ProcessCpuSeconds();
  WriterStats writer;
  std::thread writer_thread;
  if (mode == Mode::kWrite) {
    const double deadline = NowSeconds() + open_seconds;
    writer_thread = std::thread([&] {
      writer = RunWriter(deployment->port(), options.seed, MakeGraph(),
                         deadline, report);
    });
  }
  const LoopStats open =
      RunOpenLoop(deployment->port(), requests, due, options.trace, report);
  if (writer_thread.joinable()) writer_thread.join();
  const double open_cpu_us = (ProcessCpuSeconds() - cpu_before) * 1e6;
  const simrank::LruCacheStats cache_after = deployment->CacheStats();
  const uint32_t threads_after = ProcessThreadCount();
  // Before verification, whose reference rows are not the server's.
  report.Set("peak_rss_mb", PeakRssMiB());

  // Every sampled answer against the reference engine.
  if (mode == Mode::kWrite) {
    CheckFinalWriteState(*deployment, writer, options.seed, report);
  } else {
    VerifySamples(requests, open, deployment->reference(), report);
    for (const auto& [r, body] : closed_checks) {
      if (!MatchesReference(first_requests[r], body,
                            deployment->reference())) {
        report.Mismatch(Target(first_requests[r]));
      }
    }
  }

  std::vector<double> all_us, kind_us[kNumReadKinds];
  for (size_t i = 0; i < open.samples.size(); ++i) {
    if (!open.samples[i].ok) continue;
    all_us.push_back(open.samples[i].latency_us);
    kind_us[static_cast<int>(requests[i].kind)].push_back(
        open.samples[i].latency_us);
  }
  if (options.trace) {
    FoldTraces(mode, open, report);
    const double hits = cache_after.hits - cache_before.hits;
    const double misses = cache_after.misses - cache_before.misses;
    report.Set("query_engine.cache_hit_frac",
               hits + misses > 0 ? hits / (hits + misses) : 0.0);
    report.Set("query_engine.cache_evictions",
               cache_after.evictions - cache_before.evictions);
    report.Set("server.rejected", deployment->Rejected());
    std::vector<double> late;
    for (const ReadSample& s : open.samples) late.push_back(s.late_us);
    report.Set("loadgen.late_p99_us", Summarize(late).p99);
    report.Set("loadgen.sent", open.sent);
    report.Set("loadgen.completed", open.completed);
    report.Set("loadgen.backlog_max", open.backlog_max);
    if (mode == Mode::kRouted) {
      report.Set("router.threads_before", threads_before);
      report.Set("router.threads_after", threads_after);
    }
    if (mode == Mode::kWrite) {
      const simrank::IndexUpdateStats stats = deployment->updater()->stats();
      report.Set("updater.wal_syncs", stats.wal_syncs);
      report.Set("updater.wal_bytes", stats.wal_bytes);
      report.Set("updater.overlay_bytes", stats.overlay_bytes);
      report.Set("updater.compactions", stats.compactions);
      report.Set("updater.compaction_ms",
                 stats.last_compaction_micros / 1000.0);
      report.Set("updater.compaction_pause_ms",
                 stats.last_compaction_pause_micros / 1000.0);
      ProbeUpdater(options, writer, report);
    }
  } else {
    std::vector<double> late;
    for (const ReadSample& s : open.samples) late.push_back(s.late_us);
    report.FigureSummary("loadgen_late", Summarize(late), "us");
    report.Figure("zipf_share_of_cached_rows", zipf.HeadMass(kCachedRows),
                  "frac", kCachedRows);
    report.FigureSummary("read", Summarize(all_us), "us");
    for (int k = 0; k < kNumReadKinds; ++k) {
      report.FigureSummary(ReadKindName(static_cast<ReadKind>(k)),
                           Summarize(kind_us[k]), "us");
    }
  }

  // CPU time per operation: main is the measured window per open-loop
  // read (per acknowledged batch for serve_write), side the first phase
  // per read.
  const double first_ops = std::max<uint64_t>(1, first.completed);
  if (mode == Mode::kWrite) {
    if (!options.trace) {
      report.FigureSummary("update", Summarize(writer.latency_us), "us");
      report.Figure("update_batches_per_s",
                    writer.batches.size() / writer.seconds, "1/s",
                    writer.batches.size());
      report.Figure("compactions", deployment->updater()->stats().compactions,
                    "count", writer.batches.size());
    }
    report.Set("main_cpu_us",
               open_cpu_us / std::max<size_t>(1, writer.batches.size()));
  } else {
    if (!options.trace) {
      report.Figure("read_capacity_qps", first.completed / first.seconds,
                    "1/s", first.completed);
    }
    report.Set("main_cpu_us",
               open_cpu_us / std::max<uint64_t>(1, open.completed));
  }
  report.Set("side_cpu_us", first_cpu_us / first_ops);
  report.Set("setup_s", Median(setup_s));
  deployment.reset();
  std::filesystem::remove_all(options.workdir);
}

}  // namespace perfbench
