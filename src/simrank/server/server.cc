#include "simrank/server/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "simrank/common/build_info.h"
#include "simrank/common/json_writer.h"
#include "simrank/common/memory_tracker.h"
#include "simrank/common/simd.h"
#include "simrank/common/string_util.h"
#include "simrank/graph/graph_io.h"
#include "simrank/index/segment_reader.h"

namespace simrank {
namespace {

/// Parsed arguments of one dispatchable query; only the fields of the
/// request's endpoint are meaningful. POST bodies travel raw and are
/// parsed in the worker, so a large batch never stalls the event loop.
struct QueryArgs {
  VertexId a = 0;
  VertexId b = 0;
  VertexId v = 0;
  uint32_t k = 10;
  /// Which /internal/* exchange op this dispatch carries (kNone for the
  /// public endpoints). Internal ops share the public endpoints'
  /// admission classes: walks/partial count against single_source, topk
  /// against topk, pair against pair.
  enum class Internal : uint8_t { kNone, kWalks, kPartial, kTopK, kPair };
  Internal internal = Internal::kNone;
  /// Overlay sequence the router pinned this exchange to (internal ops
  /// except walks): the shard answers 409 when its published sequence
  /// differs, so a scatter-gather never merges mixed-version slices.
  uint64_t seq = 0;
  std::string body;
};

/// HTTP status + body for a query or update that failed inside the engine
/// or updater. Parse errors are client errors here: the only parsed input
/// is the request body.
FrontendResponse EngineErrorResponse(const Status& status) {
  const int http_status =
      (status.code() == StatusCode::kOutOfRange ||
       status.code() == StatusCode::kInvalidArgument ||
       status.code() == StatusCode::kParseError)
          ? 400
          : (status.code() == StatusCode::kNotFound ? 404 : 500);
  return {http_status,
          ErrorBody(StatusCodeToString(status.code()), status.message())};
}

FrontendResponse ExecutePair(QueryEngine& engine,
                                        const QueryArgs& args) {
  auto score = engine.Pair(args.a, args.b);
  if (!score.ok()) return EngineErrorResponse(score.status());
  TraceScope serialize(TraceStage::kSerialize);
  JsonWriter json;
  json.BeginObject()
      .Key("a")
      .Uint(args.a)
      .Key("b")
      .Uint(args.b)
      .Key("score")
      .Double(*score)
      .EndObject();
  return {200, std::move(json).Take()};
}

FrontendResponse ExecuteSingleSource(QueryEngine& engine,
                                                const QueryArgs& args) {
  auto row = engine.SingleSourceSparse(args.v);
  if (!row.ok()) return EngineErrorResponse(row.status());
  const SparseRow& sparse = **row;
  TraceScope serialize(TraceStage::kSerialize);
  JsonWriter json;
  // 32: room for the {"v":…,"scores":…} envelope around the row.
  json.Reserve(32 + JsonSparseDoubleArrayBound(sparse.n, sparse.scores));
  json.BeginObject()
      .Key("v")
      .Uint(args.v)
      .Key("scores")
      .SparseDoubleArray(sparse.n, sparse.ids, sparse.scores)
      .EndObject();
  return {200, std::move(json).Take()};
}

FrontendResponse ExecuteTopK(QueryEngine& engine,
                                        const QueryArgs& args) {
  auto top = engine.TopK(args.v, args.k);
  if (!top.ok()) return EngineErrorResponse(top.status());
  TraceScope serialize(TraceStage::kSerialize);
  JsonWriter json;
  json.BeginObject()
      .Key("v")
      .Uint(args.v)
      .Key("k")
      .Uint(args.k)
      .Key("results")
      .BeginArray();
  for (const auto& scored : *top) {
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

}  // namespace

Result<std::vector<std::pair<VertexId, VertexId>>> ParsePairBatch(
    std::string_view body, uint32_t max_pairs) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  int line_no = 0;
  for (std::string_view line : StrSplit(body, '\n')) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = StrTrim(line);
    if (line.empty()) continue;
    const size_t space = line.find_first_of(" \t");
    uint64_t a = 0;
    uint64_t b = 0;
    if (space == std::string_view::npos ||
        !ParseUint64(StrTrim(line.substr(0, space)), &a) ||
        !ParseUint64(StrTrim(line.substr(space + 1)), &b) ||
        a > UINT32_MAX || b > UINT32_MAX) {
      return Status::InvalidArgument(
          StrFormat("line %d: expected two vertex ids per line", line_no));
    }
    if (pairs.size() >= max_pairs) {
      return Status::InvalidArgument(StrFormat(
          "batch exceeds the %u-pair limit; split it", max_pairs));
    }
    pairs.emplace_back(static_cast<VertexId>(a), static_cast<VertexId>(b));
  }
  if (pairs.empty()) {
    return Status::InvalidArgument("empty pair batch");
  }
  return pairs;
}

namespace {

FrontendResponse ExecuteBatchPair(QueryEngine& engine,
                                             const QueryArgs& args,
                                             const ServerOptions& options) {
  auto pairs = ParsePairBatch(args.body, options.max_batch_pairs);
  if (!pairs.ok()) return EngineErrorResponse(pairs.status());
  if (options.sharded) {
    // A shard answers only pairs it can answer exactly: both endpoints in
    // range (their walk rows are complete here). Anything else belongs to
    // the router.
    const ShardRange& range = options.shard_plan.shards[options.shard_id];
    for (const auto& [a, b] : *pairs) {
      if (!range.Contains(a) || !range.Contains(b)) {
        return {421,
                ErrorBody("Misdirected",
                          StrFormat("pair (%u, %u) is not fully inside this "
                                    "shard's vertex range [%u, %u); ask the "
                                    "router",
                                    a, b, range.begin, range.end))};
      }
    }
  }
  const auto answers = engine.BatchPair(*pairs);
  for (const auto& answer : answers) {
    if (!answer.ok()) return EngineErrorResponse(answer.status());
  }
  TraceScope serialize(TraceStage::kSerialize);
  JsonWriter json;
  json.BeginObject()
      .Key("count")
      .Uint(answers.size())
      .Key("scores")
      .BeginArray();
  for (const auto& answer : answers) json.Double(*answer);
  json.EndArray().EndObject();
  return {200, std::move(json).Take()};
}

FrontendResponse ExecuteUpdate(QueryEngine& engine,
                                          IndexUpdater& updater,
                                          const QueryArgs& args) {
  auto updates = ParseEdgeUpdates(args.body);
  if (!updates.ok()) return EngineErrorResponse(updates.status());
  const Status applied = updater.ApplyUpdates(*updates);
  if (!applied.ok()) return EngineErrorResponse(applied);
  // Stale rows are already unservable through their sequence stamp; this
  // frees them eagerly.
  engine.InvalidateCache();
  const IndexUpdateStats stats = updater.stats();
  JsonWriter json;
  json.BeginObject()
      .Key("applied")
      .Uint(updates->size())
      .Key("sequence")
      .Uint(stats.overlay_sequence)
      .Key("patched_vertices")
      .Uint(stats.patched_vertices)
      .Key("changed_slots")
      .Uint(stats.changed_slots)
      .Key("graph_fingerprint")
      .String(FormatFingerprint(stats.current_graph_fingerprint))
      .Key("wal_records")
      .Uint(stats.wal_records)
      .EndObject();
  return {200, std::move(json).Take()};
}

FrontendResponse ExecuteCompact(IndexUpdater& updater,
                                           const ServerOptions& options) {
  if (options.compact_path.empty() || options.compact_graph_path.empty()) {
    return {503, ErrorBody("Unavailable",
                           "no compaction target configured "
                           "(--compact-to / --compact-graph-to)")};
  }
  WalkIndex::SaveOptions save;
  save.compress = options.compact_compress;
  // The updated graph is persisted alongside the index before the WAL
  // reset — afterwards the WAL can no longer re-derive it from the
  // original --graph file, so a restart points --graph at the emitted
  // file.
  const Status status =
      updater.Compact(options.compact_path, save, /*reset_wal=*/true,
                      options.compact_graph_path);
  if (!status.ok()) return EngineErrorResponse(status);
  const IndexUpdateStats stats = updater.stats();
  JsonWriter json;
  json.BeginObject()
      .Key("path")
      .String(options.compact_path)
      .Key("graph_path")
      .String(options.compact_graph_path)
      .Key("sequence")
      .Uint(stats.overlay_sequence)
      .Key("graph_fingerprint")
      .String(FormatFingerprint(stats.current_graph_fingerprint))
      .EndObject();
  return {200, std::move(json).Take()};
}

/// A consistent view for one internal exchange: the overlay snapshot the
/// computation will use plus the sequence and graph fingerprint it
/// corresponds to. Fingerprint and snapshot are read from different
/// structures (updater stats vs. index slot), so the fingerprint is read
/// on both sides of the snapshot and re-taken on a mismatch — an update
/// landing mid-read yields a coherent (overlay, fingerprint) pair instead
/// of a torn one.
struct OverlayView {
  std::shared_ptr<const DeltaOverlay> overlay;
  uint64_t fingerprint = 0;
  uint64_t sequence = 0;
};

OverlayView SnapshotOverlay(const WalkIndex& index,
                            const IndexUpdater* updater) {
  OverlayView view;
  while (true) {
    const uint64_t before = updater != nullptr
                                ? updater->stats().current_graph_fingerprint
                                : index.graph_fingerprint();
    view.overlay = index.overlay_snapshot();
    const uint64_t after = updater != nullptr
                               ? updater->stats().current_graph_fingerprint
                               : index.graph_fingerprint();
    if (before == after) {
      view.fingerprint = after;
      break;
    }
  }
  view.sequence =
      view.overlay == nullptr ? 0 : view.overlay->sequence();
  return view;
}

std::vector<std::pair<std::string, std::string>> ExchangeHeaders(
    const OverlayView& view, const ServerOptions& options) {
  return {{"X-Graph-Fingerprint", FormatFingerprint(view.fingerprint)},
          {"X-Overlay-Sequence",
           StrFormat("%llu", static_cast<unsigned long long>(view.sequence))},
          {"X-Plan-Epoch",
           StrFormat("%llu", static_cast<unsigned long long>(
                                 options.shard_plan.epoch))}};
}

/// Appends one packed {u32 vertex, f64 score} exchange record.
void AppendScoreRecord(VertexId vertex, double score, std::string* out) {
  char record[kScoreRecordBytes];
  std::memcpy(record, &vertex, sizeof(uint32_t));
  std::memcpy(record + sizeof(uint32_t), &score, sizeof(double));
  out->append(record, sizeof(record));
}

/// The /internal/* exchange ops (shard role only). Bodies are binary —
/// native-endian walk rows in, native-endian {u32 vertex, f64 score}
/// records out — so the doubles that cross the wire are the exact bits
/// the estimators produced; the router's merge is then bitwise by
/// construction.
FrontendResponse ExecuteInternal(QueryEngine& engine,
                                 const IndexUpdater* updater,
                                 const ServerOptions& options,
                                 const QueryArgs& args) {
  const WalkIndex& index = engine.index();
  const ShardRange& range = options.shard_plan.shards[options.shard_id];
  const OverlayView view = SnapshotOverlay(index, updater);
  FrontendResponse out;
  out.headers = ExchangeHeaders(view, options);
  const uint32_t n = index.n();
  const size_t words =
      static_cast<size_t>(index.options().num_fingerprints) *
      (index.options().walk_length + 1);

  if (args.internal == QueryArgs::Internal::kWalks) {
    if (!range.Contains(args.v)) {
      out.status = 421;
      out.body = ErrorBody(
          "Misdirected",
          StrFormat("vertex %u is outside this shard's range [%u, %u)",
                    args.v, range.begin, range.end));
      return out;
    }
    const std::vector<uint32_t> row =
        index.MaterializeRow(args.v, view.overlay.get());
    out.status = 200;
    out.content_type = "application/octet-stream";
    out.body.assign(reinterpret_cast<const char*>(row.data()),
                    row.size() * sizeof(uint32_t));
    return out;
  }

  // The remaining ops compute against the sequence the router pinned; a
  // publish that raced the fan-out turns into a 409 the router retries.
  if (args.seq != view.sequence) {
    out.status = 409;
    out.body = ErrorBody(
        "Conflict",
        StrFormat("overlay sequence moved: request pinned %llu, serving "
                  "%llu; re-fetch the row and retry",
                  static_cast<unsigned long long>(args.seq),
                  static_cast<unsigned long long>(view.sequence)));
    return out;
  }
  if (args.body.size() != words * sizeof(uint32_t)) {
    out.status = 400;
    out.body = ErrorBody(
        "InvalidArgument",
        StrFormat("walk row body must be %zu bytes (R*(L+1) u32 words), "
                  "got %zu",
                  words * sizeof(uint32_t), args.body.size()));
    return out;
  }
  std::vector<uint32_t> row(words);
  std::memcpy(row.data(), args.body.data(), args.body.size());

  if (args.internal == QueryArgs::Internal::kPair) {
    if (!range.Contains(args.b)) {
      out.status = 421;
      out.body = ErrorBody(
          "Misdirected",
          StrFormat("vertex %u is outside this shard's range [%u, %u)",
                    args.b, range.begin, range.end));
      return out;
    }
    // row[0] is step 0 of fingerprint 0 — always the row's own vertex.
    const double score =
        row[0] == args.b
            ? 1.0
            : index.EstimatePairWithRow(row, args.b, view.overlay.get());
    out.status = 200;
    out.content_type = "application/octet-stream";
    out.body.assign(reinterpret_cast<const char*>(&score), sizeof(score));
    return out;
  }

  if (args.v >= n) {
    out.status = 400;
    out.body = ErrorBody(
        "OutOfRange",
        StrFormat("vertex %u out of range (index has %u vertices)", args.v,
                  n));
    return out;
  }
  if (row[0] != args.v) {
    out.status = 400;
    out.body = ErrorBody(
        "InvalidArgument",
        StrFormat("walk row belongs to vertex %u, not the queried %u",
                  row[0], args.v));
    return out;
  }
  const SparseRow sparse = index.EstimateSingleSourceSparseWithRow(
      args.v, row, view.overlay.get());
  out.status = 200;
  out.content_type = "application/octet-stream";
  if (args.internal == QueryArgs::Internal::kPartial) {
    // The nonzeros of this shard's slice, ascending by vertex; every
    // vertex the records skip scores 0.
    const auto first =
        std::lower_bound(sparse.ids.begin(), sparse.ids.end(), range.begin);
    const auto last =
        std::lower_bound(first, sparse.ids.end(), range.end);
    out.body.reserve(static_cast<size_t>(last - first) * kScoreRecordBytes);
    for (auto it = first; it != last; ++it) {
      AppendScoreRecord(*it, sparse.scores[it - sparse.ids.begin()],
                        &out.body);
    }
    return out;
  }

  // kTopK: this shard's top-k of its slice, in rank order.
  const std::vector<ScoredVertex> top = TopKFromSparseRange(
      sparse, range.begin, range.end, args.v, args.k);
  out.body.reserve(top.size() * kScoreRecordBytes);
  for (const ScoredVertex& scored : top) {
    AppendScoreRecord(scored.vertex, scored.score, &out.body);
  }
  return out;
}

/// Renders one /v1/wal poll: the primary side of WAL shipping. Text
/// framing over the same `+/- SRC DST` line format the update endpoint
/// accepts:
///   wal COUNT CURRENT_FINGERPRINT
///   record INDEX POST_FINGERPRINT NUM_UPDATES
///   + SRC DST            (NUM_UPDATES lines)
///   ...
///   end
std::string BuildWalStreamBody(const IndexUpdater& updater, uint64_t from) {
  const std::vector<WalRecord> records = updater.WalRecordsFrom(from);
  const IndexUpdateStats stats = updater.stats();
  std::string out = StrFormat(
      "wal %zu %s\n", records.size(),
      FormatFingerprint(stats.current_graph_fingerprint).c_str());
  for (size_t i = 0; i < records.size(); ++i) {
    const WalRecord& record = records[i];
    out += StrFormat(
        "record %llu %s %zu\n",
        static_cast<unsigned long long>(from + i),
        FormatFingerprint(record.post_graph_fingerprint).c_str(),
        record.updates.size());
    out += FormatEdgeUpdates(record.updates);
  }
  out += "end\n";
  return out;
}

}  // namespace

const char* ServerEndpointPath(ServerEndpoint endpoint) {
  switch (endpoint) {
    case ServerEndpoint::kPair:
      return "/v1/pair";
    case ServerEndpoint::kSingleSource:
      return "/v1/single_source";
    case ServerEndpoint::kTopK:
      return "/v1/topk";
    case ServerEndpoint::kBatchPair:
      return "/v1/batch_pair";
    case ServerEndpoint::kUpdate:
      return "/v1/update";
    case ServerEndpoint::kCompact:
      return "/v1/compact";
  }
  return "?";
}

const char* ServerEndpointName(ServerEndpoint endpoint) {
  switch (endpoint) {
    case ServerEndpoint::kPair:
      return "pair";
    case ServerEndpoint::kSingleSource:
      return "single_source";
    case ServerEndpoint::kTopK:
      return "topk";
    case ServerEndpoint::kBatchPair:
      return "batch_pair";
    case ServerEndpoint::kUpdate:
      return "update";
    case ServerEndpoint::kCompact:
      return "compact";
  }
  return "?";
}

const char* ServerEndpointMethod(ServerEndpoint endpoint) {
  return endpoint == ServerEndpoint::kBatchPair ||
                 endpoint == ServerEndpoint::kUpdate ||
                 endpoint == ServerEndpoint::kCompact
             ? "POST"
             : "GET";
}

std::vector<AdmissionClass> ServerEndpointClasses() {
  std::vector<AdmissionClass> classes;
  for (uint32_t i = 0; i < kNumServerEndpoints; ++i) {
    const auto endpoint = static_cast<ServerEndpoint>(i);
    classes.push_back(
        {ServerEndpointName(endpoint), ServerEndpointPath(endpoint)});
  }
  return classes;
}

Status ServerOptions::Validate() const {
  if (bind_address.empty()) {
    return Status::InvalidArgument("server bind address must not be empty");
  }
  if (threads > 4096) {
    return Status::InvalidArgument(
        StrFormat("--threads=%u is not a sane worker count", threads));
  }
  if (max_inflight == 0) {
    return Status::InvalidArgument(
        "--max-inflight must be positive: a zero cap rejects every query");
  }
  if (max_endpoint_inflight == 0) {
    return Status::InvalidArgument(
        "--endpoint-inflight must be positive: a zero cap rejects every "
        "query");
  }
  if (max_connections == 0) {
    return Status::InvalidArgument("max_connections must be positive");
  }
  if (max_batch_pairs == 0) {
    return Status::InvalidArgument(
        "max_batch_pairs must be positive: a zero cap rejects every batch");
  }
  if (!(trace_sample >= 0.0 && trace_sample <= 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "--trace-sample=%g is not a probability in [0, 1]", trace_sample));
  }
  if (slow_ring_capacity > 65536) {
    return Status::InvalidArgument(
        StrFormat("--slow-ring=%u would pin an unreasonable amount of "
                  "trace JSON in memory",
                  slow_ring_capacity));
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
  if (watchdog_interval_ms > 60000) {
    return Status::InvalidArgument(
        StrFormat("--watchdog-interval-ms=%u is longer than any plausible "
                  "stall",
                  watchdog_interval_ms));
  }
  if (watchdog_interval_ms > 0 && watchdog_stall_us == 0) {
    return Status::InvalidArgument(
        "--watchdog-stall-us must be positive when the watchdog is armed");
  }
  if (metrics_history_window_s > 0) {
    if (metrics_history_interval_ms == 0) {
      return Status::InvalidArgument(
          "--metrics-history-interval-ms must be positive");
    }
    const uint64_t points = static_cast<uint64_t>(metrics_history_window_s) *
                            1000 / metrics_history_interval_ms;
    if (points > 1u << 20) {
      return Status::InvalidArgument(
          StrFormat("metrics history of %llu points per series would pin an "
                    "unreasonable amount of memory",
                    static_cast<unsigned long long>(points)));
    }
  }
  if (debug_stall_limit_ms > 10000) {
    return Status::InvalidArgument(
        StrFormat("--debug-stall-limit-ms=%u would let a request freeze the "
                  "loop for over 10s",
                  debug_stall_limit_ms));
  }
  if (sharded) {
    OIPSIM_RETURN_IF_ERROR(shard_plan.Validate());
    if (shard_id >= shard_plan.shards.size()) {
      return Status::InvalidArgument(
          StrFormat("shard id %u is not in the plan (it declares %zu "
                    "shards)",
                    shard_id, shard_plan.shards.size()));
    }
  }
  return Status::OK();
}

namespace {

/// Parses the required uint32 parameter `name`, appending a 400-worthy
/// message to `error` when missing or malformed.
bool ParseVertexParam(const HttpRequest& request, const char* name,
                      uint32_t* out, std::string* error) {
  const std::string* raw = request.FindParam(name);
  if (raw == nullptr) {
    *error = StrFormat("missing required parameter '%s'", name);
    return false;
  }
  uint64_t value = 0;
  if (!ParseUint64(*raw, &value) || value > UINT32_MAX) {
    *error = StrFormat("parameter '%s' must be a vertex id, got '%s'", name,
                       raw->c_str());
    return false;
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

/// Parses the required uint64 parameter `name` (overlay sequences).
bool ParseSeqParam(const HttpRequest& request, const char* name,
                   uint64_t* out, std::string* error) {
  const std::string* raw = request.FindParam(name);
  if (raw == nullptr) {
    *error = StrFormat("missing required parameter '%s'", name);
    return false;
  }
  if (!ParseUint64(*raw, out)) {
    *error = StrFormat("parameter '%s' must be an unsigned integer, got "
                       "'%s'",
                       name, raw->c_str());
    return false;
  }
  return true;
}

bool IsWriteEndpoint(ServerEndpoint endpoint) {
  return endpoint == ServerEndpoint::kUpdate ||
         endpoint == ServerEndpoint::kCompact;
}

FrontendOptions FrontendOptionsFor(const ServerOptions& options) {
  FrontendOptions frontend;
  frontend.bind_address = options.bind_address;
  frontend.port = options.port;
  frontend.threads = options.threads;
  frontend.max_inflight = options.max_inflight;
  frontend.max_class_inflight = options.max_endpoint_inflight;
  frontend.max_connections = options.max_connections;
  frontend.retry_after_seconds = options.retry_after_seconds;
  frontend.handler_delay_ms = options.handler_delay_ms;
  frontend.http = options.http;
  frontend.trace_sample = options.trace_sample;
  frontend.slow_query_us = options.slow_query_us;
  frontend.slow_ring_capacity = options.slow_ring_capacity;
  frontend.trace_log_path = options.trace_log_path;
  frontend.access_log_path = options.access_log_path;
  frontend.profile_log_path = options.profile_log_path;
  frontend.profile_log_hz = options.profile_log_hz;
  frontend.profile_log_period_s = options.profile_log_period_s;
  frontend.watchdog_interval_ms = options.watchdog_interval_ms;
  frontend.watchdog_stall_us = options.watchdog_stall_us;
  frontend.metrics_history_window_s = options.metrics_history_window_s;
  frontend.metrics_history_interval_ms = options.metrics_history_interval_ms;
  return frontend;
}

}  // namespace

SimRankServer::SimRankServer(QueryEngine& engine,
                             const ServerOptions& options,
                             IndexUpdater* updater)
    : engine_(engine),
      options_(options),
      updater_(updater),
      frontend_(FrontendOptionsFor(options), ServerEndpointClasses(),
                [this] { return BuildMetricsBody(); }) {
  auto dispatched = [this](std::string path, const char* method,
                           ServerEndpoint endpoint) {
    FrontendRoute route;
    route.path = std::move(path);
    route.method = method;
    route.admission_class = static_cast<uint32_t>(endpoint);
    route.prepare = [this, endpoint](const HttpRequest& request,
                                     FrontendResponse* reject) {
      return Prepare(endpoint, request, reject);
    };
    frontend_.AddRoute(std::move(route));
  };
  for (uint32_t i = 0; i < kNumServerEndpoints; ++i) {
    const auto endpoint = static_cast<ServerEndpoint>(i);
    dispatched(ServerEndpointPath(endpoint), ServerEndpointMethod(endpoint),
               endpoint);
  }
  if (options_.sharded) {
    // The /internal/* exchange endpoints exist only in the shard role (a
    // standalone server 404s them like any unknown path). They ride the
    // admission classes of the work they stand in for: row fetch and
    // partial row under single_source, slice top-k under topk, one-sided
    // pair under pair.
    dispatched("/internal/walks", "GET", ServerEndpoint::kSingleSource);
    dispatched("/internal/partial", "POST", ServerEndpoint::kSingleSource);
    dispatched("/internal/topk", "POST", ServerEndpoint::kTopK);
    dispatched("/internal/pair", "POST", ServerEndpoint::kPair);
  }

  auto answered = [this](std::string path,
                         std::function<FrontendResponse(const HttpRequest&)>
                             answer) {
    FrontendRoute route;
    route.path = std::move(path);
    route.answer = std::move(answer);
    frontend_.AddRoute(std::move(route));
  };
  answered("/v1/stats", [this](const HttpRequest&) {
    stat_requests_stats_.fetch_add(1, std::memory_order_relaxed);
    return FrontendResponse{200, BuildStatsBody()};
  });
  answered("/metrics", [this](const HttpRequest&) {
    stat_requests_metrics_.fetch_add(1, std::memory_order_relaxed);
    return FrontendResponse{200, BuildMetricsBody(),
                            "text/plain; version=0.0.4"};
  });
  answered("/v1/debug/slow", [this](const HttpRequest&) {
    stat_requests_debug_slow_.fetch_add(1, std::memory_order_relaxed);
    return FrontendResponse{200, frontend_.BuildSlowBody()};
  });
  answered("/v1/wal", [this](const HttpRequest& request) {
    stat_requests_wal_.fetch_add(1, std::memory_order_relaxed);
    if (updater_ == nullptr) {
      return ErrorResponse(503, "Unavailable",
                           "this server keeps no WAL (started without "
                           "--graph/--wal); nothing to ship");
    }
    uint64_t from = 0;
    const std::string* raw = request.FindParam("from");
    if (raw != nullptr && !ParseUint64(*raw, &from)) {
      return ErrorResponse(400, "InvalidArgument",
                           "parameter 'from' must be a record index");
    }
    // Served inline: WalRecordsFrom copies under its own mutex and never
    // waits behind a patch, so a replica's poll cadence cannot be starved
    // by busy workers.
    return FrontendResponse{200, BuildWalStreamBody(*updater_, from),
                            "text/plain"};
  });
  if (options_.debug_stall_limit_ms > 0) {
    // Test-only: block the loop thread itself so watchdog stall detection
    // can be exercised deterministically.
    answered("/v1/debug/stall", [this](const HttpRequest& request) {
      uint64_t ms = options_.debug_stall_limit_ms;
      const std::string* raw_ms = request.FindParam("ms");
      if (raw_ms != nullptr && !ParseUint64(*raw_ms, &ms)) {
        return ErrorResponse(
            400, "InvalidArgument",
            "parameter 'ms' must be a duration in milliseconds");
      }
      ms = std::min<uint64_t>(ms, options_.debug_stall_limit_ms);
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      return FrontendResponse{
          200, StrFormat("{\"stalled_ms\":%llu}",
                         static_cast<unsigned long long>(ms))};
    });
  }
}

SimRankServer::~SimRankServer() = default;

Status SimRankServer::Bind() {
  OIPSIM_RETURN_IF_ERROR(options_.Validate());
  if (options_.sharded) {
    // The plan must be the one the served shard file was split under: same
    // vertex universe, same base graph. Serving a shard against the wrong
    // plan would silently cross-wire the cluster's answers.
    const WalkIndex& index = engine_.index();
    if (options_.shard_plan.n != index.n()) {
      return Status::InvalidArgument(
          StrFormat("shard plan partitions n=%u but the served index has "
                    "n=%u vertices",
                    options_.shard_plan.n, index.n()));
    }
    if (options_.shard_plan.graph_fingerprint !=
        index.graph_fingerprint()) {
      return Status::InvalidArgument(StrFormat(
          "shard plan is bound to graph %s but the served index was built "
          "from %s",
          FormatFingerprint(options_.shard_plan.graph_fingerprint).c_str(),
          FormatFingerprint(index.graph_fingerprint()).c_str()));
    }
  }
  return frontend_.Bind();
}

Status SimRankServer::Serve() { return frontend_.Serve(); }

void SimRankServer::Shutdown() { frontend_.Shutdown(); }

FrontendWork SimRankServer::Prepare(ServerEndpoint endpoint,
                                    const HttpRequest& request,
                                    FrontendResponse* reject) {
  const bool internal = StartsWith(request.path, "/internal/");
  if (!internal) {
    if (options_.replica && IsWriteEndpoint(endpoint)) {
      *reject = ErrorResponse(
          403, "Forbidden",
          "this server is a replica; it applies batches by tailing its "
          "primary's WAL, never by direct writes");
      return {};
    }
    if (options_.sharded && (endpoint == ServerEndpoint::kSingleSource ||
                             endpoint == ServerEndpoint::kTopK)) {
      const ShardRange& range =
          options_.shard_plan.shards[options_.shard_id];
      if (range.begin != 0 || range.end != engine_.index().n()) {
        *reject = ErrorResponse(
            421, "Misdirected",
            StrFormat("%s spans every shard; this shard serves only "
                      "[%u, %u) — ask the router",
                      request.path.c_str(), range.begin, range.end));
        return {};
      }
    }
    if (IsWriteEndpoint(endpoint) && updater_ == nullptr) {
      *reject = ErrorResponse(
          503, "Unavailable",
          "dynamic updates are disabled: the server was started without "
          "an update log (--graph/--wal)");
      return {};
    }
  }
  stat_requests_[static_cast<size_t>(endpoint)].fetch_add(
      1, std::memory_order_relaxed);

  QueryArgs args;
  std::string error;
  bool params_ok = false;
  if (internal) {
    if (request.path == "/internal/walks") {
      args.internal = QueryArgs::Internal::kWalks;
      params_ok = CheckAllowedParams(request, {"v"}, &error) &&
                  ParseVertexParam(request, "v", &args.v, &error);
    } else if (request.path == "/internal/partial") {
      args.internal = QueryArgs::Internal::kPartial;
      params_ok = CheckAllowedParams(request, {"v", "seq"}, &error) &&
                  ParseVertexParam(request, "v", &args.v, &error) &&
                  ParseSeqParam(request, "seq", &args.seq, &error);
    } else if (request.path == "/internal/topk") {
      args.internal = QueryArgs::Internal::kTopK;
      params_ok = CheckAllowedParams(request, {"v", "k", "seq"}, &error) &&
                  ParseVertexParam(request, "v", &args.v, &error) &&
                  ParseSeqParam(request, "seq", &args.seq, &error);
      if (params_ok && request.FindParam("k") != nullptr) {
        params_ok = ParseVertexParam(request, "k", &args.k, &error);
      }
    } else {
      args.internal = QueryArgs::Internal::kPair;
      params_ok = CheckAllowedParams(request, {"b", "seq"}, &error) &&
                  ParseVertexParam(request, "b", &args.b, &error) &&
                  ParseSeqParam(request, "seq", &args.seq, &error);
    }
    args.body = request.body;
  } else {
    switch (endpoint) {
      case ServerEndpoint::kPair:
        params_ok =
            CheckAllowedParams(request, {"a", "b", "trace"}, &error) &&
            ParseVertexParam(request, "a", &args.a, &error) &&
            ParseVertexParam(request, "b", &args.b, &error);
        break;
      case ServerEndpoint::kSingleSource:
        params_ok = CheckAllowedParams(request, {"v", "trace"}, &error) &&
                    ParseVertexParam(request, "v", &args.v, &error);
        break;
      case ServerEndpoint::kTopK:
        params_ok =
            CheckAllowedParams(request, {"v", "k", "trace"}, &error) &&
            ParseVertexParam(request, "v", &args.v, &error);
        if (params_ok && request.FindParam("k") != nullptr) {
          params_ok = ParseVertexParam(request, "k", &args.k, &error);
        }
        break;
      case ServerEndpoint::kBatchPair:
      case ServerEndpoint::kUpdate:
      case ServerEndpoint::kCompact:
        // Body endpoints take no query parameters beyond the trace
        // opt-in; the body itself is parsed in the worker.
        params_ok = CheckAllowedParams(request, {"trace"}, &error);
        args.body = request.body;
        break;
    }
  }
  if (!params_ok) {
    *reject = ErrorResponse(400, "InvalidArgument", error);
    return {};
  }
  if (options_.sharded && !internal && endpoint == ServerEndpoint::kPair) {
    // A shard's pair answer is exact only when both rows are local.
    const ShardRange& range =
        options_.shard_plan.shards[options_.shard_id];
    if (!range.Contains(args.a) || !range.Contains(args.b)) {
      *reject = ErrorResponse(
          421, "Misdirected",
          StrFormat("pair (%u, %u) is not fully inside this shard's vertex "
                    "range [%u, %u); ask the router",
                    args.a, args.b, range.begin, range.end));
      return {};
    }
  }
  return [this, endpoint, args = std::move(args)]() -> FrontendResponse {
    if (args.internal != QueryArgs::Internal::kNone) {
      return ExecuteInternal(engine_, updater_, options_, args);
    }
    switch (endpoint) {
      case ServerEndpoint::kPair:
        return ExecutePair(engine_, args);
      case ServerEndpoint::kSingleSource:
        return ExecuteSingleSource(engine_, args);
      case ServerEndpoint::kTopK:
        return ExecuteTopK(engine_, args);
      case ServerEndpoint::kBatchPair:
        return ExecuteBatchPair(engine_, args, options_);
      case ServerEndpoint::kUpdate:
        return ExecuteUpdate(engine_, *updater_, args);
      case ServerEndpoint::kCompact:
        return ExecuteCompact(*updater_, options_);
    }
    return ErrorResponse(500, "Internal", "unknown endpoint");
  };
}

Status SimRankServer::Warm(std::span<const VertexId> vertices) {
  const uint32_t n = engine_.index().n();
  for (const VertexId v : vertices) {
    if (v >= n) {
      return Status::OutOfRange(StrFormat(
          "warm vertex %u out of range (index has %u vertices)", v, n));
    }
  }
  // Page-cache first (one madvise sweep on mmap backends), then the row
  // cache: the SingleSource misses below fault warm pages, not cold disk.
  engine_.index().store().Prefetch(vertices);
  for (const VertexId v : vertices) {
    auto row = engine_.SingleSourceSparse(v);
    if (!row.ok()) return row.status();
  }
  return Status::OK();
}

ServerStats SimRankServer::stats() const {
  const FrontendStats frontend = frontend_.stats();
  ServerStats stats;
  for (uint32_t i = 0; i < kNumServerEndpoints; ++i) {
    stats.requests[i] = stat_requests_[i].load(std::memory_order_relaxed);
  }
  stats.requests_stats =
      stat_requests_stats_.load(std::memory_order_relaxed);
  stats.requests_healthz = frontend.healthz;
  stats.requests_metrics =
      stat_requests_metrics_.load(std::memory_order_relaxed);
  stats.requests_wal = stat_requests_wal_.load(std::memory_order_relaxed);
  stats.requests_debug_slow =
      stat_requests_debug_slow_.load(std::memory_order_relaxed);
  stats.requests_debug_profile = frontend.debug_profile;
  stats.requests_debug_timeseries = frontend.debug_timeseries;
  stats.traced_requests = frontend.traced_requests;
  stats.slow_captured = frontend_.slow_log().total_recorded();
  stats.responses_2xx = frontend.responses_2xx;
  stats.responses_4xx = frontend.responses_4xx;
  stats.responses_5xx = frontend.responses_5xx;
  stats.rejected_inflight = frontend.rejected_inflight;
  stats.rejected_endpoint = frontend.rejected_class;
  stats.rejected_misdirected = frontend.misdirected;
  stats.connections_accepted = frontend.connections_accepted;
  stats.connections_open = frontend.connections_open;
  stats.inflight = frontend.inflight;
  return stats;
}

std::string SimRankServer::BuildStatsBody() const {
  const ServerStats stats = this->stats();
  const QueryEngine::CacheStats cache = engine_.cache_stats();
  const WalkIndex& index = engine_.index();
  JsonWriter json;
  json.BeginObject();
  json.Key("server").BeginObject();
  json.Key("inflight").Uint(stats.inflight);
  json.Key("max_inflight").Uint(options_.max_inflight);
  json.Key("max_endpoint_inflight").Uint(options_.max_endpoint_inflight);
  json.Key("threads").Uint(frontend_.num_threads());
  json.Key("draining").Bool(frontend_.draining());
  json.Key("uptime_seconds").Double(UptimeSeconds());
  json.EndObject();
  // What exactly is running: resolved at build (version, compiler) and at
  // startup (SIMD tier, io_uring), so a fleet dashboard can spot a stale
  // or differently-capable node at a glance.
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
  {
    const Watchdog::Snapshot dog = frontend_.watchdog_snapshot();
    json.Key("watchdog").BeginObject();
    json.Key("armed").Bool(options_.watchdog_interval_ms > 0);
    json.Key("loop_lag_us").Uint(dog.loop_lag_us);
    json.Key("max_loop_lag_us").Uint(dog.max_loop_lag_us);
    json.Key("queue_depth").Uint(dog.queue_depth);
    json.Key("max_queue_depth").Uint(dog.max_queue_depth);
    json.Key("stalls").Uint(dog.stalls);
    json.Key("last_stall_us").Uint(dog.last_stall_us);
    const LatencyHistogram::Snapshot dispatch = frontend_.dispatch_latency();
    json.Key("dispatch_latency_us").BeginObject();
    json.Key("count").Uint(dispatch.count);
    json.Key("p50_us").Uint(dispatch.QuantileUpperMicros(0.5));
    json.Key("p99_us").Uint(dispatch.QuantileUpperMicros(0.99));
    json.EndObject();
    json.EndObject();
  }
  {
    ProcessMemoryStats memory;
    if (ReadProcessMemoryStats(&memory)) {
      json.Key("process_memory").BeginObject();
      json.Key("resident_bytes").Uint(memory.resident_bytes);
      json.Key("virtual_bytes").Uint(memory.virtual_bytes);
      json.Key("peak_resident_bytes").Uint(memory.peak_resident_bytes);
      json.Key("data_bytes").Uint(memory.data_bytes);
      json.EndObject();
    }
  }
  json.Key("requests").BeginObject();
  for (uint32_t i = 0; i < kNumServerEndpoints; ++i) {
    json.Key(ServerEndpointName(static_cast<ServerEndpoint>(i)))
        .Uint(stats.requests[i]);
  }
  json.Key("stats").Uint(stats.requests_stats);
  json.Key("healthz").Uint(stats.requests_healthz);
  json.Key("metrics").Uint(stats.requests_metrics);
  json.Key("wal").Uint(stats.requests_wal);
  json.Key("debug_slow").Uint(stats.requests_debug_slow);
  json.Key("debug_profile").Uint(stats.requests_debug_profile);
  json.Key("debug_timeseries").Uint(stats.requests_debug_timeseries);
  json.EndObject();
  json.Key("responses").BeginObject();
  json.Key("2xx").Uint(stats.responses_2xx);
  json.Key("4xx").Uint(stats.responses_4xx);
  json.Key("5xx").Uint(stats.responses_5xx);
  json.EndObject();
  json.Key("admission").BeginObject();
  json.Key("rejected_inflight").Uint(stats.rejected_inflight);
  json.Key("rejected_endpoint").Uint(stats.rejected_endpoint);
  json.Key("rejected_misdirected").Uint(stats.rejected_misdirected);
  json.EndObject();
  json.Key("connections").BeginObject();
  json.Key("accepted").Uint(stats.connections_accepted);
  json.Key("open").Uint(stats.connections_open);
  json.EndObject();
  json.Key("cache").BeginObject();
  json.Key("hits").Uint(cache.hits);
  json.Key("misses").Uint(cache.misses);
  json.Key("evictions").Uint(cache.evictions);
  json.Key("resident_bytes").Uint(cache.resident_bytes);
  json.EndObject();
  // Per-endpoint dispatch-to-completion latency: count/sum plus the fixed
  // log-spaced buckets (upper bounds in µs; last bucket +Inf) and
  // bucket-resolution quantile estimates.
  json.Key("latency_us").BeginObject();
  for (uint32_t i = 0; i < kNumServerEndpoints; ++i) {
    const LatencyHistogram::Snapshot snapshot = frontend_.class_latency(i);
    json.Key(ServerEndpointName(static_cast<ServerEndpoint>(i)))
        .BeginObject();
    json.Key("count").Uint(snapshot.count);
    json.Key("sum_us").Uint(snapshot.sum_micros);
    json.Key("p50_us").Uint(snapshot.QuantileUpperMicros(0.5));
    json.Key("p99_us").Uint(snapshot.QuantileUpperMicros(0.99));
    json.Key("buckets").BeginArray();
    for (uint32_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
      json.Uint(snapshot.buckets[b]);
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();
  // Tracing: per-stage latency and work counters, folded from traced
  // requests only (untraced requests contribute nothing here).
  json.Key("trace").BeginObject();
  json.Key("sample_rate").Double(options_.trace_sample);
  json.Key("slow_query_us").Uint(options_.slow_query_us);
  json.Key("traced_requests").Uint(stats.traced_requests);
  json.Key("slow_captured").Uint(stats.slow_captured);
  json.Key("slow_ring_capacity").Uint(frontend_.slow_log().capacity());
  json.Key("stages").BeginObject();
  for (uint32_t i = 0; i < kNumTraceStages; ++i) {
    const LatencyHistogram::Snapshot snapshot =
        frontend_.stage_latency(static_cast<TraceStage>(i));
    if (snapshot.count == 0) continue;  // only stages that actually ran
    json.Key(TraceStageName(static_cast<TraceStage>(i))).BeginObject();
    json.Key("count").Uint(snapshot.count);
    json.Key("sum_us").Uint(snapshot.sum_micros);
    json.Key("p50_us").Uint(snapshot.QuantileUpperMicros(0.5));
    json.Key("p99_us").Uint(snapshot.QuantileUpperMicros(0.99));
    json.EndObject();
  }
  json.EndObject();
  json.Key("counters").BeginObject();
  for (uint32_t c = 0; c < kNumTraceCounters; ++c) {
    json.Key(TraceCounterName(static_cast<TraceCounter>(c)))
        .Uint(frontend_.stage_counter(static_cast<TraceCounter>(c)));
  }
  json.EndObject();
  json.EndObject();
  if (updater_ != nullptr) {
    const IndexUpdateStats updates = updater_->stats();
    json.Key("updates").BeginObject();
    json.Key("batches_applied").Uint(updates.batches_applied);
    json.Key("batches_replayed").Uint(updates.batches_replayed);
    json.Key("edges_inserted").Uint(updates.edges_inserted);
    json.Key("edges_deleted").Uint(updates.edges_deleted);
    json.Key("walks_resimulated").Uint(updates.walks_resimulated);
    json.Key("walks_changed").Uint(updates.walks_changed);
    json.Key("overlay_sequence").Uint(updates.overlay_sequence);
    json.Key("patched_vertices").Uint(updates.patched_vertices);
    json.Key("patched_walks").Uint(updates.patched_walks);
    json.Key("changed_slots").Uint(updates.changed_slots);
    json.Key("delta_entries").Uint(updates.delta_entries);
    json.Key("overlay_bytes").Uint(updates.overlay_bytes);
    json.Key("graph_edges").Uint(updates.graph_edges);
    json.Key("graph_fingerprint")
        .String(FormatFingerprint(updates.current_graph_fingerprint));
    json.Key("wal_records").Uint(updates.wal_records);
    json.Key("wal_bytes").Uint(updates.wal_bytes);
    json.Key("wal_syncs").Uint(updates.wal_syncs);
    json.Key("wal_truncated_bytes").Uint(updates.wal_truncated_bytes);
    json.Key("compaction").BeginObject();
    json.Key("completed").Uint(updates.compactions);
    json.Key("auto_triggered").Uint(updates.auto_compactions);
    json.Key("auto_failures").Uint(updates.auto_compact_failures);
    json.Key("last_total_us").Uint(updates.last_compaction_micros);
    json.Key("last_pause_us").Uint(updates.last_compaction_pause_micros);
    json.Key("last_vertices_encoded")
        .Uint(updates.last_compaction_vertices_encoded);
    json.Key("last_slots_merged").Uint(updates.last_compaction_slots_merged);
    const LatencyHistogram::Snapshot compaction =
        updater_->compaction_histogram().snapshot();
    json.Key("p50_us").Uint(compaction.QuantileUpperMicros(0.5));
    json.Key("p99_us").Uint(compaction.QuantileUpperMicros(0.99));
    json.EndObject();
    json.EndObject();
  }
  if (options_.sharded || options_.replica) {
    json.Key("cluster").BeginObject();
    json.Key("role").String(options_.replica ? "replica" : "primary");
    if (options_.sharded) {
      const ShardRange& range =
          options_.shard_plan.shards[options_.shard_id];
      json.Key("shard_id").Uint(options_.shard_id);
      json.Key("vertex_begin").Uint(range.begin);
      json.Key("vertex_end").Uint(range.end);
      json.Key("plan_epoch").Uint(options_.shard_plan.epoch);
      json.Key("plan_shards").Uint(options_.shard_plan.shards.size());
    }
    json.Key("overlay_sequence").Uint(index.overlay_sequence());
    json.EndObject();
  }
  json.Key("index").BeginObject();
  json.Key("vertices").Uint(index.n());
  json.Key("fingerprints").Uint(index.options().num_fingerprints);
  json.Key("walk_length").Uint(index.options().walk_length);
  json.Key("damping").Double(index.options().damping);
  json.Key("seed").Uint(index.options().seed);
  json.Key("graph_fingerprint")
      .String(FormatFingerprint(index.graph_fingerprint()));
  json.Key("backend").String(index.store().backend_name());
  json.Key("simd").String(SimdLevelName(ActiveSimdLevel()));
  json.Key("io_uring").Bool(index.store().UsesIoUring());
  json.Key("resident_bytes").Uint(index.SizeBytes());
  json.EndObject();
  json.EndObject();
  return std::move(json).Take();
}

std::string SimRankServer::BuildMetricsBody() const {
  // Prometheus text exposition (v0.0.4) twinning /v1/stats: counters and
  // gauges line for line, histograms in the native bucket form.
  const ServerStats stats = this->stats();
  const QueryEngine::CacheStats cache = engine_.cache_stats();
  const WalkIndex& index = engine_.index();
  std::string out;
  auto counter = [&out](const char* name, const char* labels,
                        uint64_t value) {
    out += StrFormat("%s%s %llu\n", name, labels,
                     static_cast<unsigned long long>(value));
  };
  auto type = [&out](const char* name, const char* kind) {
    out += StrFormat("# TYPE %s %s\n", name, kind);
  };

  type("simrank_requests_total", "counter");
  for (uint32_t i = 0; i < kNumServerEndpoints; ++i) {
    counter("simrank_requests_total",
            StrFormat("{endpoint=\"%s\"}",
                      ServerEndpointName(static_cast<ServerEndpoint>(i)))
                .c_str(),
            stats.requests[i]);
  }
  counter("simrank_requests_total", "{endpoint=\"stats\"}",
          stats.requests_stats);
  counter("simrank_requests_total", "{endpoint=\"healthz\"}",
          stats.requests_healthz);
  counter("simrank_requests_total", "{endpoint=\"metrics\"}",
          stats.requests_metrics);
  counter("simrank_requests_total", "{endpoint=\"wal\"}",
          stats.requests_wal);
  counter("simrank_requests_total", "{endpoint=\"debug_slow\"}",
          stats.requests_debug_slow);
  counter("simrank_requests_total", "{endpoint=\"debug_profile\"}",
          stats.requests_debug_profile);
  counter("simrank_requests_total", "{endpoint=\"debug_timeseries\"}",
          stats.requests_debug_timeseries);

  type("simrank_responses_total", "counter");
  counter("simrank_responses_total", "{class=\"2xx\"}",
          stats.responses_2xx);
  counter("simrank_responses_total", "{class=\"4xx\"}",
          stats.responses_4xx);
  counter("simrank_responses_total", "{class=\"5xx\"}",
          stats.responses_5xx);

  type("simrank_rejected_total", "counter");
  counter("simrank_rejected_total", "{reason=\"inflight\"}",
          stats.rejected_inflight);
  counter("simrank_rejected_total", "{reason=\"endpoint\"}",
          stats.rejected_endpoint);
  counter("simrank_rejected_total", "{reason=\"misdirected\"}",
          stats.rejected_misdirected);

  type("simrank_connections_accepted_total", "counter");
  counter("simrank_connections_accepted_total", "",
          stats.connections_accepted);
  type("simrank_connections_open", "gauge");
  counter("simrank_connections_open", "", stats.connections_open);
  type("simrank_inflight", "gauge");
  counter("simrank_inflight", "", stats.inflight);

  const BuildInfo& build = GetBuildInfo();
  type("simrank_build_info", "gauge");
  out += StrFormat(
      "simrank_build_info{version=\"%s\",compiler=\"%s\",build_type=\"%s\","
      "simd=\"%s\",io_uring=\"%s\"} 1\n",
      build.git_describe, build.compiler, build.build_type,
      SimdLevelName(ActiveSimdLevel()),
      SegmentReader::IoUringEnabled() ? "true" : "false");
  type("simrank_uptime_seconds", "gauge");
  out += StrFormat("simrank_uptime_seconds %g\n", UptimeSeconds());

  const Watchdog::Snapshot dog = frontend_.watchdog_snapshot();
  type("simrank_loop_lag_seconds", "gauge");
  out += StrFormat("simrank_loop_lag_seconds %g\n",
                   static_cast<double>(dog.loop_lag_us) / 1e6);
  type("simrank_loop_lag_max_seconds", "gauge");
  out += StrFormat("simrank_loop_lag_max_seconds %g\n",
                   static_cast<double>(dog.max_loop_lag_us) / 1e6);
  type("simrank_loop_stalls_total", "counter");
  counter("simrank_loop_stalls_total", "", dog.stalls);
  type("simrank_queue_depth", "gauge");
  counter("simrank_queue_depth", "", dog.queue_depth);
  type("simrank_queue_depth_max", "gauge");
  counter("simrank_queue_depth_max", "", dog.max_queue_depth);

  // Dispatch-to-start latency: the queue wait workers actually observed.
  type("simrank_dispatch_latency_seconds", "histogram");
  {
    const LatencyHistogram::Snapshot snapshot = frontend_.dispatch_latency();
    uint64_t cumulative = 0;
    for (uint32_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
      cumulative += snapshot.buckets[b];
      if (b + 1 < LatencyHistogram::kNumBuckets) {
        out += StrFormat(
            "simrank_dispatch_latency_seconds_bucket{le=\"%g\"} %llu\n",
            static_cast<double>(LatencyHistogram::BucketUpperMicros(b)) /
                1e6,
            static_cast<unsigned long long>(cumulative));
      } else {
        out += StrFormat(
            "simrank_dispatch_latency_seconds_bucket{le=\"+Inf\"} %llu\n",
            static_cast<unsigned long long>(cumulative));
      }
    }
    out += StrFormat("simrank_dispatch_latency_seconds_sum %g\n",
                     static_cast<double>(snapshot.sum_micros) / 1e6);
    out += StrFormat("simrank_dispatch_latency_seconds_count %llu\n",
                     static_cast<unsigned long long>(snapshot.count));
  }

  ProcessMemoryStats memory;
  if (ReadProcessMemoryStats(&memory)) {
    type("simrank_resident_bytes", "gauge");
    counter("simrank_resident_bytes", "", memory.resident_bytes);
    type("simrank_virtual_bytes", "gauge");
    counter("simrank_virtual_bytes", "", memory.virtual_bytes);
    type("simrank_peak_resident_bytes", "gauge");
    counter("simrank_peak_resident_bytes", "", memory.peak_resident_bytes);
  }

  type("simrank_cache_hits_total", "counter");
  counter("simrank_cache_hits_total", "", cache.hits);
  type("simrank_cache_misses_total", "counter");
  counter("simrank_cache_misses_total", "", cache.misses);
  type("simrank_cache_evictions_total", "counter");
  counter("simrank_cache_evictions_total", "", cache.evictions);
  type("simrank_row_cache_bytes", "gauge");
  counter("simrank_row_cache_bytes", "", cache.resident_bytes);

  type("simrank_index_vertices", "gauge");
  counter("simrank_index_vertices", "", index.n());
  type("simrank_index_resident_bytes", "gauge");
  counter("simrank_index_resident_bytes", "", index.SizeBytes());
  type("simrank_index_info", "gauge");
  out += StrFormat("simrank_index_info{backend=\"%s\"} 1\n",
                   index.store().backend_name());
  type("simrank_overlay_sequence_current", "gauge");
  counter("simrank_overlay_sequence_current", "",
          index.overlay_sequence());

  if (options_.sharded || options_.replica) {
    type("simrank_shard_replica", "gauge");
    counter("simrank_shard_replica", "", options_.replica ? 1 : 0);
    if (options_.sharded) {
      const ShardRange& range =
          options_.shard_plan.shards[options_.shard_id];
      type("simrank_shard_id", "gauge");
      counter("simrank_shard_id", "", options_.shard_id);
      type("simrank_shard_plan_epoch", "gauge");
      counter("simrank_shard_plan_epoch", "", options_.shard_plan.epoch);
      type("simrank_shard_vertex_begin", "gauge");
      counter("simrank_shard_vertex_begin", "", range.begin);
      type("simrank_shard_vertex_end", "gauge");
      counter("simrank_shard_vertex_end", "", range.end);
    }
  }

  type("simrank_request_duration_seconds", "histogram");
  for (uint32_t i = 0; i < kNumServerEndpoints; ++i) {
    const char* name = ServerEndpointName(static_cast<ServerEndpoint>(i));
    const LatencyHistogram::Snapshot snapshot = frontend_.class_latency(i);
    uint64_t cumulative = 0;
    for (uint32_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
      cumulative += snapshot.buckets[b];
      if (b + 1 < LatencyHistogram::kNumBuckets) {
        out += StrFormat(
            "simrank_request_duration_seconds_bucket{endpoint=\"%s\","
            "le=\"%g\"} %llu\n",
            name,
            static_cast<double>(LatencyHistogram::BucketUpperMicros(b)) /
                1e6,
            static_cast<unsigned long long>(cumulative));
      } else {
        out += StrFormat(
            "simrank_request_duration_seconds_bucket{endpoint=\"%s\","
            "le=\"+Inf\"} %llu\n",
            name, static_cast<unsigned long long>(cumulative));
      }
    }
    out += StrFormat(
        "simrank_request_duration_seconds_sum{endpoint=\"%s\"} %g\n", name,
        static_cast<double>(snapshot.sum_micros) / 1e6);
    out += StrFormat(
        "simrank_request_duration_seconds_count{endpoint=\"%s\"} %llu\n",
        name, static_cast<unsigned long long>(snapshot.count));
  }

  type("simrank_traced_requests_total", "counter");
  counter("simrank_traced_requests_total", "", stats.traced_requests);
  type("simrank_slow_queries_total", "counter");
  counter("simrank_slow_queries_total", "", stats.slow_captured);

  // Per-stage latency folded from traced requests only; all stages are
  // emitted (zeroed when never hit) so scrapers see a stable family.
  type("simrank_stage_duration_seconds", "histogram");
  for (uint32_t i = 0; i < kNumTraceStages; ++i) {
    const char* name = TraceStageName(static_cast<TraceStage>(i));
    const LatencyHistogram::Snapshot snapshot =
        frontend_.stage_latency(static_cast<TraceStage>(i));
    uint64_t cumulative = 0;
    for (uint32_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
      cumulative += snapshot.buckets[b];
      if (b + 1 < LatencyHistogram::kNumBuckets) {
        out += StrFormat(
            "simrank_stage_duration_seconds_bucket{stage=\"%s\","
            "le=\"%g\"} %llu\n",
            name,
            static_cast<double>(LatencyHistogram::BucketUpperMicros(b)) /
                1e6,
            static_cast<unsigned long long>(cumulative));
      } else {
        out += StrFormat(
            "simrank_stage_duration_seconds_bucket{stage=\"%s\","
            "le=\"+Inf\"} %llu\n",
            name, static_cast<unsigned long long>(cumulative));
      }
    }
    out += StrFormat(
        "simrank_stage_duration_seconds_sum{stage=\"%s\"} %g\n", name,
        static_cast<double>(snapshot.sum_micros) / 1e6);
    out += StrFormat(
        "simrank_stage_duration_seconds_count{stage=\"%s\"} %llu\n", name,
        static_cast<unsigned long long>(snapshot.count));
  }

  type("simrank_stage_counter_total", "counter");
  for (uint32_t c = 0; c < kNumTraceCounters; ++c) {
    counter("simrank_stage_counter_total",
            StrFormat("{counter=\"%s\"}",
                      TraceCounterName(static_cast<TraceCounter>(c)))
                .c_str(),
            frontend_.stage_counter(static_cast<TraceCounter>(c)));
  }

  if (updater_ != nullptr) {
    const IndexUpdateStats updates = updater_->stats();
    type("simrank_update_batches_total", "counter");
    counter("simrank_update_batches_total", "", updates.batches_applied);
    type("simrank_update_edges_total", "counter");
    counter("simrank_update_edges_total", "{op=\"insert\"}",
            updates.edges_inserted);
    counter("simrank_update_edges_total", "{op=\"delete\"}",
            updates.edges_deleted);
    type("simrank_update_walks_resimulated_total", "counter");
    counter("simrank_update_walks_resimulated_total", "",
            updates.walks_resimulated);
    type("simrank_overlay_sequence", "gauge");
    counter("simrank_overlay_sequence", "", updates.overlay_sequence);
    type("simrank_overlay_patched_vertices", "gauge");
    counter("simrank_overlay_patched_vertices", "",
            updates.patched_vertices);
    type("simrank_overlay_delta_entries", "gauge");
    counter("simrank_overlay_delta_entries", "", updates.delta_entries);
    type("simrank_overlay_patches", "gauge");
    counter("simrank_overlay_patches", "", updates.patched_walks);
    type("simrank_overlay_bytes", "gauge");
    counter("simrank_overlay_bytes", "", updates.overlay_bytes);
    type("simrank_compactions_total", "counter");
    counter("simrank_compactions_total", "", updates.compactions);
    type("simrank_auto_compactions_total", "counter");
    counter("simrank_auto_compactions_total", "", updates.auto_compactions);
    type("simrank_auto_compact_failures_total", "counter");
    counter("simrank_auto_compact_failures_total", "",
            updates.auto_compact_failures);
    type("simrank_compaction_pause_seconds", "gauge");
    out += StrFormat(
        "simrank_compaction_pause_seconds %g\n",
        static_cast<double>(updates.last_compaction_pause_micros) / 1e6);
    type("simrank_compaction_vertices_encoded", "gauge");
    counter("simrank_compaction_vertices_encoded", "",
            updates.last_compaction_vertices_encoded);
    type("simrank_compaction_slots_merged", "gauge");
    counter("simrank_compaction_slots_merged", "",
            updates.last_compaction_slots_merged);
    // Durations of completed compactions (manual + auto), native buckets.
    type("simrank_compaction_duration_seconds", "histogram");
    {
      const LatencyHistogram::Snapshot snapshot =
          updater_->compaction_histogram().snapshot();
      uint64_t cumulative = 0;
      for (uint32_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
        cumulative += snapshot.buckets[b];
        if (b + 1 < LatencyHistogram::kNumBuckets) {
          out += StrFormat(
              "simrank_compaction_duration_seconds_bucket{le=\"%g\"} "
              "%llu\n",
              static_cast<double>(LatencyHistogram::BucketUpperMicros(b)) /
                  1e6,
              static_cast<unsigned long long>(cumulative));
        } else {
          out += StrFormat(
              "simrank_compaction_duration_seconds_bucket{le=\"+Inf\"} "
              "%llu\n",
              static_cast<unsigned long long>(cumulative));
        }
      }
      out += StrFormat("simrank_compaction_duration_seconds_sum %g\n",
                       static_cast<double>(snapshot.sum_micros) / 1e6);
      out += StrFormat(
          "simrank_compaction_duration_seconds_count %llu\n",
          static_cast<unsigned long long>(snapshot.count));
    }
    type("simrank_wal_records", "gauge");
    counter("simrank_wal_records", "", updates.wal_records);
    type("simrank_wal_bytes", "gauge");
    counter("simrank_wal_bytes", "", updates.wal_bytes);
    type("simrank_wal_syncs_total", "counter");
    counter("simrank_wal_syncs_total", "", updates.wal_syncs);
  }
  return out;
}

}  // namespace simrank
