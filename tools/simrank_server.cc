// simrank_server — HTTP serving frontend over a prebuilt walk index.
//
//   simrank_server serve --index=PATH [--mmap] [--port=8080]
//                        [--update-threads=T] [--overlay-budget=BYTES]
//                        [--auto-compact-fraction=F]
//                        [--bind=127.0.0.1] [--threads=T]
//                        [--max-inflight=N] [--endpoint-inflight=N]
//                        [--cache-shards=S] [--cache-capacity=C]
//                        [--warm=FILE]
//                        [--graph=PATH --wal=PATH]
//                        [--compact-to=PATH] [--compact-graph-to=PATH]
//                        [--no-sync-wal] [--no-uring]
//                        [--trace-sample=F] [--slow-query-us=N]
//                        [--slow-ring=N] [--trace-log=PATH]
//                        [--access-log=PATH] [--profile-log=PATH]
//                        [--profile-log-hz=HZ] [--profile-log-period=S]
//                        [--watchdog-interval-ms=MS]
//                        [--watchdog-stall-us=US]
//                        [--metrics-history=S]
//                        [--metrics-history-interval-ms=MS]
//                        [--debug-stall-limit-ms=MS]
//
// Serves GET /v1/pair, /v1/single_source, /v1/topk, POST /v1/batch_pair,
// /v1/stats, /metrics and /healthz (see src/simrank/server/server.h for
// the endpoint and admission-control semantics). --port=0 lets the kernel
// pick a free port; the bound address is printed on stderr once the
// listener is up. --warm names a file of vertex ids (whitespace separated,
// '#' comments) whose storage pages are prefetched and whose rows are
// cached before the first request.
//
// --graph + --wal enable the live-update endpoints POST /v1/update and
// POST /v1/compact: the graph file must be the one the index was built
// from (fingerprint-checked), the WAL is created or replayed at startup —
// after a crash the server comes back serving every acknowledged batch.
// /v1/compact rewrites --compact-to (default: the served index path, via
// an atomic rename — an mmap backend keeps serving the old inode) with
// the base file's segment encoding, persists the updated graph to
// --compact-graph-to (default: <compact-to>.graph.bin; restart with
// --graph pointing there), and resets the WAL. SIGINT/SIGTERM
// shut down gracefully: in-flight queries finish and flush before the
// process exits 0.
#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "simrank/cluster/shard_plan.h"
#include "simrank/cluster/wal_tailer.h"
#include "simrank/common/status.h"
#include "simrank/common/string_util.h"
#include "simrank/graph/graph_io.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/segment_reader.h"
#include "simrank/index/walk_index.h"
#include "simrank/index/walk_store.h"
#include "simrank/server/server.h"

namespace {

struct ServerCliOptions {
  std::string index_path;
  bool use_mmap = false;
  uint32_t cache_shards = 0;    // 0 = engine default
  uint32_t cache_capacity = 0;  // 0 = engine default
  std::string warm_path;
  std::string graph_path;
  std::string wal_path;
  bool sync_wal = true;
  bool group_commit = true;
  uint32_t group_commit_window_us = 0;  // 0 = updater default
  uint32_t update_threads = 1;          // 0 = hardware concurrency
  uint64_t overlay_budget = 0;          // 0 = unbounded
  double auto_compact_fraction = 0.0;   // 0 = heuristic off
  std::string shard_plan_path;
  /// Primary port to tail (replica mode); 0 = no tailing.
  uint32_t tail_from = 0;
  simrank::ServerOptions server;
};

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s serve --index=PATH [--mmap] [--port=8080]\n"
      "       [--bind=127.0.0.1] [--threads=T] [--max-inflight=N]\n"
      "       [--endpoint-inflight=N] [--cache-shards=S]\n"
      "       [--cache-capacity=C] [--warm=FILE]\n"
      "       [--graph=GRAPH --wal=WAL] [--compact-to=PATH]\n"
      "       [--compact-graph-to=PATH] [--no-sync-wal]\n"
      "       [--no-group-commit] [--group-commit-window-us=U]\n"
      "       [--update-threads=T] [--overlay-budget=BYTES]\n"
      "       [--auto-compact-fraction=F]\n"
      "       [--shard-plan=PLAN --shard-id=N] [--replica]\n"
      "       [--tail-from=PORT] [--no-uring]\n"
      "       [--trace-sample=F] [--slow-query-us=N] [--slow-ring=N]\n"
      "       [--trace-log=PATH] [--access-log=PATH]\n"
      "       [--profile-log=PATH] [--profile-log-hz=HZ]\n"
      "       [--profile-log-period=S] [--watchdog-interval-ms=MS]\n"
      "       [--watchdog-stall-us=US] [--metrics-history=S]\n"
      "       [--metrics-history-interval-ms=MS]\n"
      "       [--debug-stall-limit-ms=MS]\n"
      "\nServes GET /v1/pair?a=&b=, /v1/single_source?v=, /v1/topk?v=&k=,\n"
      "POST /v1/batch_pair, /v1/stats, /metrics and /healthz over the\n"
      "given walk index. --port=0 picks a free port. Requests beyond\n"
      "--max-inflight get 429, beyond the per-endpoint cap 503, both with\n"
      "Retry-After. --graph + --wal additionally enable POST /v1/update\n"
      "and /v1/compact (live edge updates with WAL durability).\n"
      "--update-threads parallelizes walk patching and compaction (0 =\n"
      "hardware concurrency; answers are identical for any value).\n"
      "--overlay-budget bounds the overlay's resident bytes and\n"
      "--auto-compact-fraction its patched-walk share of n*R; crossing\n"
      "either triggers a background compaction into the /v1/compact\n"
      "targets without blocking serving.\n"
      "--shard-plan + --shard-id serve one shard of a cluster: public\n"
      "queries outside the shard's vertex range answer 421 and the\n"
      "/internal/* exchange endpoints come up (see simrank_router).\n"
      "--replica rejects public writes with 403; --tail-from=PORT keeps a\n"
      "replica current by tailing that primary's /v1/wal stream.\n"
      "--no-uring disables the io_uring batched cold-read path (plain\n"
      "preadv/fadvise fallback); SIMRANK_NO_URING=1 does the same.\n"
      "Observability: any query accepts ?trace=1 (per-stage spans inline\n"
      "in the response) or an X-Simrank-Trace header (trace returned in\n"
      "the X-Simrank-Trace-Json response header; body unchanged).\n"
      "--trace-sample=F traces a random fraction of requests;\n"
      "--slow-query-us=N traces everything and captures queries slower\n"
      "than N us in a ring served at GET /v1/debug/slow (--slow-ring=N\n"
      "entries, default 64). --trace-log appends captured traces as\n"
      "JSONL; --access-log appends one JSONL line per request.\n"
      "Self-diagnosis: GET /v1/debug/profile?seconds=N returns a\n"
      "collapsed-stack CPU profile; --profile-log additionally records\n"
      "continuous background profiles as JSONL (--profile-log-hz,\n"
      "default 19, one record every --profile-log-period seconds,\n"
      "default 60). The event-loop watchdog samples loop lag and queue\n"
      "depth every --watchdog-interval-ms (default 100; 0 disables) and\n"
      "logs a stack-annotated warning past --watchdog-stall-us (default\n"
      "1s). --metrics-history=S keeps S seconds of every /metrics gauge\n"
      "(default 900, sampled every --metrics-history-interval-ms,\n"
      "default 1000) served at GET /v1/debug/timeseries.\n"
      "--debug-stall-limit-ms arms the GET /v1/debug/stall test hook\n"
      "(deliberately blocks the event loop; leave off in production).\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, ServerCliOptions* options) {
  if (argc < 2 || std::strcmp(argv[1], "serve") != 0) return false;
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value_of = [&arg](std::string_view prefix) {
      return std::string(arg.substr(prefix.size()));
    };
    uint64_t u = 0;
    if (simrank::StartsWith(arg, "--index=")) {
      options->index_path = value_of("--index=");
    } else if (arg == "--mmap") {
      options->use_mmap = true;
    } else if (simrank::StartsWith(arg, "--port=")) {
      if (!simrank::ParseUint64(value_of("--port="), &u) || u > 65535) {
        std::fprintf(stderr, "--port must be 0..65535\n");
        return false;
      }
      options->server.port = static_cast<uint16_t>(u);
    } else if (simrank::StartsWith(arg, "--bind=")) {
      options->server.bind_address = value_of("--bind=");
    } else if (simrank::StartsWith(arg, "--threads=")) {
      if (!simrank::ParseUint64(value_of("--threads="), &u)) return false;
      options->server.threads = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--max-inflight=")) {
      if (!simrank::ParseUint64(value_of("--max-inflight="), &u)) {
        return false;
      }
      options->server.max_inflight = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--endpoint-inflight=")) {
      if (!simrank::ParseUint64(value_of("--endpoint-inflight="), &u)) {
        return false;
      }
      options->server.max_endpoint_inflight = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--cache-shards=")) {
      if (!simrank::ParseUint64(value_of("--cache-shards="), &u)) {
        return false;
      }
      options->cache_shards = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--cache-capacity=")) {
      if (!simrank::ParseUint64(value_of("--cache-capacity="), &u)) {
        return false;
      }
      options->cache_capacity = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--warm=")) {
      options->warm_path = value_of("--warm=");
    } else if (simrank::StartsWith(arg, "--graph=")) {
      options->graph_path = value_of("--graph=");
    } else if (simrank::StartsWith(arg, "--wal=")) {
      options->wal_path = value_of("--wal=");
    } else if (simrank::StartsWith(arg, "--compact-to=")) {
      options->server.compact_path = value_of("--compact-to=");
    } else if (simrank::StartsWith(arg, "--compact-graph-to=")) {
      options->server.compact_graph_path = value_of("--compact-graph-to=");
    } else if (arg == "--no-uring") {
      simrank::SegmentReader::SetIoUringEnabled(false);
    } else if (arg == "--no-sync-wal") {
      options->sync_wal = false;
    } else if (arg == "--no-group-commit") {
      options->group_commit = false;
    } else if (simrank::StartsWith(arg, "--group-commit-window-us=")) {
      if (!simrank::ParseUint64(value_of("--group-commit-window-us="), &u)) {
        return false;
      }
      options->group_commit_window_us = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--update-threads=")) {
      if (!simrank::ParseUint64(value_of("--update-threads="), &u)) {
        return false;
      }
      options->update_threads = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--overlay-budget=")) {
      if (!simrank::ParseUint64(value_of("--overlay-budget="), &u) ||
          u == 0) {
        std::fprintf(stderr, "--overlay-budget must be positive bytes\n");
        return false;
      }
      options->overlay_budget = u;
    } else if (simrank::StartsWith(arg, "--auto-compact-fraction=")) {
      double fraction = 0.0;
      if (!simrank::ParseDouble(value_of("--auto-compact-fraction="),
                                &fraction) ||
          fraction <= 0.0 || fraction >= 1.0) {
        std::fprintf(stderr, "--auto-compact-fraction must be in (0, 1)\n");
        return false;
      }
      options->auto_compact_fraction = fraction;
    } else if (simrank::StartsWith(arg, "--shard-plan=")) {
      options->shard_plan_path = value_of("--shard-plan=");
    } else if (simrank::StartsWith(arg, "--shard-id=")) {
      if (!simrank::ParseUint64(value_of("--shard-id="), &u)) return false;
      options->server.shard_id = static_cast<uint32_t>(u);
    } else if (arg == "--replica") {
      options->server.replica = true;
    } else if (simrank::StartsWith(arg, "--trace-sample=")) {
      double fraction = 0.0;
      if (!simrank::ParseDouble(value_of("--trace-sample="), &fraction) ||
          fraction < 0.0 || fraction > 1.0) {
        std::fprintf(stderr, "--trace-sample must be in [0, 1]\n");
        return false;
      }
      options->server.trace_sample = fraction;
    } else if (simrank::StartsWith(arg, "--slow-query-us=")) {
      if (!simrank::ParseUint64(value_of("--slow-query-us="), &u)) {
        return false;
      }
      options->server.slow_query_us = u;
    } else if (simrank::StartsWith(arg, "--slow-ring=")) {
      if (!simrank::ParseUint64(value_of("--slow-ring="), &u) || u == 0 ||
          u > 65536) {
        std::fprintf(stderr, "--slow-ring must be 1..65536\n");
        return false;
      }
      options->server.slow_ring_capacity = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--trace-log=")) {
      options->server.trace_log_path = value_of("--trace-log=");
    } else if (simrank::StartsWith(arg, "--access-log=")) {
      options->server.access_log_path = value_of("--access-log=");
    } else if (simrank::StartsWith(arg, "--profile-log=")) {
      options->server.profile_log_path = value_of("--profile-log=");
    } else if (simrank::StartsWith(arg, "--profile-log-hz=")) {
      if (!simrank::ParseUint64(value_of("--profile-log-hz="), &u) ||
          u == 0 || u > 1000) {
        std::fprintf(stderr, "--profile-log-hz must be 1..1000\n");
        return false;
      }
      options->server.profile_log_hz = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--profile-log-period=")) {
      if (!simrank::ParseUint64(value_of("--profile-log-period="), &u) ||
          u == 0) {
        std::fprintf(stderr, "--profile-log-period must be positive\n");
        return false;
      }
      options->server.profile_log_period_s = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--watchdog-interval-ms=")) {
      if (!simrank::ParseUint64(value_of("--watchdog-interval-ms="), &u)) {
        return false;
      }
      options->server.watchdog_interval_ms = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--watchdog-stall-us=")) {
      if (!simrank::ParseUint64(value_of("--watchdog-stall-us="), &u) ||
          u == 0) {
        std::fprintf(stderr, "--watchdog-stall-us must be positive\n");
        return false;
      }
      options->server.watchdog_stall_us = u;
    } else if (simrank::StartsWith(arg, "--metrics-history=")) {
      if (!simrank::ParseUint64(value_of("--metrics-history="), &u)) {
        return false;
      }
      options->server.metrics_history_window_s = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg,
                                   "--metrics-history-interval-ms=")) {
      if (!simrank::ParseUint64(value_of("--metrics-history-interval-ms="),
                                &u) ||
          u == 0) {
        std::fprintf(stderr,
                     "--metrics-history-interval-ms must be positive\n");
        return false;
      }
      options->server.metrics_history_interval_ms =
          static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--debug-stall-limit-ms=")) {
      if (!simrank::ParseUint64(value_of("--debug-stall-limit-ms="), &u)) {
        return false;
      }
      options->server.debug_stall_limit_ms = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--tail-from=")) {
      if (!simrank::ParseUint64(value_of("--tail-from="), &u) || u == 0 ||
          u > 65535) {
        std::fprintf(stderr, "--tail-from must be 1..65535\n");
        return false;
      }
      options->tail_from = static_cast<uint32_t>(u);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  if (options->index_path.empty()) {
    std::fprintf(stderr, "serve requires --index=PATH\n");
    return false;
  }
  if (options->wal_path.empty() != options->graph_path.empty()) {
    std::fprintf(stderr,
                 "--graph and --wal enable live updates together: the "
                 "updater needs the base graph to re-simulate walks and "
                 "the WAL to make batches durable\n");
    return false;
  }
  if (options->wal_path.empty() &&
      (!options->server.compact_path.empty() ||
       !options->server.compact_graph_path.empty() || !options->sync_wal)) {
    std::fprintf(stderr,
                 "--compact-to/--compact-graph-to/--no-sync-wal require "
                 "--graph and --wal\n");
    return false;
  }
  if (options->wal_path.empty() &&
      (options->overlay_budget != 0 ||
       options->auto_compact_fraction != 0.0 ||
       options->update_threads != 1)) {
    std::fprintf(stderr,
                 "--overlay-budget/--auto-compact-fraction/--update-threads "
                 "require --graph and --wal\n");
    return false;
  }
  if (options->shard_plan_path.empty() && options->server.shard_id != 0) {
    std::fprintf(stderr, "--shard-id requires --shard-plan\n");
    return false;
  }
  if (options->tail_from != 0 && options->wal_path.empty()) {
    std::fprintf(stderr,
                 "--tail-from requires --graph and --wal: the replica "
                 "re-simulates shipped batches and logs them to its own "
                 "WAL\n");
    return false;
  }
  if (options->tail_from != 0 && !options->server.replica) {
    std::fprintf(stderr,
                 "--tail-from requires --replica: a server accepting both "
                 "public updates and a shipped WAL would fork its graph\n");
    return false;
  }
  return true;
}

/// Engine options from the CLI flags, validated through Status like the
/// query subcommand's.
simrank::Result<simrank::QueryEngineOptions> MakeEngineOptions(
    const ServerCliOptions& options) {
  simrank::QueryEngineOptions engine_options;
  engine_options.num_threads = 1;  // batch APIs unused; the server pools
  if (options.cache_shards > 0) {
    engine_options.cache_shards = options.cache_shards;
  }
  if (options.cache_capacity > 0) {
    engine_options.cache_capacity_per_shard = options.cache_capacity;
  }
  if (!engine_options.Valid()) {
    return simrank::Status::InvalidArgument(
        "--cache-shards and --cache-capacity must be positive");
  }
  return engine_options;
}

/// Reads a warm list: vertex ids separated by whitespace, '#' starts a
/// comment running to end of line.
simrank::Result<std::vector<simrank::VertexId>> ReadWarmList(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return simrank::Status::IoError("cannot open warm list: " + path);
  }
  std::string content;
  char chunk[4096];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    content.append(chunk, got);
  }
  std::fclose(f);
  std::vector<simrank::VertexId> vertices;
  for (std::string_view line : simrank::StrSplit(content, '\n')) {
    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    size_t at = 0;
    while (at < line.size()) {
      while (at < line.size() &&
             std::isspace(static_cast<unsigned char>(line[at]))) {
        ++at;
      }
      size_t end = at;
      while (end < line.size() &&
             !std::isspace(static_cast<unsigned char>(line[end]))) {
        ++end;
      }
      if (end == at) break;
      const std::string_view token = line.substr(at, end - at);
      at = end;
      uint64_t value = 0;
      if (!simrank::ParseUint64(token, &value) || value > UINT32_MAX) {
        return simrank::Status::InvalidArgument(
            simrank::StrFormat("warm list %s: '%s' is not a vertex id",
                               path.c_str(), std::string(token).c_str()));
      }
      vertices.push_back(static_cast<simrank::VertexId>(value));
    }
  }
  return vertices;
}

simrank::SimRankServer* g_server = nullptr;

void HandleSignal(int) {
  // Shutdown is async-signal-safe: an atomic store plus an eventfd write.
  if (g_server != nullptr) g_server->Shutdown();
}

int RealMain(int argc, char** argv) {
  ServerCliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage(argv[0]);
    return 2;
  }

  simrank::WalkIndex::LoadOptions load_options;
  load_options.use_mmap = options.use_mmap;
  auto index = simrank::WalkIndex::Load(options.index_path, load_options);
  if (!index.ok()) {
    std::fprintf(stderr, "cannot load index: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }

  auto engine_options = MakeEngineOptions(options);
  if (!engine_options.ok()) {
    std::fprintf(stderr, "%s\n",
                 engine_options.status().ToString().c_str());
    return 2;
  }
  simrank::QueryEngine engine(*index, *engine_options);

  if (!options.shard_plan_path.empty()) {
    auto plan = simrank::ShardPlan::LoadFile(options.shard_plan_path);
    if (!plan.ok()) {
      std::fprintf(stderr, "cannot load shard plan: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    if (options.server.shard_id >= plan->shards.size()) {
      std::fprintf(stderr, "--shard-id=%u but the plan has %zu shards\n",
                   options.server.shard_id, plan->shards.size());
      return 2;
    }
    options.server.sharded = true;
    options.server.shard_plan = std::move(*plan);
  }

  std::unique_ptr<simrank::IndexUpdater> updater;
  if (!options.wal_path.empty()) {
    auto graph = simrank::ReadGraphAuto(options.graph_path);
    if (!graph.ok()) {
      std::fprintf(stderr, "cannot load graph: %s\n",
                   graph.status().ToString().c_str());
      return 1;
    }
    if (options.server.compact_path.empty()) {
      options.server.compact_path = options.index_path;
    }
    if (options.server.compact_graph_path.empty()) {
      options.server.compact_graph_path =
          options.server.compact_path + ".graph.bin";
    }
    // Compacted files keep the served file's segment encoding, so a
    // compact-then-restart cycle stays byte-reproducible. A probe failure
    // here is fatal: silently defaulting to raw would flip a compressed
    // index's encoding on the next compaction.
    auto info = simrank::ReadWalkIndexInfo(options.index_path);
    if (!info.ok()) {
      std::fprintf(stderr, "cannot probe index encoding: %s\n",
                   info.status().ToString().c_str());
      return 1;
    }
    options.server.compact_compress = info->compressed;
    simrank::IndexUpdaterOptions updater_options;
    updater_options.wal_path = options.wal_path;
    updater_options.sync_wal = options.sync_wal;
    updater_options.group_commit = options.group_commit;
    if (options.group_commit_window_us > 0) {
      updater_options.group_commit_window_us =
          options.group_commit_window_us;
    }
    updater_options.num_threads = options.update_threads;
    if (options.overlay_budget != 0 ||
        options.auto_compact_fraction != 0.0) {
      // Auto-compaction reuses the manual /v1/compact targets (the
      // defaults above already point them at the served index), keeps
      // its segment encoding, and — because the graph is persisted too —
      // resets the WAL to the compacted state.
      updater_options.overlay_budget_bytes = options.overlay_budget;
      updater_options.auto_compact_patched_fraction =
          options.auto_compact_fraction;
      updater_options.auto_compact_path = options.server.compact_path;
      updater_options.auto_compact_compress =
          options.server.compact_compress;
      updater_options.auto_compact_graph_path =
          options.server.compact_graph_path;
    }
    if (options.server.sharded) {
      // A shard's index stores out-of-range vertices as dead rows; the
      // range filter keeps the updater from re-simulating (and thereby
      // reviving) walks this shard does not own.
      const simrank::ShardRange& range =
          options.server.shard_plan.shards[options.server.shard_id];
      updater_options.vertex_begin = range.begin;
      updater_options.vertex_end = range.end;
    }
    auto opened = simrank::IndexUpdater::Open(*index, std::move(*graph),
                                              updater_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open updater: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    updater = std::move(*opened);
    const simrank::IndexUpdateStats stats = updater->stats();
    std::fprintf(stderr,
                 "update log %s: %llu batch(es) replayed, overlay "
                 "sequence %llu%s\n",
                 options.wal_path.c_str(),
                 static_cast<unsigned long long>(stats.batches_replayed),
                 static_cast<unsigned long long>(stats.overlay_sequence),
                 stats.wal_truncated_bytes > 0 ? " (torn tail dropped)"
                                               : "");
  }
  simrank::SimRankServer server(engine, options.server, updater.get());

  auto status = server.Bind();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  if (!options.warm_path.empty()) {
    auto warm = ReadWarmList(options.warm_path);
    if (!warm.ok()) {
      std::fprintf(stderr, "%s\n", warm.status().ToString().c_str());
      return 1;
    }
    auto warmed = server.Warm(*warm);
    if (!warmed.ok()) {
      std::fprintf(stderr, "warmup failed: %s\n",
                   warmed.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "warmed %zu vertices from %s\n", warm->size(),
                 options.warm_path.c_str());
  }

  std::unique_ptr<simrank::WalTailer> tailer;
  if (options.tail_from != 0) {
    simrank::WalTailerOptions tailer_options;
    tailer_options.source_port = static_cast<uint16_t>(options.tail_from);
    tailer = std::make_unique<simrank::WalTailer>(engine, *updater,
                                                  tailer_options);
    auto started = tailer->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "cannot start WAL tailer: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "tailing WAL of 127.0.0.1:%u\n", options.tail_from);
  }

  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::fprintf(stderr,
               "simrank_server: index %s (n=%u, R=%u, L=%u, %s backend), "
               "listening on %s:%u\n",
               options.index_path.c_str(), index->n(),
               index->options().num_fingerprints,
               index->options().walk_length,
               index->store().backend_name(),
               options.server.bind_address.c_str(), server.port());

  status = server.Serve();
  g_server = nullptr;
  if (tailer != nullptr) {
    tailer->Stop();
    const simrank::WalTailerStats tail_stats = tailer->stats();
    if (tail_stats.halted) {
      std::fprintf(stderr, "WAL tailer halted: %s\n",
                   tail_stats.last_error.c_str());
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "server failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const simrank::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "simrank_server: shut down cleanly (%llu requests served, "
               "%llu rejected)\n",
               static_cast<unsigned long long>(
                   stats.responses_2xx + stats.responses_4xx +
                   stats.responses_5xx),
               static_cast<unsigned long long>(stats.rejected_inflight +
                                               stats.rejected_endpoint));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
