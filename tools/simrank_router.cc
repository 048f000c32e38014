// simrank_router — scatter-gather frontend for a sharded SimRank cluster.
//
//   simrank_router --plan=PLAN --shard 0=PORT[,REPLICA] --shard 1=...
//                  [--port=8080] [--bind=127.0.0.1] [--timeout-ms=2000]
//                  [--retries=1] [--retry-after=1] [--max-batch-pairs=N]
//                  [--scrape-interval-ms=1000] [--scrape-timeout-ms=500]
//                  [--metrics-history=S] [--profile-log=PATH]
//                  [--profile-log-hz=HZ] [--profile-log-period=S]
//
// Speaks the same public /v1/* dialect as a single-node simrank_server —
// /v1/pair, /v1/single_source, /v1/topk, /v1/batch_pair, /v1/update,
// /v1/stats, /metrics, /healthz — and answers bitwise-identically to one,
// fanning queries to the shard servers listed with --shard (each serving
// one range of the plan via simrank_server --shard-plan/--shard-id).
// Reads fail over to a shard's replica when the primary is unreachable;
// updates are broadcast to every primary with per-shard WAL durability
// before the router acks. Clients are served by the same epoll frontend
// as simrank_server — one loop thread, a fixed worker pool that blocks on
// shard I/O, and admission caps answering 429/503 beyond them — so no
// connection or request costs the router a thread. See
// src/simrank/cluster/router.h for the merge-exactness and consistency
// story. Linux-only.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "simrank/cluster/router.h"
#include "simrank/cluster/shard_plan.h"
#include "simrank/common/string_util.h"

namespace {

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --plan=PLAN --shard 0=PORT[,REPLICA] [--shard 1=...]\n"
      "       [--port=8080] [--bind=127.0.0.1] [--timeout-ms=2000]\n"
      "       [--retries=1] [--retry-after=1] [--max-batch-pairs=N]\n"
      "       [--scrape-interval-ms=1000] [--scrape-timeout-ms=500]\n"
      "       [--metrics-history=S] [--profile-log=PATH]\n"
      "       [--profile-log-hz=HZ] [--profile-log-period=S]\n"
      "\nRoutes /v1/pair, /v1/single_source, /v1/topk, /v1/batch_pair and\n"
      "/v1/update across the shard servers of PLAN, answering bitwise-\n"
      "identically to a single-node simrank_server over the full index.\n"
      "Each --shard names a shard id and its primary port, optionally\n"
      "followed by a comma and a replica port reads fail over to.\n"
      "The router scrapes every target's /metrics each\n"
      "--scrape-interval-ms (0 disables), serves the fleet roll-up at\n"
      "GET /v1/cluster/health, and re-exports every shard sample with\n"
      "shard/role labels from its own /metrics. --metrics-history=S\n"
      "keeps S seconds of aggregated gauges at GET /v1/debug/timeseries\n"
      "(default 900; 0 disables); GET /v1/debug/profile?seconds=N\n"
      "profiles the router itself, and --profile-log records continuous\n"
      "background profiles as JSONL.\n",
      argv0);
}

/// Parses one "--shard ID=PRIMARY[,REPLICA]" value (the part after the
/// space or '=').
bool ParseShardSpec(std::string_view spec, simrank::RouterShard* out) {
  const size_t eq = spec.find('=');
  if (eq == std::string_view::npos) return false;
  uint64_t shard_id = 0;
  if (!simrank::ParseUint64(spec.substr(0, eq), &shard_id)) return false;
  std::string_view ports = spec.substr(eq + 1);
  const size_t comma = ports.find(',');
  uint64_t primary = 0;
  uint64_t replica = 0;
  if (!simrank::ParseUint64(ports.substr(0, comma), &primary) ||
      primary == 0 || primary > 65535) {
    return false;
  }
  if (comma != std::string_view::npos) {
    if (!simrank::ParseUint64(ports.substr(comma + 1), &replica) ||
        replica == 0 || replica > 65535) {
      return false;
    }
  }
  out->shard_id = static_cast<uint32_t>(shard_id);
  out->primary_port = static_cast<uint16_t>(primary);
  out->replica_port = static_cast<uint16_t>(replica);
  return true;
}

simrank::SimRankRouter* g_router = nullptr;

void HandleSignal(int) {
  // RequestStop is async-signal-safe (atomic store + eventfd write); the
  // main thread's pause() returns and runs the full join.
  if (g_router != nullptr) g_router->RequestStop();
}

int RealMain(int argc, char** argv) {
  simrank::RouterOptions options;
  std::string plan_path;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value_of = [&arg](std::string_view prefix) {
      return std::string(arg.substr(prefix.size()));
    };
    uint64_t u = 0;
    if (simrank::StartsWith(arg, "--plan=")) {
      plan_path = value_of("--plan=");
    } else if (arg == "--shard" && i + 1 < argc) {
      simrank::RouterShard shard;
      if (!ParseShardSpec(argv[++i], &shard)) {
        std::fprintf(stderr, "malformed --shard spec: %s\n", argv[i]);
        return 2;
      }
      options.shards.push_back(shard);
    } else if (simrank::StartsWith(arg, "--shard=")) {
      simrank::RouterShard shard;
      if (!ParseShardSpec(value_of("--shard="), &shard)) {
        std::fprintf(stderr, "malformed --shard spec: %s\n", argv[i]);
        return 2;
      }
      options.shards.push_back(shard);
    } else if (simrank::StartsWith(arg, "--port=")) {
      if (!simrank::ParseUint64(value_of("--port="), &u) || u > 65535) {
        std::fprintf(stderr, "--port must be 0..65535\n");
        return 2;
      }
      options.port = static_cast<uint16_t>(u);
    } else if (simrank::StartsWith(arg, "--bind=")) {
      options.bind_address = value_of("--bind=");
    } else if (simrank::StartsWith(arg, "--timeout-ms=")) {
      if (!simrank::ParseUint64(value_of("--timeout-ms="), &u) || u == 0) {
        std::fprintf(stderr, "--timeout-ms must be positive\n");
        return 2;
      }
      options.timeout_ms = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--retries=")) {
      if (!simrank::ParseUint64(value_of("--retries="), &u)) return 2;
      options.retries = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--retry-after=")) {
      if (!simrank::ParseUint64(value_of("--retry-after="), &u)) return 2;
      options.retry_after_seconds = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--max-batch-pairs=")) {
      if (!simrank::ParseUint64(value_of("--max-batch-pairs="), &u) ||
          u == 0) {
        return 2;
      }
      options.max_batch_pairs = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--scrape-interval-ms=")) {
      if (!simrank::ParseUint64(value_of("--scrape-interval-ms="), &u)) {
        return 2;
      }
      options.scrape_interval_ms = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--scrape-timeout-ms=")) {
      if (!simrank::ParseUint64(value_of("--scrape-timeout-ms="), &u) ||
          u == 0) {
        std::fprintf(stderr, "--scrape-timeout-ms must be positive\n");
        return 2;
      }
      options.scrape_timeout_ms = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--metrics-history=")) {
      if (!simrank::ParseUint64(value_of("--metrics-history="), &u)) {
        return 2;
      }
      options.metrics_history_window_s = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--profile-log=")) {
      options.profile_log_path = value_of("--profile-log=");
    } else if (simrank::StartsWith(arg, "--profile-log-hz=")) {
      if (!simrank::ParseUint64(value_of("--profile-log-hz="), &u) ||
          u == 0 || u > 1000) {
        std::fprintf(stderr, "--profile-log-hz must be 1..1000\n");
        return 2;
      }
      options.profile_log_hz = static_cast<uint32_t>(u);
    } else if (simrank::StartsWith(arg, "--profile-log-period=")) {
      if (!simrank::ParseUint64(value_of("--profile-log-period="), &u) ||
          u == 0) {
        std::fprintf(stderr, "--profile-log-period must be positive\n");
        return 2;
      }
      options.profile_log_period_s = static_cast<uint32_t>(u);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      PrintUsage(argv[0]);
      return 2;
    }
  }
  if (plan_path.empty() || options.shards.empty()) {
    PrintUsage(argv[0]);
    return 2;
  }
  auto plan = simrank::ShardPlan::LoadFile(plan_path);
  if (!plan.ok()) {
    std::fprintf(stderr, "cannot load shard plan: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  options.plan = std::move(*plan);

  simrank::SimRankRouter router(std::move(options));
  auto status = router.Bind();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot start router: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  status = router.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot start router: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  g_router = &router;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::fprintf(
      stderr,
      "simrank_router: plan %s (epoch %llu, n=%u, %zu shards), listening "
      "on %s:%u\n",
      plan_path.c_str(),
      static_cast<unsigned long long>(router.options().plan.epoch),
      router.options().plan.n, router.options().plan.shards.size(),
      router.options().bind_address.c_str(), router.port());

  // The event loop runs on its own thread; park this one until a signal
  // requests a stop, then drain and join everything.
  ::pause();
  router.Shutdown();
  g_router = nullptr;
  const simrank::RouterStats stats = router.stats();
  std::fprintf(stderr,
               "simrank_router: shut down cleanly (%llu requests, "
               "%llu failovers)\n",
               static_cast<unsigned long long>(stats.requests_total),
               static_cast<unsigned long long>(stats.failovers));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
