// The benchmark's workloads. Each measures for `seconds`, checks every
// answer it times against an independent reference, and fills `report`
// with the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run).
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness/report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Working directory for index, WAL and shard files, inside the build
  /// directory; the serve workloads create and remove it.
  std::string workdir;
};

/// serve_read, serve_write and serve_routed.
void RunServeWorkload(const RunOptions& options, Report& report);

/// allpairs: OIP-SR and OIP-DSR all-pairs runs.
void RunAllPairs(const RunOptions& options, Report& report);

/// Generator threads and connections: min(4, nproc).
uint32_t GeneratorThreads();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
