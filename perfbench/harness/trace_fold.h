// Folds the stage traces the server and router return in the
// X-Simrank-Trace-Json response header into per-request layer figures.
//
// A trace is {"spans":[{"stage","parent","start_ns","duration_ns"}...],
// "counters":{...},"children":[<shard traces>...]}. A span's self time is
// its duration minus its direct children's durations; a request's stage
// time sums the self times of that stage over the trace and, recursively,
// its shard sub-traces.
#ifndef PERFBENCH_HARNESS_TRACE_FOLD_H_
#define PERFBENCH_HARNESS_TRACE_FOLD_H_

#include <map>
#include <string>
#include <string_view>

namespace perfbench {

struct FoldedTrace {
  /// Root span ("request") of the top-level trace, microseconds.
  double root_us = 0;
  /// Self time per stage name, summed over the trace and its children.
  std::map<std::string, double> stage_self_us;
  /// Counter totals over the trace and its children.
  std::map<std::string, double> counters;
  /// Router traces: shard_exchange span durations (max and sum), and the
  /// mean root duration of the embedded shard traces.
  double shard_exchange_max_us = 0;
  double shard_exchange_sum_us = 0;
  double row_fetch_us = 0;
  double merge_us = 0;
  double child_root_mean_us = 0;
  int children = 0;
};

/// Parses and folds one trace document; false when it is malformed.
bool FoldTrace(std::string_view json, FoldedTrace* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_FOLD_H_
