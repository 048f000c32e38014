// perfbench_harness: runs one benchmark workload and prints its result.
//
//   perfbench_harness --workload serve_read --seed 1 --seconds 20
//                     --trace 0 --workdir .bench_build/work
//   perfbench_harness --list-metrics
//
// stdout: a machine descriptor line, "figure" lines (every per-query-kind
// figure by name, unit and sample count), then as the last line one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exit
// status 1 when any answer was wrong.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "harness/report.h"
#include "harness/workloads.h"

namespace {

constexpr const char* kWorkloads[] = {"serve_read", "serve_write",
                                      "serve_routed", "allpairs"};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n"
               "       perfbench_harness --list-metrics\n"
               "workloads: serve_read serve_write serve_routed allpairs\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--list-metrics") {
      for (const auto* list : {&perfbench::EndToEndMetrics(),
                               &perfbench::PerLayerMetrics()}) {
        const char* kind =
            list == &perfbench::EndToEndMetrics() ? "end_to_end" : "per_layer";
        for (const perfbench::MetricDef& def : *list) {
          std::printf("%s %s %s\n", kind, def.name, def.unit);
        }
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      for (const char* name : kWorkloads) have_workload |= value == name;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || options.workdir.empty() || options.seconds <= 0) {
    return Usage();
  }

  std::printf("%s\n", perfbench::MachineDescriptorJson(argv[0]).c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  perfbench::Report report;
  if (options.workload == "allpairs") {
    perfbench::RunAllPairs(options, report);
  } else {
    perfbench::RunServeWorkload(options, report);
  }
  std::printf("figure failed %llu\n",
              static_cast<unsigned long long>(report.failed()));
  std::printf("%s\n", report.ResultJson(options.trace).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
