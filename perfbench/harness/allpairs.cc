// allpairs: the paper's own layer. OIP-SR and OIP-DSR all-pairs runs
// alternate on one fixed heavy-overlap web graph (n = 2048, as in
// bench/parallel_scaling.cc) with fixed K and worker count. Every run's
// scores must be bitwise-equal to the set-up run of the same engine, and
// its addition count equal too. No serving layer runs here.
#include <algorithm>
#include <string>
#include <vector>

#include "harness/loadgen.h"
#include "harness/workloads.h"
#include "simrank/core/engine.h"
#include "simrank/gen/generators.h"

namespace perfbench {
namespace {

using simrank::Algorithm;
using simrank::DiGraph;

constexpr uint32_t kVertices = 2048;
constexpr uint32_t kIterations = 5;  // K
constexpr uint32_t kThreads = 2;
constexpr uint32_t kSetupRepeats = 3;

DiGraph MakeGraph() {
  simrank::gen::WebGraphParams params;
  params.n = kVertices;
  params.out_degree = 8;
  params.copy_prob = 0.8;
  params.seed = 77;
  auto graph = simrank::gen::WebGraph(params);
  OIPSIM_CHECK(graph.ok());
  return std::move(graph).value();
}

simrank::EngineOptions Options(Algorithm algorithm) {
  simrank::EngineOptions options;
  options.algorithm = algorithm;
  options.simrank.damping = 0.6;
  options.simrank.iterations = kIterations;
  options.simrank.threads =
      std::min<uint32_t>(kThreads, GeneratorThreads());
  return options;
}

struct Engine {
  Algorithm algorithm;
  const char* name;  // metric prefix
  simrank::SimRankRun reference;
  std::vector<double> seconds;
  std::vector<double> cpu_seconds;
  std::vector<simrank::KernelStats> stats;
};

}  // namespace

void RunAllPairs(const RunOptions& options, Report& report) {
  Engine engines[] = {{Algorithm::kOip, "oip_sr", {}, {}, {}, {}},
                      {Algorithm::kOipDsr, "oip_dsr", {}, {}, {}, {}}};

  // Set-up: the graph and one run per engine, whose scores and addition
  // counts every measured run must reproduce bitwise.
  DiGraph graph;
  std::vector<double> setup_s;
  for (uint32_t i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
    const double start = NowSeconds();
    graph = MakeGraph();
    for (Engine& engine : engines) {
      auto run = simrank::ComputeSimRank(graph, Options(engine.algorithm));
      OIPSIM_CHECK(run.ok());
      report.Attempted();
      if (i > 0 && (!(run->scores == engine.reference.scores) ||
                    run->stats.ops.total_adds() !=
                        engine.reference.stats.ops.total_adds())) {
        report.Mismatch(std::string(engine.name) + " set-up run differs");
      }
      engine.reference = std::move(run).value();
    }
    setup_s.push_back(NowSeconds() - start);
  }

  // Measured window: the engines alternate until the time is up. In the
  // traced run every other pair of runs is wrapped in the harness's span
  // recorder, and the traced/untraced medians give its overhead.
  Spans spans;
  std::vector<double> untraced_sr;
  const double deadline = NowSeconds() + options.seconds;
  for (uint64_t round = 0; NowSeconds() < deadline || round < 2; ++round) {
    for (Engine& engine : engines) {
      const bool traced = options.trace && round % 2 == 1;
      const double start = NowSeconds();
      const double cpu_start = ProcessCpuSeconds();
      simrank::Result<simrank::SimRankRun> run = [&] {
        if (!traced) {
          return simrank::ComputeSimRank(graph, Options(engine.algorithm));
        }
        ScopedSpan span(spans, engine.name);
        return simrank::ComputeSimRank(graph, Options(engine.algorithm));
      }();
      const double elapsed = NowSeconds() - start;
      const double cpu = ProcessCpuSeconds() - cpu_start;
      report.Attempted();
      if (!run.ok()) {
        report.Failed(run.status().ToString());
        continue;
      }
      if (!(run->scores == engine.reference.scores)) {
        report.Mismatch(std::string(engine.name) +
                        " scores differ across repeats");
      }
      if (run->stats.ops.total_adds() !=
          engine.reference.stats.ops.total_adds()) {
        report.Mismatch(std::string(engine.name) +
                        " addition count differs across repeats");
      }
      engine.seconds.push_back(elapsed);
      engine.cpu_seconds.push_back(cpu);
      engine.stats.push_back(run->stats);
      if (!traced && engine.algorithm == Algorithm::kOip) {
        untraced_sr.push_back(elapsed);
      }
    }
  }

  const Summary sr = Summarize(engines[0].seconds);
  const Summary dsr = Summarize(engines[1].seconds);
  if (options.trace) {
    for (const Engine& engine : engines) {
      const std::string prefix = std::string("core.") + engine.name;
      std::vector<double> mst, iterate;
      for (const simrank::KernelStats& s : engine.stats) {
        mst.push_back(s.seconds_setup);
        iterate.push_back(s.seconds_iterate);
      }
      const simrank::KernelStats& first = engine.stats.front();
      report.Set(prefix + ".mst_s", Median(mst));
      report.Set(prefix + ".iterate_s", Median(iterate));
      report.Set(prefix + ".adds", first.ops.total_adds());
      report.Set(prefix + ".set_ops", first.ops.set_ops);
      report.Set(prefix + ".aux_peak_bytes", first.aux_peak_bytes);
    }
    const double untraced = Median(untraced_sr);
    report.Set("trace.overhead_frac",
               Median(spans.Samples("oip_sr")) / untraced - 1.0);
  } else {
    report.FigureSummary("oip_sr", sr, "s");
    report.FigureSummary("oip_dsr", dsr, "s");
    report.Figure("oip_sr_adds", engines[0].reference.stats.ops.total_adds(),
                  "count", sr.n);
    report.Figure("oip_dsr_adds", engines[1].reference.stats.ops.total_adds(),
                  "count", dsr.n);
    report.Set("main_cpu_us", Median(engines[0].cpu_seconds) * 1e6);
    report.Set("side_cpu_us", Median(engines[1].cpu_seconds) * 1e6);
  }
  report.Set("setup_s", Median(setup_s));
  report.Set("peak_rss_mb", PeakRssMiB());
}

}  // namespace perfbench
