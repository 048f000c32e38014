// Metric catalogue, result reporting and the harness's own span timer.
//
// The catalogue below is the single list of metric names the harness may
// emit; perfbench/run.py checks it against BENCHMARK.json before running,
// so the two cannot drift apart.
#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness/loadgen.h"

namespace perfbench {

/// Monotonic clock, seconds.
double NowSeconds();

struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Collects one run's verdict and metrics. Thread-safe.
class Report {
 public:
  /// Sets a catalogued metric (aborts on an unknown name — a typo must
  /// not silently produce a zero).
  void Set(const std::string& name, double value);
  /// Prints one named figure with its unit and sample count to stdout as
  /// a human-readable line; these are the per-query-kind figures the
  /// catalogue's generic slots summarize.
  void Figure(const std::string& name, double value, const char* unit,
              uint64_t samples);
  /// Prints a summary's median and supported tails as Figure lines.
  void FigureSummary(const std::string& prefix, const Summary& summary,
                     const char* unit);
  void Attempted(uint64_t n = 1);
  /// Counts a failed operation (error status, timeout, wrong answer).
  void Failed(const std::string& why);
  /// A wrong answer: counted as failed and marks the run incorrect.
  void Mismatch(const std::string& why);
  bool correct() const;
  uint64_t failed() const;

  /// The final result line: {"correct","attempted","failed","metrics"}.
  /// With `per_layer`, every per-layer metric (a layer the workload never
  /// calls reads 0); otherwise every end-to-end metric, all of which the
  /// workload must have set.
  std::string ResultJson(bool per_layer) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  uint32_t messages_ = 0;
};

/// Durations recorded by the harness around calls into one layer, keyed
/// by span name. Thread-safe.
class Spans {
 public:
  void Add(const std::string& name, double seconds);
  std::vector<double> Samples(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Times its own lifetime into `spans` under `name`.
class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, std::string name)
      : spans_(spans), name_(std::move(name)), start_(NowSeconds()) {}
  ~ScopedSpan() { spans_.Add(name_, NowSeconds() - start_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans& spans_;
  std::string name_;
  double start_;
};

/// One JSON object describing the machine and build: nproc, CPU model,
/// SIMD tier, io_uring availability (probed by opening `probe_path`
/// through the index's segment reader), build type and git describe.
std::string MachineDescriptorJson(const std::string& probe_path);

/// CPU time of this process (all threads, user + system), seconds.
double ProcessCpuSeconds();

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMiB();

/// Threads of this process (/proc/self/task entries).
uint32_t ProcessThreadCount();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
