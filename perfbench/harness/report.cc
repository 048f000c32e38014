#include "harness/report.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "simrank/common/build_info.h"
#include "simrank/common/json_writer.h"
#include "simrank/common/memory_tracker.h"
#include "simrank/common/simd.h"
#include "simrank/index/segment_reader.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"main_cpu_us", "us"},
      {"side_cpu_us", "us"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      // core: the paper's all-pairs engines (KernelStats per run).
      {"core.oip_sr.mst_s", "s"},
      {"core.oip_sr.iterate_s", "s"},
      {"core.oip_sr.adds", "count"},
      {"core.oip_sr.set_ops", "count"},
      {"core.oip_sr.aux_peak_bytes", "bytes"},
      {"core.oip_dsr.mst_s", "s"},
      {"core.oip_dsr.iterate_s", "s"},
      {"core.oip_dsr.adds", "count"},
      {"core.oip_dsr.set_ops", "count"},
      {"core.oip_dsr.aux_peak_bytes", "bytes"},
      // index: walk index, walk store, segment reader.
      {"index.build_s", "s"},
      {"index.load_s", "s"},
      {"index.resident_bytes", "bytes"},
      {"index.pair_us", "us"},
      {"index.single_source_us", "us"},
      {"index.stage.index_probe_us", "us"},
      {"index.stage.cold_read_us", "us"},
      {"index.stage.decode_us", "us"},
      {"index.stage.accumulate_us", "us"},
      {"index.stage.overlay_merge_us", "us"},
      {"index.rows_decoded", "count"},
      {"index.bytes_read", "bytes"},
      {"index.slots_probed", "count"},
      {"index.bucket_entries", "count"},
      // query_engine: row cache in front of the estimators.
      {"query_engine.pair_us", "us"},
      {"query_engine.topk_us", "us"},
      {"query_engine.single_source_us", "us"},
      {"query_engine.cache_hit_frac", "frac"},
      {"query_engine.cache_evictions", "count"},
      // json: response formatting.
      {"json.row_us", "us"},
      {"json.row_bytes", "bytes"},
      {"json.topk_us", "us"},
      // server: epoll HTTP frontend.
      {"server.request_us", "us"},
      {"server.queue_wait_us", "us"},
      {"server.serialize_us", "us"},
      {"server.self_us", "us"},
      {"server.rejected", "count"},
      // updater: live updates, WAL, overlay, compaction.
      {"updater.apply_ms", "ms"},
      {"updater.walks_resimulated", "count"},
      {"updater.steps_resimulated", "count"},
      {"updater.wal_sync_ms", "ms"},
      {"updater.wal_syncs", "count"},
      {"updater.wal_bytes", "bytes"},
      {"updater.overlay_bytes", "bytes"},
      {"updater.compactions", "count"},
      {"updater.compaction_ms", "ms"},
      {"updater.compaction_pause_ms", "ms"},
      // router: scatter-gather frontend and shard split.
      {"router.request_us", "us"},
      {"router.shard_exchange_max_us", "us"},
      {"router.shard_exchange_sum_us", "us"},
      {"router.row_fetch_us", "us"},
      {"router.merge_us", "us"},
      {"router.self_us", "us"},
      {"router.threads_before", "count"},
      {"router.threads_after", "count"},
      {"shard_split.write_s", "s"},
      // loadgen: the harness's own open-loop generator.
      {"loadgen.late_p99_us", "us"},
      {"loadgen.sent", "count"},
      {"loadgen.completed", "count"},
      {"loadgen.backlog_max", "count"},
      // tracing cost: traced p50 over untraced p50, minus 1.
      {"trace.overhead_frac", "frac"},
  };
  return kMetrics;
}

namespace {

const MetricDef* FindMetric(const std::string& name) {
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& def : *list) {
      if (name == def.name) return &def;
    }
  }
  return nullptr;
}

}  // namespace

void Report::Set(const std::string& name, double value) {
  if (FindMetric(name) == nullptr) {
    std::fprintf(stderr, "harness bug: metric %s is not catalogued\n",
                 name.c_str());
    std::abort();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  values_[name] = value;
}

void Report::Figure(const std::string& name, double value, const char* unit,
                    uint64_t samples) {
  std::printf("figure %-32s %14.3f %-6s n=%llu\n", name.c_str(), value, unit,
              static_cast<unsigned long long>(samples));
}

void Report::FigureSummary(const std::string& prefix, const Summary& summary,
                           const char* unit) {
  if (summary.n == 0) return;
  Figure(prefix + "_p50_" + unit, summary.p50, unit, summary.n);
  if (summary.p90_supported) {
    Figure(prefix + "_p90_" + unit, summary.p90, unit, summary.n);
  }
  if (summary.p99_supported) {
    Figure(prefix + "_p99_" + unit, summary.p99, unit, summary.n);
  }
}

void Report::Attempted(uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  attempted_ += n;
}

void Report::Failed(const std::string& why) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++failed_;
  if (messages_++ < 10) std::fprintf(stderr, "failure: %s\n", why.c_str());
}

void Report::Mismatch(const std::string& why) {
  Failed("wrong answer: " + why);
  std::lock_guard<std::mutex> lock(mutex_);
  correct_ = false;
}

bool Report::correct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return correct_;
}

uint64_t Report::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

std::string Report::ResultJson(bool per_layer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  simrank::JsonWriter json;
  json.BeginObject()
      .Key("correct")
      .Bool(correct_)
      .Key("attempted")
      .Uint(attempted_)
      .Key("failed")
      .Uint(failed_)
      .Key("metrics")
      .BeginObject();
  for (const MetricDef& def :
       per_layer ? PerLayerMetrics() : EndToEndMetrics()) {
    auto it = values_.find(def.name);
    if (it == values_.end() && !per_layer) {
      std::fprintf(stderr, "harness bug: end-to-end metric %s unset\n",
                   def.name);
      std::abort();
    }
    if (!per_layer && it->second == 0) {
      // A chunked figure with no full chunk: the run was too short.
      std::fprintf(stderr, "warning: %s has too few samples (0)\n",
                   def.name);
    }
    json.Key(def.name)
        .BeginObject()
        .Key("value")
        .Double(it == values_.end() ? 0.0 : it->second)
        .Key("unit")
        .String(def.unit)
        .EndObject();
  }
  json.EndObject().EndObject();
  return json.str();
}

void Spans::Add(const std::string& name, double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_[name].push_back(seconds);
}

std::vector<double> Spans::Samples(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>() : it->second;
}

std::string MachineDescriptorJson(const std::string& probe_path) {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu_model = line.substr(colon + 2);
      break;
    }
  }
  bool uring = false;
  if (auto reader = simrank::SegmentReader::Open(probe_path); reader.ok()) {
    uring = (*reader)->using_io_uring();
  }
  const simrank::BuildInfo& build = simrank::GetBuildInfo();
  simrank::JsonWriter json;
  json.BeginObject()
      .Key("machine")
      .BeginObject()
      .Key("nproc")
      .Uint(static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Key("cpu_model")
      .String(cpu_model)
      .Key("simd")
      .String(simrank::SimdLevelName(simrank::ActiveSimdLevel()))
      .Key("io_uring")
      .Bool(uring)
      .Key("build_type")
      .String(build.build_type)
      .Key("git_describe")
      .String(build.git_describe)
      .Key("compiler")
      .String(build.compiler)
      .EndObject()
      .EndObject();
  return json.str();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double PeakRssMiB() {
  simrank::ProcessMemoryStats stats;
  simrank::ReadProcessMemoryStats(&stats);
  return static_cast<double>(stats.peak_resident_bytes) / (1024.0 * 1024.0);
}

uint32_t ProcessThreadCount() {
  uint32_t count = 0;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') ++count;
    }
    closedir(dir);
  }
  return count;
}

}  // namespace perfbench
