// Input generation and statistics helpers of the benchmark harness.
//
// Everything here is a pure function of its arguments (no clocks, no
// global state), so a workload's inputs are reproducible from its seed
// alone and the helpers are unit-tested in perfbench/tests.
#ifndef PERFBENCH_HARNESS_LOADGEN_H_
#define PERFBENCH_HARNESS_LOADGEN_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, seedable, identical on every platform.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double NextDouble();
  /// Uniform in [0, bound); bound > 0.
  uint64_t NextBelow(uint64_t bound);

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n): P(rank r) ∝ 1 / (r + 1)^s, sampled by binary
/// search over the exact cumulative table.
class ZipfSampler {
 public:
  ZipfSampler(uint32_t n, double exponent);
  uint32_t Sample(SplitMix64& rng) const;
  /// Probability mass of the `k` most popular ranks.
  double HeadMass(uint32_t k) const;

 private:
  std::vector<double> cdf_;
};

/// Poisson arrival offsets (seconds from phase start) at `rate` per second
/// over [0, seconds): exponential gaps drawn from `seed`.
std::vector<double> OpenLoopSchedule(uint64_t seed, double rate,
                                     double seconds);

/// A random permutation of [0, n) drawn from `seed` (Fisher-Yates): maps
/// Zipf ranks to vertex ids so the hot set differs per seed.
std::vector<uint32_t> SeededPermutation(uint64_t seed, uint32_t n);

enum class ReadKind : uint8_t { kPair = 0, kTopK = 1, kSingleSource = 2 };
inline constexpr int kNumReadKinds = 3;
const char* ReadKindName(ReadKind kind);

struct ReadRequest {
  ReadKind kind = ReadKind::kPair;
  uint32_t a = 0;  ///< source vertex (Zipf-skewed)
  uint32_t b = 0;  ///< pair partner (uniform); unused otherwise
};

/// The read mix: exactly round(count·pair_share) pairs and
/// round(count·topk_share) top-k requests, the rest single-source, in a
/// seeded order. Sources are drawn from `zipf` and mapped through
/// `rank_to_vertex`; pair partners are uniform over
/// [0, rank_to_vertex.size()).
std::vector<ReadRequest> MakeReadMix(
    uint64_t seed, uint32_t count, const ZipfSampler& zipf,
    const std::vector<uint32_t>& rank_to_vertex, double pair_share,
    double topk_share);

/// Exact nearest-rank percentile of raw samples: the ceil(q·n)-th smallest
/// value (q in (0, 1]). `sorted` must be ascending and non-empty.
double NearestRank(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-th percentile of n samples.
uint64_t SamplesBeyond(uint64_t n, double q);

/// Median and tail of one sample set. A tail percentile is "supported"
/// when at least 10 samples lie beyond it.
struct Summary {
  uint64_t n = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  bool p90_supported = false;
  bool p99_supported = false;
};
Summary Summarize(std::vector<double> samples);

/// Median of a sample set (nearest rank); 0 for an empty set.
double Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LOADGEN_H_
