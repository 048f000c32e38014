#include "harness/loadgen.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t SplitMix64::NextBelow(uint64_t bound) {
  // Lemire's multiply-shift; the bias is below 2^-32 for our bounds.
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

ZipfSampler::ZipfSampler(uint32_t n, double exponent) : cdf_(n) {
  double total = 0;
  for (uint32_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

uint32_t ZipfSampler::Sample(SplitMix64& rng) const {
  const double u = rng.NextDouble();
  return static_cast<uint32_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

double ZipfSampler::HeadMass(uint32_t k) const {
  if (k == 0) return 0;
  return cdf_[std::min<size_t>(k, cdf_.size()) - 1];
}

std::vector<double> OpenLoopSchedule(uint64_t seed, double rate,
                                     double seconds) {
  SplitMix64 rng(seed ^ 0x5ced01e5ULL);
  std::vector<double> due;
  double t = 0;
  while (true) {
    t += -std::log1p(-rng.NextDouble()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

std::vector<uint32_t> SeededPermutation(uint64_t seed, uint32_t n) {
  std::vector<uint32_t> perm(n);
  for (uint32_t i = 0; i < n; ++i) perm[i] = i;
  SplitMix64 rng(seed ^ 0x9e3779b9ULL);
  for (uint32_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBelow(i)]);
  }
  return perm;
}

const char* ReadKindName(ReadKind kind) {
  switch (kind) {
    case ReadKind::kPair:
      return "pair";
    case ReadKind::kTopK:
      return "topk";
    case ReadKind::kSingleSource:
      return "single_source";
  }
  return "unknown";
}

std::vector<ReadRequest> MakeReadMix(
    uint64_t seed, uint32_t count, const ZipfSampler& zipf,
    const std::vector<uint32_t>& rank_to_vertex, double pair_share,
    double topk_share) {
  SplitMix64 rng(seed ^ 0x4ead5eedULL);
  // Exact shares in a seeded order: the per-run mix, and with it the
  // per-request cost, does not vary with the seed.
  const uint32_t pairs = static_cast<uint32_t>(std::lround(count * pair_share));
  const uint32_t topks = static_cast<uint32_t>(std::lround(count * topk_share));
  std::vector<ReadRequest> requests(count);
  for (uint32_t i = 0; i < count; ++i) {
    requests[i].kind = i < pairs           ? ReadKind::kPair
                       : i < pairs + topks ? ReadKind::kTopK
                                           : ReadKind::kSingleSource;
  }
  for (uint32_t i = count; i > 1; --i) {
    std::swap(requests[i - 1].kind, requests[rng.NextBelow(i)].kind);
  }
  for (ReadRequest& request : requests) {
    request.a = rank_to_vertex[zipf.Sample(rng)];
    request.b = static_cast<uint32_t>(rng.NextBelow(rank_to_vertex.size()));
  }
  return requests;
}

double NearestRank(const std::vector<double>& sorted, double q) {
  const uint64_t n = sorted.size();
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<uint64_t>(rank, 1, n);
  return sorted[rank - 1];
}

uint64_t SamplesBeyond(uint64_t n, double q) {
  if (n == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<uint64_t>(rank, 1, n);
  return n - rank;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = NearestRank(samples, 0.50);
  s.p90 = NearestRank(samples, 0.90);
  s.p99 = NearestRank(samples, 0.99);
  s.p90_supported = SamplesBeyond(s.n, 0.90) >= 10;
  s.p99_supported = SamplesBeyond(s.n, 0.99) >= 10;
  return s;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, 0.5);
}

}  // namespace perfbench
