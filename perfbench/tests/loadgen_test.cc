// Tests of the harness's input generators and statistics: schedules and
// samplers are deterministic per seed, and percentiles match a table
// computed by hand. Build and run:
//   cmake --build .bench_build --target perfbench_helpers_test
//   .bench_build/perfbench_helpers_test
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "harness/loadgen.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using namespace perfbench;

void TestScheduleDeterministic() {
  const auto a = OpenLoopSchedule(11, 1000, 2.0);
  const auto b = OpenLoopSchedule(11, 1000, 2.0);
  const auto c = OpenLoopSchedule(12, 1000, 2.0);
  EXPECT(a == b);
  EXPECT(a != c);
  EXPECT(std::is_sorted(a.begin(), a.end()));
  EXPECT(!a.empty() && a.front() >= 0 && a.back() < 2.0);
  // Poisson count: mean 2000, sd ~45.
  EXPECT(a.size() > 1800 && a.size() < 2200);
}

void TestZipfDeterministic() {
  const ZipfSampler zipf(1000, 0.9);
  SplitMix64 r1(5), r2(5), r3(6);
  std::vector<uint32_t> s1, s2, s3;
  for (int i = 0; i < 2000; ++i) {
    s1.push_back(zipf.Sample(r1));
    s2.push_back(zipf.Sample(r2));
    s3.push_back(zipf.Sample(r3));
  }
  EXPECT(s1 == s2);
  EXPECT(s1 != s3);
  EXPECT(*std::max_element(s1.begin(), s1.end()) < 1000);
  // Rank 0 is the most popular; the head mass matches the closed form.
  std::vector<int> counts(1000, 0);
  for (uint32_t r : s1) ++counts[r];
  EXPECT(counts[0] == *std::max_element(counts.begin(), counts.end()));
  double h1000 = 0, h10 = 0;
  for (int r = 1; r <= 1000; ++r) {
    h1000 += 1.0 / std::pow(r, 0.9);
    if (r <= 10) h10 += 1.0 / std::pow(r, 0.9);
  }
  EXPECT(std::fabs(zipf.HeadMass(10) - h10 / h1000) < 1e-12);
  EXPECT(zipf.HeadMass(1000) == 1.0);
}

void TestMixDeterministic() {
  const ZipfSampler zipf(500, 0.9);
  const auto perm = SeededPermutation(3, 500);
  auto sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint32_t> iota(500);
  std::iota(iota.begin(), iota.end(), 0u);
  EXPECT(sorted == iota);
  EXPECT(perm == SeededPermutation(3, 500));
  EXPECT(perm != SeededPermutation(4, 500));

  const auto a = MakeReadMix(9, 20000, zipf, perm, 0.8, 0.15);
  const auto b = MakeReadMix(9, 20000, zipf, perm, 0.8, 0.15);
  bool same = a.size() == b.size();
  int kinds[kNumReadKinds] = {};
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].kind == b[i].kind && a[i].a == b[i].a && a[i].b == b[i].b;
    ++kinds[static_cast<int>(a[i].kind)];
    EXPECT(a[i].a < 500 && a[i].b < 500);
  }
  EXPECT(same);
  EXPECT(kinds[0] == 16000 && kinds[1] == 3000 && kinds[2] == 1000);
  // The order is shuffled: single-source requests are not bunched at the
  // end.
  int early_sources = 0;
  for (size_t i = 0; i < 10000; ++i) {
    early_sources += a[i].kind == ReadKind::kSingleSource;
  }
  EXPECT(early_sources > 400 && early_sources < 600);
}

std::vector<double> Range(int n) {
  std::vector<double> v(n);
  for (int i = 0; i < n; ++i) v[i] = i + 1;
  return v;
}

void TestPercentileTable() {
  // Hand-computed nearest-rank table: value = ceil(q*n)-th smallest.
  struct Row {
    int n;
    double q;
    double value;
    uint64_t beyond;
  };
  const Row table[] = {
      {1, 0.50, 1, 0},       {2, 0.50, 1, 1},       {10, 0.50, 5, 5},
      {10, 0.90, 9, 1},      {10, 0.99, 10, 0},     {20, 0.50, 10, 10},
      {100, 0.90, 90, 10},   {100, 0.99, 99, 1},    {999, 0.99, 990, 9},
      {1000, 0.99, 990, 10}, {1000, 0.50, 500, 500}, {1001, 0.99, 991, 10},
  };
  for (const Row& row : table) {
    const auto sorted = Range(row.n);
    EXPECT(NearestRank(sorted, row.q) == row.value);
    EXPECT(SamplesBeyond(row.n, row.q) == row.beyond);
  }
  // Summarize sorts its input and flags unsupported tails.
  Summary s = Summarize({5, 1, 4, 2, 3});
  EXPECT(s.n == 5 && s.p50 == 3 && s.p90 == 5);
  EXPECT(!s.p90_supported && !s.p99_supported);
  std::vector<double> big = Range(1000);
  std::reverse(big.begin(), big.end());
  s = Summarize(big);
  EXPECT(s.p50 == 500 && s.p90 == 900 && s.p99 == 990);
  EXPECT(s.p90_supported && s.p99_supported);
  EXPECT(Median({}) == 0);
  EXPECT(Median({7, 3, 9, 1}) == 3);
}

}  // namespace

int main() {
  TestScheduleDeterministic();
  TestZipfDeterministic();
  TestMixDeterministic();
  TestPercentileTable();
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench helpers: all checks passed\n");
  return 0;
}
