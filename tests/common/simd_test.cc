#include "simrank/common/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

#include "simrank/common/varint.h"

namespace simrank {
namespace {

// Every tier this machine can run; the vector kernels must commit only
// prefixes of what the scalar reference would produce, so each testable
// level is checked against the same expectations.
std::vector<SimdLevel> TestableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const auto max = static_cast<uint8_t>(MaxSupportedSimdLevel());
  if (max >= static_cast<uint8_t>(SimdLevel::kSse4)) {
    levels.push_back(SimdLevel::kSse4);
  }
  if (max >= static_cast<uint8_t>(SimdLevel::kAvx2)) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

TEST(SimdLevelTest, NamesAreStable) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kSse4), "sse4");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(SimdLevelTest, EnvOverrideClampsAndReloads) {
  const SimdLevel max = MaxSupportedSimdLevel();

  ASSERT_EQ(setenv("SIMRANK_SIMD_LEVEL", "scalar", 1), 0);
  ReloadSimdLevelFromEnv();
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);

  ASSERT_EQ(setenv("SIMRANK_SIMD_LEVEL", "sse4", 1), 0);
  ReloadSimdLevelFromEnv();
  EXPECT_EQ(static_cast<uint8_t>(ActiveSimdLevel()),
            std::min(static_cast<uint8_t>(SimdLevel::kSse4),
                     static_cast<uint8_t>(max)));

  // A request wider than the CPU clamps down, and garbage means no clamp.
  ASSERT_EQ(setenv("SIMRANK_SIMD_LEVEL", "avx2", 1), 0);
  ReloadSimdLevelFromEnv();
  EXPECT_EQ(ActiveSimdLevel(), max);
  ASSERT_EQ(setenv("SIMRANK_SIMD_LEVEL", "avx512-please", 1), 0);
  ReloadSimdLevelFromEnv();
  EXPECT_EQ(ActiveSimdLevel(), max);

  ASSERT_EQ(unsetenv("SIMRANK_SIMD_LEVEL"), 0);
  ReloadSimdLevelFromEnv();
  EXPECT_EQ(ActiveSimdLevel(), max);
}

// ---------------------------------------------------------------------------
// DecodeDeltaRun

// Encodes `positions` the way walk_store.cc writes a compressed walk:
// zigzag varints of the delta against the previous position (seeded with
// `prev`). Records each value's encoded length so tests can assert exact
// cursor placement.
struct EncodedRun {
  std::vector<uint8_t> bytes;
  std::vector<size_t> code_length;
};

EncodedRun EncodeDeltaRun(uint32_t prev, const std::vector<uint32_t>& positions) {
  EncodedRun run;
  for (uint32_t position : positions) {
    const size_t before = run.bytes.size();
    AppendVarint64(&run.bytes,
                   ZigZagEncode64(static_cast<int64_t>(position) -
                                  static_cast<int64_t>(prev)));
    run.code_length.push_back(run.bytes.size() - before);
    prev = position;
  }
  return run;
}

// Mirrors the scalar tail loop of walk_store.cc's DecodeSegment: decodes
// until the run ends or the first malformed/out-of-range value. Returns
// the values decoded before the first error.
std::vector<uint32_t> ScalarDeltaReference(const uint8_t* cursor,
                                           const uint8_t* end, uint32_t prev,
                                           uint32_t n, size_t count) {
  std::vector<uint32_t> values;
  for (size_t i = 0; i < count; ++i) {
    uint64_t zigzag = 0;
    if (!DecodeVarint64(&cursor, end, &zigzag)) break;
    if (zigzag >= 2 * static_cast<uint64_t>(n)) break;
    const int64_t value = static_cast<int64_t>(prev) + ZigZagDecode64(zigzag);
    if (value < 0 || value >= static_cast<int64_t>(n)) break;
    values.push_back(static_cast<uint32_t>(value));
    prev = static_cast<uint32_t>(value);
  }
  return values;
}

// The partial-commit contract: the kernel decodes some prefix of what the
// scalar loop would, leaves the cursor exactly past those codes, and never
// commits at or beyond the first byte the scalar loop would reject.
void CheckDeltaRun(const EncodedRun& run, uint32_t prev, uint32_t n,
                   size_t count) {
  const uint8_t* const start = run.bytes.data();
  const uint8_t* const end = start + run.bytes.size();
  const std::vector<uint32_t> expected =
      ScalarDeltaReference(start, end, prev, n, count);
  for (SimdLevel level : TestableLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    std::vector<uint32_t> out(count + 8, 0xDEADBEEFu);
    const uint8_t* cursor = start;
    const size_t done =
        DecodeDeltaRun(level, &cursor, end, prev, n, out.data(), count);
    ASSERT_LE(done, expected.size());
    size_t consumed = 0;
    for (size_t i = 0; i < done; ++i) {
      EXPECT_EQ(out[i], expected[i]) << "value " << i;
      consumed += run.code_length[i];
    }
    EXPECT_EQ(cursor, start + consumed);
    if (level == SimdLevel::kScalar) EXPECT_EQ(done, 0u);
    // Finishing with the scalar reference from the committed point must
    // reproduce the rest — the kernel may stop early, never wrongly.
    const std::vector<uint32_t> tail = ScalarDeltaReference(
        cursor, end, done == 0 ? prev : out[done - 1], n, count - done);
    ASSERT_EQ(done + tail.size(), expected.size());
    for (size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(tail[i], expected[i + done]) << "tail value " << i;
    }
  }
}

TEST(DecodeDeltaRunTest, CleanSingleByteRunDecodesAndVectorTiersCommit) {
  const uint32_t n = 1000;
  const uint32_t prev = 500;
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> step(-20, 20);
  std::vector<uint32_t> positions;
  uint32_t value = prev;
  for (size_t i = 0; i < 100; ++i) {
    int delta = step(rng);
    if (static_cast<int64_t>(value) + delta < 0 ||
        static_cast<int64_t>(value) + delta >= n) {
      delta = -delta;
    }
    value = static_cast<uint32_t>(static_cast<int64_t>(value) + delta);
    positions.push_back(value);
  }
  const EncodedRun run = EncodeDeltaRun(prev, positions);
  ASSERT_EQ(run.bytes.size(), positions.size());  // all single-byte codes
  CheckDeltaRun(run, prev, n, positions.size());

  // On a clean all-single-byte run the vector tiers must make progress
  // (otherwise the fast path is dead code).
  for (SimdLevel level : TestableLevels()) {
    if (level == SimdLevel::kScalar) continue;
    std::vector<uint32_t> out(positions.size(), 0);
    const uint8_t* cursor = run.bytes.data();
    EXPECT_GE(DecodeDeltaRun(level, &cursor,
                             run.bytes.data() + run.bytes.size(), prev, n,
                             out.data(), positions.size()),
              8u)
        << SimdLevelName(level);
  }
}

TEST(DecodeDeltaRunTest, MultiByteCodeMidRunStopsBeforeItsChunk) {
  const uint32_t n = 100000;
  const uint32_t prev = 50000;
  std::vector<uint32_t> positions;
  uint32_t value = prev;
  for (size_t i = 0; i < 40; ++i) {
    // A large jump (multi-byte code) right inside the second AVX2 chunk.
    value = (i == 11) ? value + 4000 : value + 1;
    positions.push_back(value);
  }
  const EncodedRun run = EncodeDeltaRun(prev, positions);
  ASSERT_GT(run.code_length[11], 1u);
  CheckDeltaRun(run, prev, n, positions.size());
  for (SimdLevel level : TestableLevels()) {
    std::vector<uint32_t> out(positions.size(), 0);
    const uint8_t* cursor = run.bytes.data();
    EXPECT_LE(DecodeDeltaRun(level, &cursor,
                             run.bytes.data() + run.bytes.size(), prev, n,
                             out.data(), positions.size()),
              11u)
        << SimdLevelName(level);
  }
}

TEST(DecodeDeltaRunTest, OutOfRangeValueIsLeftForTheScalarLoop) {
  // Single-byte codes whose running sum dips below zero at index 9: the
  // kernels must stop before that chunk so the scalar loop reports the
  // error at the same byte offset.
  const uint32_t n = 64;
  const uint32_t prev = 3;
  std::vector<uint8_t> bytes;
  std::vector<size_t> lens;
  for (size_t i = 0; i < 24; ++i) {
    const size_t before = bytes.size();
    // Delta +1 ... then a -10 plunge from position near 0.
    AppendVarint64(&bytes, ZigZagEncode64(i == 9 ? -60 : 1));
    lens.push_back(bytes.size() - before);
  }
  EncodedRun run;
  run.bytes = bytes;
  run.code_length = lens;
  CheckDeltaRun(run, prev, n, 24);
}

TEST(DecodeDeltaRunTest, SmallNBailsToScalar) {
  const uint32_t n = 63;  // below the fast path's n >= 64 regime
  std::vector<uint32_t> positions;
  for (uint32_t i = 0; i < 32; ++i) positions.push_back(i);
  const EncodedRun run = EncodeDeltaRun(0, positions);
  for (SimdLevel level : TestableLevels()) {
    std::vector<uint32_t> out(positions.size(), 0);
    const uint8_t* cursor = run.bytes.data();
    EXPECT_EQ(DecodeDeltaRun(level, &cursor,
                             run.bytes.data() + run.bytes.size(), 0, n,
                             out.data(), positions.size()),
              0u)
        << SimdLevelName(level);
    EXPECT_EQ(cursor, run.bytes.data());
  }
}

TEST(DecodeDeltaRunTest, TruncatedRunNeverReadsPastEnd) {
  const uint32_t n = 1000;
  const uint32_t prev = 100;
  std::vector<uint32_t> positions;
  for (uint32_t i = 0; i < 20; ++i) positions.push_back(prev + 1 + i);
  EncodedRun run = EncodeDeltaRun(prev, positions);
  for (size_t cut = 0; cut <= run.bytes.size(); ++cut) {
    EncodedRun clipped;
    clipped.bytes.assign(run.bytes.begin(), run.bytes.begin() + cut);
    clipped.code_length = run.code_length;  // lengths of the full codes
    CheckDeltaRun(clipped, prev, n, positions.size());
  }
}

// ---------------------------------------------------------------------------
// CopyCheckedWords

void CheckCopyWords(const std::vector<uint8_t>& bytes, uint32_t n,
                    size_t count) {
  const uint8_t* const start = bytes.data();
  const uint8_t* const end = start + bytes.size();
  // Scalar reference: words until truncation or the first >= n.
  std::vector<uint32_t> expected;
  {
    const uint8_t* p = start;
    while (expected.size() < count && end - p >= 4) {
      uint32_t word = 0;
      std::memcpy(&word, p, 4);
      if (word >= n) break;
      expected.push_back(word);
      p += 4;
    }
  }
  for (SimdLevel level : TestableLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    std::vector<uint32_t> out(count + 8, 0xDEADBEEFu);
    const uint8_t* cursor = start;
    const size_t done =
        CopyCheckedWords(level, &cursor, end, n, out.data(), count);
    ASSERT_LE(done, expected.size());
    EXPECT_EQ(cursor, start + done * 4);
    for (size_t i = 0; i < done; ++i) EXPECT_EQ(out[i], expected[i]);
    if (level == SimdLevel::kScalar) EXPECT_EQ(done, 0u);
  }
}

TEST(CopyCheckedWordsTest, PrefixCommitAcrossAdversarialInputs) {
  std::mt19937 rng(11);
  const uint32_t n = 5000;
  for (int trial = 0; trial < 50; ++trial) {
    std::uniform_int_distribution<size_t> len_dist(0, 40);
    const size_t count = len_dist(rng);
    std::vector<uint8_t> bytes;
    for (size_t i = 0; i < count; ++i) {
      uint32_t word = std::uniform_int_distribution<uint32_t>(0, n - 1)(rng);
      // Sprinkle violations: out-of-range words and (below) truncation.
      if (std::uniform_int_distribution<int>(0, 9)(rng) == 0) word = n + i;
      bytes.resize(bytes.size() + 4);
      std::memcpy(bytes.data() + bytes.size() - 4, &word, 4);
    }
    if (std::uniform_int_distribution<int>(0, 3)(rng) == 0 &&
        !bytes.empty()) {
      bytes.resize(bytes.size() - 1 -
                   std::uniform_int_distribution<size_t>(0, 2)(rng));
    }
    CheckCopyWords(bytes, n, count);
  }
}

// ---------------------------------------------------------------------------
// EqualRangeU32

TEST(EqualRangeU32Test, MatchesStdEqualRange) {
  std::mt19937 rng(13);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t count = std::uniform_int_distribution<size_t>(0, 200)(rng);
    std::vector<uint32_t> values(count);
    for (auto& v : values) {
      v = std::uniform_int_distribution<uint32_t>(0, 60)(rng);
    }
    std::sort(values.begin(), values.end());
    for (uint32_t key = 0; key <= 61; ++key) {
      const auto [lo, hi] =
          std::equal_range(values.begin(), values.end(), key);
      for (SimdLevel level : TestableLevels()) {
        const EqualRange range =
            EqualRangeU32(level, values.data(), count, key);
        EXPECT_EQ(range.begin,
                  static_cast<size_t>(lo - values.begin()))
            << SimdLevelName(level) << " key=" << key;
        EXPECT_EQ(range.end, static_cast<size_t>(hi - values.begin()))
            << SimdLevelName(level) << " key=" << key;
      }
    }
  }
}

TEST(EqualRangeU32Test, ExtremeKeysAndValues) {
  const std::vector<uint32_t> values = {0, 0, 1, 5, 5, 5, UINT32_MAX - 1,
                                        UINT32_MAX, UINT32_MAX};
  for (uint32_t key : {0u, 1u, 2u, 5u, UINT32_MAX - 1, UINT32_MAX}) {
    const auto [lo, hi] = std::equal_range(values.begin(), values.end(), key);
    for (SimdLevel level : TestableLevels()) {
      const EqualRange range =
          EqualRangeU32(level, values.data(), values.size(), key);
      EXPECT_EQ(range.begin, static_cast<size_t>(lo - values.begin()))
          << SimdLevelName(level) << " key=" << key;
      EXPECT_EQ(range.end, static_cast<size_t>(hi - values.begin()))
          << SimdLevelName(level) << " key=" << key;
    }
  }
}

// ---------------------------------------------------------------------------
// FindFirstInvalidVertex

size_t ScalarFirstInvalid(const std::vector<uint32_t>& vertices, uint32_t n) {
  if (vertices.empty()) return 0;
  if (vertices[0] >= n) return 0;
  for (size_t i = 1; i < vertices.size(); ++i) {
    if (vertices[i] >= n || vertices[i] <= vertices[i - 1]) return i;
  }
  return vertices.size();
}

TEST(FindFirstInvalidVertexTest, AgreesWithScalarOnEveryViolationSite) {
  const uint32_t n = 100;
  std::mt19937 rng(17);
  for (size_t count : {0u, 1u, 3u, 7u, 8u, 9u, 16u, 33u, 50u}) {
    // A valid strictly-ascending base array of ids < n.
    std::vector<uint32_t> base;
    for (uint32_t v = 1; v < n && base.size() < count; ++v) {
      if (std::uniform_int_distribution<int>(0, 1)(rng) == 0) {
        base.push_back(v);
      }
    }
    const size_t m = base.size();
    for (SimdLevel level : TestableLevels()) {
      EXPECT_EQ(FindFirstInvalidVertex(level, base.data(), m, n), m)
          << SimdLevelName(level);
    }
    // Inject each violation kind at each index.
    for (size_t site = 0; site < m; ++site) {
      for (int kind = 0; kind < 3; ++kind) {
        std::vector<uint32_t> corrupted = base;
        if (kind == 0) {
          corrupted[site] = n + 7;  // out of range
        } else if (kind == 1 && site > 0) {
          corrupted[site] = corrupted[site - 1];  // duplicate
        } else if (kind == 2 && site > 0) {
          corrupted[site] = corrupted[site - 1] - 1;  // descending
        } else {
          continue;
        }
        const size_t expected = ScalarFirstInvalid(corrupted, n);
        for (SimdLevel level : TestableLevels()) {
          EXPECT_EQ(FindFirstInvalidVertex(level, corrupted.data(), m, n),
                    expected)
              << SimdLevelName(level) << " site=" << site
              << " kind=" << kind;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AccumulateBucket

TEST(AccumulateBucketTest, BitwiseIdenticalToScalarOnValidBuckets) {
  std::mt19937 rng(23);
  const uint32_t n = 300;
  for (int trial = 0; trial < 40; ++trial) {
    // A valid bucket: strictly-ascending distinct ids < n.
    std::vector<uint32_t> vertices;
    for (uint32_t v = 0; v < n; ++v) {
      if (std::uniform_int_distribution<int>(0, 3)(rng) == 0) {
        vertices.push_back(v);
      }
    }
    const uint32_t round = 42;
    const double weight = 0.015625;
    // Some vertices already met this round, some stale, some never met
    // (stamp 0: those are the first touches the kernel reports).
    std::vector<uint32_t> met_base(n);
    std::vector<double> result_base(n);
    for (uint32_t v = 0; v < n; ++v) {
      const int kind = std::uniform_int_distribution<int>(0, 2)(rng);
      met_base[v] = kind == 0 ? round : (kind == 1 ? 7 : 0);
      result_base[v] =
          std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    }
    std::vector<uint32_t> met_expected = met_base;
    std::vector<double> result_expected = result_base;
    std::vector<uint32_t> touched_expected(vertices.size());
    touched_expected.resize(AccumulateBucket(
        SimdLevel::kScalar, vertices.data(), vertices.size(), round, weight,
        met_expected.data(), result_expected.data(),
        touched_expected.data()));
    // The first touches are exactly the bucket's never-met vertices, in
    // bucket order.
    std::vector<uint32_t> never_met;
    for (const uint32_t v : vertices) {
      if (met_base[v] == 0) never_met.push_back(v);
    }
    EXPECT_EQ(touched_expected, never_met);
    for (SimdLevel level : TestableLevels()) {
      std::vector<uint32_t> met = met_base;
      std::vector<double> result = result_base;
      std::vector<uint32_t> touched(vertices.size());
      touched.resize(AccumulateBucket(level, vertices.data(),
                                      vertices.size(), round, weight,
                                      met.data(), result.data(),
                                      touched.data()));
      EXPECT_EQ(met, met_expected) << SimdLevelName(level);
      EXPECT_EQ(touched, touched_expected) << SimdLevelName(level);
      // Same adds in the same order: bitwise-equal doubles, not just near.
      for (uint32_t v = 0; v < n; ++v) {
        ASSERT_EQ(result[v], result_expected[v])
            << SimdLevelName(level) << " v=" << v;
      }
    }
  }
}

}  // namespace
}  // namespace simrank
