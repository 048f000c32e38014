#include "simrank/common/simd.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdlib>
#include <cstring>

#if defined(__GNUC__) && defined(__x86_64__)
#define OIPSIM_SIMD_X86 1
#include <immintrin.h>
#else
#define OIPSIM_SIMD_X86 0
#endif

namespace simrank {
namespace {

SimdLevel DetectMaxLevel() {
#if OIPSIM_SIMD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  if (__builtin_cpu_supports("sse4.1")) return SimdLevel::kSse4;
#endif
  return SimdLevel::kScalar;
}

SimdLevel ClampFromEnv(SimdLevel max_level) {
  const char* env = std::getenv("SIMRANK_SIMD_LEVEL");
  if (env == nullptr) return max_level;
  SimdLevel requested = max_level;
  if (std::strcmp(env, "scalar") == 0) {
    requested = SimdLevel::kScalar;
  } else if (std::strcmp(env, "sse4") == 0) {
    requested = SimdLevel::kSse4;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = SimdLevel::kAvx2;
  }
  return static_cast<uint8_t>(requested) < static_cast<uint8_t>(max_level)
             ? requested
             : max_level;
}

std::atomic<SimdLevel>& ActiveLevelSlot() {
  static std::atomic<SimdLevel> level{ClampFromEnv(DetectMaxLevel())};
  return level;
}

#if OIPSIM_SIMD_X86

// ------------------------------------------------------ delta-run decode
//
// The fast path only handles chunks made entirely of single-byte varint
// codes (continuation bit clear), so deltas are in [-64, 63]. That makes
// the scalar loop's `zigzag >= 2n` pre-check vacuous for n >= 64, and it
// bounds every intermediate prefix value by prev ± 512 — exact in int32
// arithmetic as long as n + 512 fits. Outside those regimes the kernel
// declines the whole run (returns 0) and the scalar loop does the work.

__attribute__((target("avx2"))) size_t DecodeDeltaRunAvx2(
    const uint8_t** cursor, const uint8_t* end, uint32_t prev, uint32_t n,
    uint32_t* out, size_t count) {
  if (n < 64 || n > static_cast<uint32_t>(INT_MAX) - 512) return 0;
  const uint8_t* p = *cursor;
  size_t done = 0;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i vn = _mm256_set1_epi32(static_cast<int32_t>(n));
  const __m256i minus_one = _mm256_set1_epi32(-1);
  while (count - done >= 8 && end - p >= 8) {
    uint64_t chunk = 0;
    std::memcpy(&chunk, p, 8);
    if ((chunk & 0x8080808080808080ull) != 0) break;  // multi-byte code
    const __m128i bytes = _mm_cvtsi64_si128(static_cast<long long>(chunk));
    const __m256i z = _mm256_cvtepu8_epi32(bytes);
    // Zigzag decode: (z >> 1) ^ -(z & 1).
    const __m256i delta =
        _mm256_xor_si256(_mm256_srli_epi32(z, 1),
                         _mm256_sub_epi32(zero, _mm256_and_si256(z, one)));
    // Inclusive prefix sum: within each 128-bit lane, then carry the low
    // lane's total into the high lane, then rebase on prev.
    __m256i x = _mm256_add_epi32(delta, _mm256_slli_si256(delta, 4));
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
    __m256i carry = _mm256_permutevar8x32_epi32(x, _mm256_set1_epi32(3));
    carry = _mm256_blend_epi32(zero, carry, 0xF0);
    x = _mm256_add_epi32(x, carry);
    x = _mm256_add_epi32(x, _mm256_set1_epi32(static_cast<int32_t>(prev)));
    // Commit only when every position lands in [0, n); otherwise the
    // scalar loop re-decodes the chunk and owns the error message.
    const __m256i in_range = _mm256_and_si256(
        _mm256_cmpgt_epi32(x, minus_one), _mm256_cmpgt_epi32(vn, x));
    if (_mm256_movemask_ps(_mm256_castsi256_ps(in_range)) != 0xFF) break;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + done), x);
    prev = out[done + 7];
    p += 8;
    done += 8;
  }
  *cursor = p;
  return done;
}

__attribute__((target("sse4.1"))) size_t DecodeDeltaRunSse4(
    const uint8_t** cursor, const uint8_t* end, uint32_t prev, uint32_t n,
    uint32_t* out, size_t count) {
  if (n < 64 || n > static_cast<uint32_t>(INT_MAX) - 512) return 0;
  const uint8_t* p = *cursor;
  size_t done = 0;
  const __m128i zero = _mm_setzero_si128();
  const __m128i one = _mm_set1_epi32(1);
  const __m128i vn = _mm_set1_epi32(static_cast<int32_t>(n));
  const __m128i minus_one = _mm_set1_epi32(-1);
  while (count - done >= 4 && end - p >= 4) {
    uint32_t chunk = 0;
    std::memcpy(&chunk, p, 4);
    if ((chunk & 0x80808080u) != 0) break;
    const __m128i z =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(chunk)));
    const __m128i delta = _mm_xor_si128(
        _mm_srli_epi32(z, 1), _mm_sub_epi32(zero, _mm_and_si128(z, one)));
    __m128i x = _mm_add_epi32(delta, _mm_slli_si128(delta, 4));
    x = _mm_add_epi32(x, _mm_slli_si128(x, 8));
    x = _mm_add_epi32(x, _mm_set1_epi32(static_cast<int32_t>(prev)));
    const __m128i in_range =
        _mm_and_si128(_mm_cmpgt_epi32(x, minus_one), _mm_cmplt_epi32(x, vn));
    if (_mm_movemask_ps(_mm_castsi128_ps(in_range)) != 0xF) break;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + done), x);
    prev = out[done + 3];
    p += 4;
    done += 4;
  }
  *cursor = p;
  return done;
}

// ------------------------------------------------- checked uint32 copies

__attribute__((target("avx2"))) size_t CopyCheckedWordsAvx2(
    const uint8_t** cursor, const uint8_t* end, uint32_t n, uint32_t* out,
    size_t count) {
  const uint8_t* p = *cursor;
  size_t done = 0;
  // Unsigned v < n via the sign-flip trick (epi32 compares are signed).
  const __m256i bias = _mm256_set1_epi32(INT_MIN);
  const __m256i limit =
      _mm256_set1_epi32(static_cast<int32_t>(n ^ 0x80000000u));
  while (count - done >= 8 && end - p >= 32) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i less = _mm256_cmpgt_epi32(limit, _mm256_xor_si256(v, bias));
    if (_mm256_movemask_ps(_mm256_castsi256_ps(less)) != 0xFF) break;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + done), v);
    p += 32;
    done += 8;
  }
  *cursor = p;
  return done;
}

size_t CopyCheckedWordsSse4(const uint8_t** cursor, const uint8_t* end,
                            uint32_t n, uint32_t* out, size_t count) {
  const uint8_t* p = *cursor;
  size_t done = 0;
  const __m128i bias = _mm_set1_epi32(INT_MIN);
  const __m128i limit = _mm_set1_epi32(static_cast<int32_t>(n ^ 0x80000000u));
  while (count - done >= 4 && end - p >= 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i less = _mm_cmpgt_epi32(limit, _mm_xor_si128(v, bias));
    if (_mm_movemask_ps(_mm_castsi128_ps(less)) != 0xF) break;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + done), v);
    p += 16;
    done += 4;
  }
  *cursor = p;
  return done;
}

// ------------------------------------------------------ equal-range scan

__attribute__((target("avx2"))) size_t ScanFirstGeAvx2(
    const uint32_t* values, size_t begin, size_t end, uint32_t key) {
  const __m256i bias = _mm256_set1_epi32(INT_MIN);
  const __m256i k = _mm256_set1_epi32(static_cast<int32_t>(key ^ 0x80000000u));
  size_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i)),
        bias);
    const unsigned less = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(k, v))));
    if (less != 0xFF) {
      return i + static_cast<size_t>(__builtin_ctz(~less & 0xFF));
    }
  }
  for (; i < end; ++i) {
    if (values[i] >= key) return i;
  }
  return end;
}

__attribute__((target("avx2"))) size_t ScanFirstGtAvx2(
    const uint32_t* values, size_t begin, size_t end, uint32_t key) {
  const __m256i bias = _mm256_set1_epi32(INT_MIN);
  const __m256i k = _mm256_set1_epi32(static_cast<int32_t>(key ^ 0x80000000u));
  size_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i)),
        bias);
    const unsigned greater = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(v, k))));
    if (greater != 0) {
      return i + static_cast<size_t>(__builtin_ctz(greater));
    }
  }
  for (; i < end; ++i) {
    if (values[i] > key) return i;
  }
  return end;
}

size_t ScanFirstGeSse4(const uint32_t* values, size_t begin, size_t end,
                       uint32_t key) {
  const __m128i bias = _mm_set1_epi32(INT_MIN);
  const __m128i k = _mm_set1_epi32(static_cast<int32_t>(key ^ 0x80000000u));
  size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m128i v = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(values + i)), bias);
    const unsigned less = static_cast<unsigned>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(k, v))));
    if (less != 0xF) {
      return i + static_cast<size_t>(__builtin_ctz(~less & 0xF));
    }
  }
  for (; i < end; ++i) {
    if (values[i] >= key) return i;
  }
  return end;
}

size_t ScanFirstGtSse4(const uint32_t* values, size_t begin, size_t end,
                       uint32_t key) {
  const __m128i bias = _mm_set1_epi32(INT_MIN);
  const __m128i k = _mm_set1_epi32(static_cast<int32_t>(key ^ 0x80000000u));
  size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m128i v = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(values + i)), bias);
    const unsigned greater = static_cast<unsigned>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(v, k))));
    if (greater != 0) {
      return i + static_cast<size_t>(__builtin_ctz(greater));
    }
  }
  for (; i < end; ++i) {
    if (values[i] > key) return i;
  }
  return end;
}

// --------------------------------------------------------- bucket guard

__attribute__((target("avx2"))) size_t FindFirstInvalidVertexAvx2(
    const uint32_t* vertices, size_t count, uint32_t n) {
  if (count == 0) return 0;
  if (vertices[0] >= n) return 0;
  const __m256i bias = _mm256_set1_epi32(INT_MIN);
  const __m256i limit =
      _mm256_set1_epi32(static_cast<int32_t>(n ^ 0x80000000u));
  size_t i = 1;
  for (; i + 8 <= count; i += 8) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vertices + i)),
        bias);
    const __m256i before = _mm256_xor_si256(
        _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(vertices + i - 1)),
        bias);
    const __m256i ok = _mm256_and_si256(_mm256_cmpgt_epi32(limit, v),
                                        _mm256_cmpgt_epi32(v, before));
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(ok)));
    if (mask != 0xFF) {
      return i + static_cast<size_t>(__builtin_ctz(~mask & 0xFF));
    }
  }
  for (; i < count; ++i) {
    if (vertices[i] >= n || vertices[i] <= vertices[i - 1]) return i;
  }
  return count;
}

size_t FindFirstInvalidVertexSse4(const uint32_t* vertices, size_t count,
                                  uint32_t n) {
  if (count == 0) return 0;
  if (vertices[0] >= n) return 0;
  const __m128i bias = _mm_set1_epi32(INT_MIN);
  const __m128i limit = _mm_set1_epi32(static_cast<int32_t>(n ^ 0x80000000u));
  size_t i = 1;
  for (; i + 4 <= count; i += 4) {
    const __m128i v = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vertices + i)),
        bias);
    const __m128i before = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vertices + i - 1)),
        bias);
    const __m128i ok =
        _mm_and_si128(_mm_cmpgt_epi32(limit, v), _mm_cmpgt_epi32(v, before));
    const unsigned mask =
        static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(ok)));
    if (mask != 0xF) {
      return i + static_cast<size_t>(__builtin_ctz(~mask & 0xF));
    }
  }
  for (; i < count; ++i) {
    if (vertices[i] >= n || vertices[i] <= vertices[i - 1]) return i;
  }
  return count;
}

// --------------------------------------------------------- accumulation

__attribute__((target("avx2"))) size_t AccumulateBucketAvx2(
    const uint32_t* vertices, size_t count, uint32_t round, double weight,
    uint32_t* met_round, double* result, uint32_t* touched) {
  const __m256i vround = _mm256_set1_epi32(static_cast<int32_t>(round));
  size_t touched_count = 0;
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(vertices + i));
    // The guard proved all ids are in-range and distinct, so the gather
    // is safe and no lane's stamp depends on a sibling lane's update.
    const __m256i met = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(met_round), b, 4);
    unsigned fresh =
        ~static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(met, vround)))) &
        0xFF;
    while (fresh != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(fresh));
      fresh &= fresh - 1;
      const uint32_t v = vertices[i + lane];
      if (met_round[v] == 0) touched[touched_count++] = v;
      result[v] += weight;
      met_round[v] = round;
    }
  }
  for (; i < count; ++i) {
    const uint32_t v = vertices[i];
    if (met_round[v] == round) continue;
    if (met_round[v] == 0) touched[touched_count++] = v;
    result[v] += weight;
    met_round[v] = round;
  }
  return touched_count;
}

#endif  // OIPSIM_SIMD_X86

size_t AccumulateBucketScalar(const uint32_t* vertices, size_t count,
                              uint32_t round, double weight,
                              uint32_t* met_round, double* result,
                              uint32_t* touched) {
  size_t touched_count = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t v = vertices[i];
    if (met_round[v] == round) continue;
    if (met_round[v] == 0) touched[touched_count++] = v;
    result[v] += weight;
    met_round[v] = round;
  }
  return touched_count;
}

/// Branchless binary search narrowing the candidate window of the first
/// element >= key to at most `window` entries. Returns {lo, len}: every
/// index < lo holds a value < key, every index >= lo + len a value >= key.
std::pair<size_t, size_t> LowerBoundWindow(const uint32_t* values,
                                           size_t count, uint32_t key,
                                           size_t window) {
  size_t lo = 0;
  size_t len = count;
  while (len > window) {
    const size_t half = len / 2;
    if (values[lo + half] < key) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  return {lo, len};
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse4:
      return "sse4";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel MaxSupportedSimdLevel() {
  static const SimdLevel level = DetectMaxLevel();
  return level;
}

SimdLevel ActiveSimdLevel() {
  return ActiveLevelSlot().load(std::memory_order_relaxed);
}

void ReloadSimdLevelFromEnv() {
  ActiveLevelSlot().store(ClampFromEnv(MaxSupportedSimdLevel()),
                          std::memory_order_relaxed);
}

size_t DecodeDeltaRun(SimdLevel level, const uint8_t** cursor,
                      const uint8_t* end, uint32_t prev, uint32_t n,
                      uint32_t* out, size_t count) {
#if OIPSIM_SIMD_X86
  switch (level) {
    case SimdLevel::kAvx2:
      return DecodeDeltaRunAvx2(cursor, end, prev, n, out, count);
    case SimdLevel::kSse4:
      return DecodeDeltaRunSse4(cursor, end, prev, n, out, count);
    case SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  (void)cursor, (void)end, (void)prev, (void)n, (void)out, (void)count;
  return 0;
}

size_t CopyCheckedWords(SimdLevel level, const uint8_t** cursor,
                        const uint8_t* end, uint32_t n, uint32_t* out,
                        size_t count) {
#if OIPSIM_SIMD_X86
  switch (level) {
    case SimdLevel::kAvx2:
      return CopyCheckedWordsAvx2(cursor, end, n, out, count);
    case SimdLevel::kSse4:
      return CopyCheckedWordsSse4(cursor, end, n, out, count);
    case SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  (void)cursor, (void)end, (void)n, (void)out, (void)count;
  return 0;
}

EqualRange EqualRangeU32(SimdLevel level, const uint32_t* values,
                         size_t count, uint32_t key) {
#if OIPSIM_SIMD_X86
  if (level != SimdLevel::kScalar) {
    constexpr size_t kWindow = 32;
    const auto [lo, len] = LowerBoundWindow(values, count, key, kWindow);
    size_t first;
    size_t last;
    if (level == SimdLevel::kAvx2) {
      first = ScanFirstGeAvx2(values, lo, lo + len, key);
      last = ScanFirstGtAvx2(values, first, count, key);
    } else {
      first = ScanFirstGeSse4(values, lo, lo + len, key);
      last = ScanFirstGtSse4(values, first, count, key);
    }
    return {first, last};
  }
#else
  (void)level;
  (void)LowerBoundWindow;
#endif
  const uint32_t* begin = values;
  const uint32_t* end = values + count;
  const uint32_t* lo = std::lower_bound(begin, end, key);
  const uint32_t* hi = std::upper_bound(lo, end, key);
  return {static_cast<size_t>(lo - begin), static_cast<size_t>(hi - begin)};
}

size_t FindFirstInvalidVertex(SimdLevel level, const uint32_t* vertices,
                              size_t count, uint32_t n) {
#if OIPSIM_SIMD_X86
  switch (level) {
    case SimdLevel::kAvx2:
      return FindFirstInvalidVertexAvx2(vertices, count, n);
    case SimdLevel::kSse4:
      return FindFirstInvalidVertexSse4(vertices, count, n);
    case SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  if (count == 0) return 0;
  if (vertices[0] >= n) return 0;
  for (size_t i = 1; i < count; ++i) {
    if (vertices[i] >= n || vertices[i] <= vertices[i - 1]) return i;
  }
  return count;
}

size_t AccumulateBucket(SimdLevel level, const uint32_t* vertices,
                        size_t count, uint32_t round, double weight,
                        uint32_t* met_round, double* result,
                        uint32_t* touched) {
#if OIPSIM_SIMD_X86
  if (level == SimdLevel::kAvx2) {
    return AccumulateBucketAvx2(vertices, count, round, weight, met_round,
                                result, touched);
  }
#else
  (void)level;
#endif
  // The SSE tier has no 32-bit gather; its accumulate is the scalar loop.
  return AccumulateBucketScalar(vertices, count, round, weight, met_round,
                                result, touched);
}

}  // namespace simrank
