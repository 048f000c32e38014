// Runtime-dispatched vector kernels for the serve path.
//
// Three hot loops dominate a walk-index query once the page cache is warm:
// the LEB128 delta+varint segment decode (walk_store.cc), the
// sorted-positions equal-range lookup behind WalkStore::Bucket, and the
// per-bucket score accumulation of EstimateSingleSource. Each gets an AVX2
// kernel with SSE4 and scalar fallbacks, selected once per process by
// CPUID (clamped by the SIMRANK_SIMD_LEVEL environment variable) and
// consulted per call, so one process can exercise every tier.
//
// The contract that keeps the repo's bitwise-equality discipline intact:
// a vector kernel never *replaces* the scalar path, it commits a prefix of
// the scalar path's work. Decode kernels validate a whole chunk in
// registers and either write it out and advance the cursor, or leave both
// untouched and return early — the caller's scalar loop then handles the
// tail, including every malformed-input case, at the exact byte offset the
// scalar-only build would report. The accumulation kernel only runs after
// a guard pass proved the bucket holds strictly-ascending in-range ids
// (the invariant valid files always satisfy); anything else replays the
// scalar walk so corruption diagnostics fire identically.
#ifndef OIPSIM_SIMRANK_COMMON_SIMD_H_
#define OIPSIM_SIMRANK_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace simrank {

/// Kernel tiers, ordered so a numeric comparison is "at most this wide".
enum class SimdLevel : uint8_t {
  kScalar = 0,
  kSse4 = 1,
  kAvx2 = 2,
};

/// "scalar", "sse4" or "avx2".
const char* SimdLevelName(SimdLevel level);

/// The widest tier this CPU supports (CPUID probe, cached). kScalar on
/// non-x86 builds.
SimdLevel MaxSupportedSimdLevel();

/// The tier the serve path uses: MaxSupportedSimdLevel() clamped by the
/// SIMRANK_SIMD_LEVEL environment variable ("scalar", "sse4" or "avx2";
/// unset or unrecognized values mean no clamp). Cached after the first
/// call; a relaxed atomic load afterwards.
SimdLevel ActiveSimdLevel();

/// Re-reads SIMRANK_SIMD_LEVEL and republishes the active level. Lets the
/// dispatch-correctness tests drive every tier from one process; callers
/// must not race it against in-flight queries.
void ReloadSimdLevelFromEnv();

/// Bulk-decodes a prefix of a run of `count` zigzag position-delta varints
/// from [*cursor, end) into out[0..), starting from previous position
/// `prev`, with every decoded position validated to lie in [0, n).
///
/// Partial-commit semantics: only whole chunks (8 values on AVX2, 4 on
/// SSE4) of single-byte varint codes that pass every validation are
/// written and consumed; the first multi-byte code, truncated chunk, or
/// out-of-range value stops the kernel *before* the offending chunk.
/// Returns the number of values decoded (cursor advanced past exactly
/// their bytes); the caller's scalar loop continues from there and is the
/// only place malformed input is diagnosed. kScalar always returns 0.
size_t DecodeDeltaRun(SimdLevel level, const uint8_t** cursor,
                      const uint8_t* end, uint32_t prev, uint32_t n,
                      uint32_t* out, size_t count);

/// Uncompressed-segment analog: copies a prefix of `count` little-endian
/// uint32 position words from [*cursor, end) into out[0..), committing
/// only whole chunks in which every word is < n. Returns the number of
/// words copied; the scalar loop owns the tail and every error. kScalar
/// always returns 0.
size_t CopyCheckedWords(SimdLevel level, const uint8_t** cursor,
                        const uint8_t* end, uint32_t n, uint32_t* out,
                        size_t count);

/// Half-open index range [begin, end) of `key` within the ascending array
/// `values` — exactly std::equal_range, at every level.
struct EqualRange {
  size_t begin = 0;
  size_t end = 0;
};
EqualRange EqualRangeU32(SimdLevel level, const uint32_t* values,
                         size_t count, uint32_t key);

/// Index of the first element violating the valid-bucket invariant
/// (vertices[i] < n and strictly ascending), or `count` when the whole
/// array satisfies it. The guard in front of AccumulateBucket.
size_t FindFirstInvalidVertex(SimdLevel level, const uint32_t* vertices,
                              size_t count, uint32_t n);

/// First-meeting accumulation over one valid bucket: for every b in
/// `vertices` with met_round[b] != round, adds `weight` to result[b] and
/// stamps met_round[b] = round. A b whose stamp was still 0 (never met
/// before; rounds start at 1) is also appended to `touched`, which must
/// have room for every such id; returns how many were appended. Caller
/// guarantees the valid-bucket invariant (all ids < the result extent,
/// strictly ascending), under which every level — including the gathered
/// AVX2 path — performs the identical set of updates as the scalar loop.
size_t AccumulateBucket(SimdLevel level, const uint32_t* vertices,
                        size_t count, uint32_t round, double weight,
                        uint32_t* met_round, double* result,
                        uint32_t* touched);

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_COMMON_SIMD_H_
