// Query serving layer over a WalkIndex.
//
// QueryEngine answers the three point-query shapes a SimRank service needs
// — Pair(a, b), SingleSource(v) and TopK(v, k) — from a prebuilt walk
// index, with a sharded LRU cache of single-source rows in front of the
// estimator. Rows are cached sparse (SparseRow: the ~nnz entries the
// inverted-position path touched, ~12 B each, instead of 8·n B), so a
// cached pair is a binary search, a cached top-k a partial sort of the
// nonzeros (TopKFromSparse), and a resident row costs memory in
// proportion to its output, not to n. Row misses go through the index's
// output-sensitive estimator (bitwise identical to the legacy full scan —
// see WalkIndex::EstimateSingleSourceSparse), so the engine serves
// identically whether the index is fully resident or mmap-backed. Batch
// variants fan the work across a thread pool (the cache is thread-safe),
// which is how a server drains a request queue.
#ifndef OIPSIM_SIMRANK_INDEX_QUERY_ENGINE_H_
#define OIPSIM_SIMRANK_INDEX_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "simrank/common/status.h"
#include "simrank/common/thread_pool.h"
#include "simrank/extra/topk.h"
#include "simrank/graph/digraph.h"
#include "simrank/index/lru_cache.h"
#include "simrank/index/walk_index.h"

namespace simrank {

/// Serving-time knobs. Defaults suit a few thousand distinct hot vertices.
struct QueryEngineOptions {
  /// Independently-locked cache shards.
  uint32_t cache_shards = 8;
  /// Cached single-source rows per shard (total rows = shards × this).
  uint32_t cache_capacity_per_shard = 128;
  /// Threads for the batch APIs; 0 means hardware concurrency.
  uint32_t num_threads = 0;

  bool Valid() const {
    return cache_shards > 0 && cache_capacity_per_shard > 0;
  }
};

/// Thread-safe query frontend. The WalkIndex must outlive the engine.
///
/// Dynamic updates: every cached row is stamped with the index's overlay
/// sequence at computation time, and a stale stamp reads as a miss — so a
/// concurrent IndexUpdater::ApplyUpdates can never make the engine serve a
/// pre-update row, even in the window between the overlay swap and an
/// explicit InvalidateCache(). InvalidateCache() additionally frees the
/// stale rows eagerly.
class QueryEngine {
 public:
  /// An immutable dense single-source score row s(v, ·).
  using Row = std::shared_ptr<const std::vector<double>>;
  /// A cached, immutable sparse single-source score row.
  using SparseRowPtr = std::shared_ptr<const SparseRow>;

  explicit QueryEngine(const WalkIndex& index,
                       const QueryEngineOptions& options = {});

  OIPSIM_DISALLOW_COPY_AND_ASSIGN(QueryEngine);

  /// Estimate of s(a, b). Served from a cached row (binary search) when
  /// one of the endpoints' rows is resident, otherwise O(R·L) from the
  /// index.
  Result<double> Pair(VertexId a, VertexId b);

  /// The nonzero entries of the estimated row s(v, ·), computed on miss —
  /// via the inverted position index, touching only vertices that share a
  /// walk slot with `v` — and cached. What the server serializes.
  Result<SparseRowPtr> SingleSourceSparse(VertexId v);

  /// SingleSourceSparse expanded to the full dense row. The cache owns
  /// only the sparse row; the expansion is shared with every caller that
  /// asks for the same cached row while an earlier one still holds it,
  /// and freed when the last one lets go.
  Result<Row> SingleSource(VertexId v);

  /// The k vertices most similar to `v` (self excluded), from the — cached
  /// — sparse single-source row via TopKFromSparse: bitwise the answer
  /// TopKFromRow gives on the dense row. Ties break by ascending id.
  Result<std::vector<ScoredVertex>> TopK(VertexId v, uint32_t k);

  /// Batch variants: answer[i] corresponds to queries[i]. Work is spread
  /// across the engine's thread pool; results are deterministic (identical
  /// to issuing the queries sequentially). The whole batch is pinned to
  /// one overlay snapshot, so a concurrent update can never make one
  /// response mix index versions.
  std::vector<Result<double>> BatchPair(
      const std::vector<std::pair<VertexId, VertexId>>& queries);
  std::vector<Result<std::vector<ScoredVertex>>> BatchTopK(
      const std::vector<VertexId>& queries, uint32_t k);

  /// Drops every cached row. Rows computed against an older overlay are
  /// already unservable through the sequence stamp; this frees them.
  /// (There is deliberately no per-row invalidation: an update stales
  /// *every* cached row — a row s(v, ·) depends on all vertices' walks,
  /// not just v's.)
  void InvalidateCache() { cache_.Clear(); }

  /// Aggregated cache counters (hits/misses/evictions) since construction,
  /// and resident_bytes: the bytes the cached rows hold right now (per
  /// row a fixed header plus 12 B per nonzero, see CachedRow).
  using CacheStats = LruCacheStats;
  CacheStats cache_stats() const { return cache_.stats(); }

  const WalkIndex& index() const { return index_; }

 private:
  /// One cached row: its sparse entries, plus a weak handle on the dense
  /// expansion SingleSource last handed out for it.
  struct CachedRow {
    explicit CachedRow(SparseRow row) : sparse(std::move(row)) {}

    /// What the cache charges for this row.
    uint64_t Bytes() const { return sizeof(CachedRow) + sparse.HeapBytes(); }

    const SparseRow sparse;
    std::mutex dense_mutex;
    std::weak_ptr<const std::vector<double>> dense;
  };

  /// Cache value: the row plus the overlay sequence it was computed under.
  struct VersionedRow {
    uint64_t sequence = 0;
    std::shared_ptr<CachedRow> row;
  };

  Status CheckVertex(VertexId v) const;

  /// The cached row of `v` if it is resident and was computed under
  /// overlay sequence `sequence`; stale entries read as absent.
  std::shared_ptr<CachedRow> GetFresh(VertexId v, uint64_t sequence);

  /// Pair/SingleSource/TopK against one pinned overlay snapshot — the
  /// shared core of the public entry points and the version-consistent
  /// batch APIs.
  Result<double> PairAtSnapshot(
      VertexId a, VertexId b,
      const std::shared_ptr<const DeltaOverlay>& overlay);
  Result<std::shared_ptr<CachedRow>> SingleSourceAtSnapshot(
      VertexId v, const std::shared_ptr<const DeltaOverlay>& overlay);
  Result<std::vector<ScoredVertex>> TopKAtSnapshot(
      VertexId v, uint32_t k,
      const std::shared_ptr<const DeltaOverlay>& overlay);

  const WalkIndex& index_;
  QueryEngineOptions options_;
  ShardedLruCache<VertexId, VersionedRow> cache_;
  ThreadPool pool_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_INDEX_QUERY_ENGINE_H_
