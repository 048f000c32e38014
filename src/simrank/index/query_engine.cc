#include "simrank/index/query_engine.h"

#include "simrank/common/string_util.h"
#include "simrank/obs/trace.h"

namespace simrank {

QueryEngine::QueryEngine(const WalkIndex& index,
                         const QueryEngineOptions& options)
    : index_(index),
      options_(options),
      cache_(options.Valid() ? options.cache_shards : 1,
             options.Valid() ? options.cache_capacity_per_shard : 1),
      pool_(options.num_threads) {
  OIPSIM_CHECK_MSG(options.Valid(),
                   "QueryEngineOptions: shards and capacity must be > 0");
}

Status QueryEngine::CheckVertex(VertexId v) const {
  if (v >= index_.n()) {
    return Status::OutOfRange(
        StrFormat("vertex %u out of range (index has %u vertices)", v,
                  index_.n()));
  }
  return Status::OK();
}

std::shared_ptr<QueryEngine::CachedRow> QueryEngine::GetFresh(
    VertexId v, uint64_t sequence) {
  TraceScope scope(TraceStage::kCacheLookup);
  if (auto hit = cache_.Get(v)) {
    if (hit->sequence == sequence) {
      TraceAdd(TraceCounter::kCacheHits, 1);
      return hit->row;
    }
    // Computed under an older overlay: unservable. Dropping it here keeps
    // the stale row from shadowing the recomputed one until eviction. A
    // *newer* stamp means this reader pinned its snapshot before an
    // update landed — the resident row is the fresh one; leave it for
    // current readers.
    if (hit->sequence < sequence) cache_.Erase(v);
  }
  TraceAdd(TraceCounter::kCacheMisses, 1);
  return nullptr;
}

Result<double> QueryEngine::PairAtSnapshot(
    VertexId a, VertexId b,
    const std::shared_ptr<const DeltaOverlay>& overlay) {
  OIPSIM_RETURN_IF_ERROR(CheckVertex(a));
  OIPSIM_RETURN_IF_ERROR(CheckVertex(b));
  const uint64_t sequence = overlay == nullptr ? 0 : overlay->sequence();
  // A resident (and fresh) row of either endpoint already holds the
  // answer.
  if (auto row = GetFresh(a, sequence)) return row->sparse.Score(b);
  if (auto row = GetFresh(b, sequence)) return row->sparse.Score(a);
  return index_.EstimatePair(a, b, overlay.get());
}

Result<std::shared_ptr<QueryEngine::CachedRow>>
QueryEngine::SingleSourceAtSnapshot(
    VertexId v, const std::shared_ptr<const DeltaOverlay>& overlay) {
  OIPSIM_RETURN_IF_ERROR(CheckVertex(v));
  const uint64_t sequence = overlay == nullptr ? 0 : overlay->sequence();
  if (auto row = GetFresh(v, sequence)) return row;
  auto row = std::make_shared<CachedRow>(
      index_.EstimateSingleSourceSparse(v, overlay.get()));
  // Stamped with the sequence the row was actually computed under; if an
  // update raced us, the stamp is stale and the row reads as a miss —
  // and in that case skip the insert rather than overwrite a row another
  // reader may have cached under the newer overlay.
  if (index_.overlay_sequence() == sequence) {
    cache_.Put(v, VersionedRow{sequence, row}, row->Bytes());
  }
  return row;
}

Result<std::vector<ScoredVertex>> QueryEngine::TopKAtSnapshot(
    VertexId v, uint32_t k,
    const std::shared_ptr<const DeltaOverlay>& overlay) {
  auto row = SingleSourceAtSnapshot(v, overlay);
  if (!row.ok()) return row.status();
  return TopKFromSparse((*row)->sparse, v, k, /*exclude_query=*/true);
}

Result<double> QueryEngine::Pair(VertexId a, VertexId b) {
  // One overlay snapshot serves the whole query: the cached-row check and
  // the fallback estimate must agree on the index version.
  return PairAtSnapshot(a, b, index_.overlay_snapshot());
}

Result<QueryEngine::SparseRowPtr> QueryEngine::SingleSourceSparse(
    VertexId v) {
  auto row = SingleSourceAtSnapshot(v, index_.overlay_snapshot());
  if (!row.ok()) return row.status();
  // Aliasing: the handle keeps the whole cached row alive.
  return SparseRowPtr(*row, &(*row)->sparse);
}

Result<QueryEngine::Row> QueryEngine::SingleSource(VertexId v) {
  auto row = SingleSourceAtSnapshot(v, index_.overlay_snapshot());
  if (!row.ok()) return row.status();
  CachedRow& cached = **row;
  std::lock_guard<std::mutex> lock(cached.dense_mutex);
  Row dense = cached.dense.lock();
  if (dense == nullptr) {
    dense = std::make_shared<const std::vector<double>>(cached.sparse.Dense());
    cached.dense = dense;
  }
  return dense;
}

Result<std::vector<ScoredVertex>> QueryEngine::TopK(VertexId v, uint32_t k) {
  return TopKAtSnapshot(v, k, index_.overlay_snapshot());
}

std::vector<Result<double>> QueryEngine::BatchPair(
    const std::vector<std::pair<VertexId, VertexId>>& queries) {
  // One snapshot for the whole batch: every answer reflects the same
  // index version even if an update lands mid-fanout.
  const auto overlay = index_.overlay_snapshot();
  // Mapped store: one batched readahead of every queried segment before
  // the fan-out, instead of each worker faulting its pages one at a time.
  // A hint — answers are identical with or without it.
  std::vector<VertexId> vertices;
  vertices.reserve(queries.size() * 2);
  for (const auto& [a, b] : queries) {
    vertices.push_back(a);
    vertices.push_back(b);
  }
  index_.store().Prefetch(vertices);
  std::vector<Result<double>> answers(queries.size(),
                                      Result<double>(0.0));
  pool_.ParallelFor(0, queries.size(), [&](uint64_t i) {
    answers[i] =
        PairAtSnapshot(queries[i].first, queries[i].second, overlay);
  });
  return answers;
}

std::vector<Result<std::vector<ScoredVertex>>> QueryEngine::BatchTopK(
    const std::vector<VertexId>& queries, uint32_t k) {
  const auto overlay = index_.overlay_snapshot();
  index_.store().Prefetch(queries);
  std::vector<Result<std::vector<ScoredVertex>>> answers(
      queries.size(),
      Result<std::vector<ScoredVertex>>(std::vector<ScoredVertex>{}));
  pool_.ParallelFor(0, queries.size(), [&](uint64_t i) {
    answers[i] = TopKAtSnapshot(queries[i], k, overlay);
  });
  return answers;
}

}  // namespace simrank
