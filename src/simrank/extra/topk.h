// Top-k similarity queries over a computed score matrix or a single score
// row, dense or sparse (e.g. a single-source estimate from the walk
// index).
#ifndef OIPSIM_SIMRANK_EXTRA_TOPK_H_
#define OIPSIM_SIMRANK_EXTRA_TOPK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "simrank/graph/digraph.h"
#include "simrank/index/sparse_row.h"
#include "simrank/linalg/dense_matrix.h"

namespace simrank {

/// One ranked answer of a top-k query.
struct ScoredVertex {
  VertexId vertex = 0;
  double score = 0.0;

  friend bool operator==(const ScoredVertex&, const ScoredVertex&) = default;
};

/// Top-k over an explicit score row s(query, ·) of length n. Descending
/// score, ties broken by ascending id; the query vertex is excluded when
/// `exclude_query` is true. This is the primitive behind TopKSimilar, and
/// the oracle TopKFromSparse (the walk-index QueryEngine's path) is
/// tested against.
std::vector<ScoredVertex> TopKFromRow(std::span<const double> row,
                                      VertexId query, uint32_t k,
                                      bool exclude_query = true);

/// Top-k over a sparse row (SparseRow: ascending ids, stored scores > 0),
/// restricted to the vertices in [begin, min(end, row.n)). Bitwise equal
/// to TopKFromRow over the dense row's entries in that range (ids kept
/// global): the stored entries are partial-sorted under
/// ScoredVertexBefore, and when fewer than k of them qualify, zero-score
/// vertices follow in ascending id — exactly where the dense sort puts
/// them. O(nnz·log k + k) instead of O(n). Merging per-shard results —
/// each shard contributing its top k over its own range — under the same
/// comparator reproduces the full row's top-k exactly: the comparator is
/// a strict total order over distinct ids, and every global top-k member
/// is in its own shard's top-k.
std::vector<ScoredVertex> TopKFromSparseRange(const SparseRow& row,
                                              VertexId begin, VertexId end,
                                              VertexId query, uint32_t k,
                                              bool exclude_query = true);

/// TopKFromSparseRange over the whole row: bitwise equal to
/// TopKFromRow(row.Dense(), query, k, exclude_query).
inline std::vector<ScoredVertex> TopKFromSparse(const SparseRow& row,
                                                VertexId query, uint32_t k,
                                                bool exclude_query = true) {
  return TopKFromSparseRange(row, 0, row.n, query, k, exclude_query);
}

/// The TopKFromRow / TopKFromSparse comparator, exposed so a router can
/// merge per-shard candidates with the identical tie-breaking.
inline bool ScoredVertexBefore(const ScoredVertex& a, const ScoredVertex& b) {
  return a.score != b.score ? a.score > b.score : a.vertex < b.vertex;
}

/// Returns the k vertices most similar to `query` (descending score, ties
/// broken by ascending id for determinism). The query vertex itself is
/// excluded when `exclude_query` is true (the common "find my neighbours"
/// use, e.g. the paper's top-30 co-author list of Fig. 6h).
std::vector<ScoredVertex> TopKSimilar(const DenseMatrix& scores,
                                      VertexId query, uint32_t k,
                                      bool exclude_query = true);

/// Extracts the ranking (vertex ids only) from TopKSimilar.
std::vector<VertexId> TopKIds(const DenseMatrix& scores, VertexId query,
                              uint32_t k, bool exclude_query = true);

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_EXTRA_TOPK_H_
