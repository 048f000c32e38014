#include "simrank/extra/topk.h"

#include <algorithm>

#include "simrank/common/macros.h"

namespace simrank {

std::vector<ScoredVertex> TopKFromRow(std::span<const double> row,
                                      VertexId query, uint32_t k,
                                      bool exclude_query) {
  const auto n = static_cast<uint32_t>(row.size());
  std::vector<ScoredVertex> all;
  all.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    if (exclude_query && v == query) continue;
    all.push_back(ScoredVertex{v, row[v]});
  }
  const size_t keep = std::min<size_t>(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<int64_t>(keep),
                    all.end(), ScoredVertexBefore);
  all.resize(keep);
  return all;
}

std::vector<ScoredVertex> TopKFromSparseRange(const SparseRow& row,
                                              VertexId begin, VertexId end,
                                              VertexId query, uint32_t k,
                                              bool exclude_query) {
  end = std::min(end, row.n);
  if (begin >= end) return {};
  const auto first = static_cast<size_t>(
      std::lower_bound(row.ids.begin(), row.ids.end(), begin) -
      row.ids.begin());
  const auto last = static_cast<size_t>(
      std::lower_bound(row.ids.begin(), row.ids.end(), end) -
      row.ids.begin());
  std::vector<ScoredVertex> top;
  top.reserve(last - first);
  for (size_t i = first; i < last; ++i) {
    if (exclude_query && row.ids[i] == query) continue;
    top.push_back(ScoredVertex{row.ids[i], row.scores[i]});
  }
  const size_t keep = std::min<size_t>(k, top.size());
  std::partial_sort(top.begin(), top.begin() + static_cast<int64_t>(keep),
                    top.end(), ScoredVertexBefore);
  top.resize(keep);
  // Every stored score is > 0, so the zero-score vertices rank after all
  // of them, among themselves by ascending id.
  size_t stored = first;
  for (VertexId v = begin; v < end && top.size() < k; ++v) {
    if (stored < last && row.ids[stored] == v) {
      ++stored;
      continue;
    }
    if (exclude_query && v == query) continue;
    top.push_back(ScoredVertex{v, 0.0});
  }
  return top;
}

std::vector<ScoredVertex> TopKSimilar(const DenseMatrix& scores,
                                      VertexId query, uint32_t k,
                                      bool exclude_query) {
  OIPSIM_CHECK_LT(query, scores.rows());
  return TopKFromRow({scores.Row(query), scores.cols()}, query, k,
                     exclude_query);
}

std::vector<VertexId> TopKIds(const DenseMatrix& scores, VertexId query,
                              uint32_t k, bool exclude_query) {
  std::vector<VertexId> ids;
  for (const ScoredVertex& sv : TopKSimilar(scores, query, k, exclude_query)) {
    ids.push_back(sv.vertex);
  }
  return ids;
}

}  // namespace simrank
