// Output-sensitive single-source score row.
//
// A walk-index row s(v, ·) is nonzero only at the vertices whose walks
// meet one of v's walks — a few dozen out of n on typical graphs — so the
// serving path carries just those entries: ascending ids with their
// scores, about 12 bytes per nonzero instead of 8·n for the dense array.
// Dense() expands it to exactly the array the dense estimators return
// (absent entries are +0.0), which is what oracles and the public dense
// APIs hand out.
#ifndef OIPSIM_SIMRANK_INDEX_SPARSE_ROW_H_
#define OIPSIM_SIMRANK_INDEX_SPARSE_ROW_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "simrank/graph/digraph.h"

namespace simrank {

/// The nonzero entries of one score row of length n. `ids` is strictly
/// ascending and < n; scores[i] is the score of ids[i] and is > 0 (a
/// walk-index row always stores its query vertex, at 1.0).
struct SparseRow {
  uint32_t n = 0;
  std::vector<VertexId> ids;
  std::vector<double> scores;

  size_t nnz() const { return ids.size(); }

  /// The score of `b` (< n): its stored value, 0.0 when absent. Binary
  /// search, O(log nnz).
  double Score(VertexId b) const {
    const auto it = std::lower_bound(ids.begin(), ids.end(), b);
    return it != ids.end() && *it == b ? scores[it - ids.begin()] : 0.0;
  }

  /// The dense row: scores at `ids`, +0.0 everywhere else.
  std::vector<double> Dense() const {
    std::vector<double> row(n, 0.0);
    for (size_t i = 0; i < ids.size(); ++i) row[ids[i]] = scores[i];
    return row;
  }

  /// Bytes the entries keep on the heap (12 per stored entry).
  size_t HeapBytes() const {
    return ids.capacity() * sizeof(VertexId) +
           scores.capacity() * sizeof(double);
  }
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_INDEX_SPARSE_ROW_H_
