#include "simrank/cluster/shard_split.h"

#include <vector>

#include "simrank/common/string_util.h"
#include "simrank/index/delta_overlay.h"

namespace simrank {

Status WriteShardIndex(const WalkStore& store, const ShardRange& range,
                       const std::string& out_path, bool compress) {
  const WalkStoreMeta& meta = store.meta();
  const uint32_t n = meta.n;
  const uint32_t L = meta.walk_length;
  const uint32_t R = meta.num_fingerprints;
  if (range.end > n || range.begin >= range.end) {
    return Status::InvalidArgument(StrFormat(
        "shard range [%u, %u) is not a non-empty subrange of [0, %u)",
        range.begin, range.end, n));
  }

  // Flat walk table of the shard: in-range vertices get their decoded
  // rows, everything else the dead-from-step-1 row that a from-scratch
  // build produces for a vertex with no in-neighbours.
  std::vector<uint32_t> walks(store.WalkWords() * n, WalkStore::kDeadWalk);
  for (uint32_t r = 0; r < R; ++r) {
    const size_t step0 = static_cast<size_t>(r) * (L + 1) * n;
    for (VertexId v = 0; v < n; ++v) walks[step0 + v] = v;
  }
  OIPSIM_RETURN_IF_ERROR(MaterializeWalkTable(
      store, /*overlay=*/nullptr, range.begin, range.end, walks.data()));

  // Same meta (global n, global graph fingerprint): the shard stays
  // recognizably part of the one served graph, and the full index's WAL
  // identity binds to it unchanged.
  return SaveWalkStore(*WalkStore::Encode(meta, walks, compress), out_path,
                       compress);
}

}  // namespace simrank
