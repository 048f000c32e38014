#include "simrank/index/walk_index.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "simrank/common/coupled_hash.h"
#include "simrank/common/simd.h"
#include "simrank/common/string_util.h"
#include "simrank/common/thread_pool.h"
#include "simrank/graph/graph_io.h"
#include "simrank/obs/trace.h"

namespace simrank {

WalkIndexOptions WalkIndexOptions::FromAccuracy(double eps, double delta,
                                                const SimRankOptions& simrank) {
  WalkIndexOptions options = FromSimRank(simrank);
  if (!(eps > 0.0 && eps < 1.0) || !(delta > 0.0 && delta < 1.0)) {
    // Poison the result so Build() rejects it with a clear status instead
    // of silently serving a meaningless accuracy target.
    options.num_fingerprints = 0;
    return options;
  }
  // Inverse Hoeffding with half the error budget: R >= 2·ln(2/delta)/eps².
  // Derived in double first: for extreme targets R can exceed uint32, and
  // a narrowing cast would silently under-provision the index.
  const double fingerprints =
      std::ceil(2.0 * std::log(2.0 / delta) / (eps * eps));
  if (fingerprints > static_cast<double>(UINT32_MAX)) {
    options.num_fingerprints = 0;
    return options;
  }
  options.num_fingerprints = static_cast<uint32_t>(fingerprints);
  // Smallest L with truncation bias C^(L+1)/(1-C) <= eps/2; the geometric
  // tail shrinks by C per step, so a direct scan is cheap and exact. The
  // cap only exists for damping -> 1 pathologies; if it is hit the budget
  // cannot be met, so the target is rejected rather than silently missed.
  const double c = options.damping;
  uint32_t length = 1;
  double bias = c * c / (1.0 - c);  // L = 1
  while (bias > eps / 2.0 && length < kMaxWalkLength) {
    bias *= c;
    ++length;
  }
  if (bias > eps / 2.0) {
    options.num_fingerprints = 0;
    return options;
  }
  options.walk_length = length;
  return options;
}

WalkIndex WalkIndex::FromStore(std::unique_ptr<const WalkStore> store) {
  WalkIndex index;
  const WalkStoreMeta& meta = store->meta();
  index.options_.num_fingerprints = meta.num_fingerprints;
  index.options_.walk_length = meta.walk_length;
  index.options_.damping = meta.damping;
  index.options_.seed = meta.seed;
  index.store_ = std::move(store);
  index.overlay_slot_ = std::make_shared<OverlaySlot>();
  index.PrecomputeDampingPowers();
  return index;
}

void WalkIndex::PublishOverlay(std::shared_ptr<const DeltaOverlay> overlay) {
  OIPSIM_CHECK(overlay_slot_ != nullptr);
  std::lock_guard<std::mutex> lock(overlay_slot_->mutex);
  overlay_slot_->current = std::move(overlay);
}

std::shared_ptr<const DeltaOverlay> WalkIndex::overlay_snapshot() const {
  if (overlay_slot_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(overlay_slot_->mutex);
  return overlay_slot_->current;
}

Result<WalkIndex> WalkIndex::Build(const DiGraph& graph,
                                   const WalkIndexOptions& options) {
  if (!options.Valid()) {
    return Status::InvalidArgument(StrFormat(
        "walk index options invalid: need num_fingerprints > 0, "
        "walk_length in [1, %u], damping in (0, 1)", kMaxWalkLength));
  }
  const uint32_t n = graph.n();
  const uint32_t L = options.walk_length;
  std::vector<uint32_t> walks(
      static_cast<size_t>(options.num_fingerprints) * (L + 1) * n,
      kDeadWalk);

  // One task per fingerprint: every step depends only on (seed, r, t,
  // vertex), so the filled slices are identical for any thread count.
  ThreadPool pool(options.num_threads);
  uint32_t* data = walks.data();
  pool.ParallelFor(0, options.num_fingerprints, [&](uint64_t r) {
    const size_t base =
        static_cast<size_t>(r) * (static_cast<size_t>(L) + 1) * n;
    uint32_t* walk = data + base;
    for (uint32_t v = 0; v < n; ++v) walk[v] = v;
    for (uint32_t t = 1; t <= L; ++t) {
      const size_t prev = static_cast<size_t>(t - 1) * n;
      const size_t cur = static_cast<size_t>(t) * n;
      for (uint32_t v = 0; v < n; ++v) {
        const uint32_t at = walk[prev + v];
        if (at == kDeadWalk) continue;
        auto in = graph.InNeighbors(at);
        if (in.empty()) continue;  // walk dies at a source vertex
        walk[cur + v] =
            in[CoupledWalkHash(options.seed, static_cast<uint32_t>(r), t, at) %
               in.size()];
      }
    }
  });

  WalkStoreMeta meta;
  meta.n = n;
  meta.num_fingerprints = options.num_fingerprints;
  meta.walk_length = L;
  meta.damping = options.damping;
  meta.seed = options.seed;
  meta.graph_fingerprint = GraphFingerprint(graph);
  WalkIndex index = FromStore(WalkStore::Encode(
      meta, walks, /*compress=*/false, options.num_threads));
  index.options_.num_threads = options.num_threads;
  return index;
}

Result<WalkIndex> WalkIndex::Load(const std::string& path,
                                  const LoadOptions& load) {
  auto store = load.use_mmap ? WalkStore::Map(path) : WalkStore::Load(path);
  if (!store.ok()) return store.status();
  return FromStore(std::move(*store));
}

Status WalkIndex::Save(const std::string& path,
                       const SaveOptions& save) const {
  return SaveWalkStore(*store_, path, save.compress);
}

void WalkIndex::PrecomputeDampingPowers() {
  damping_powers_.resize(options_.walk_length + 1);
  for (uint32_t t = 0; t <= options_.walk_length; ++t) {
    damping_powers_[t] = std::pow(options_.damping, static_cast<double>(t));
  }
}

namespace {

/// Vertex `v`'s walk row under base+overlay (MaterializeRow layout) —
/// the one way every estimator reads walks; corruption while serving is
/// fatal (checked).
std::vector<uint32_t> ServingRow(const WalkStore& store,
                                 const DeltaOverlay* overlay, VertexId v) {
  TraceScope scope(TraceStage::kDecode);
  std::vector<uint32_t> row(store.WalkWords());
  const Status status = MaterializeRow(store, overlay, v, row.data());
  OIPSIM_CHECK_MSG(status.ok(), "corrupt walk segment while serving: %s",
                   status.ToString().c_str());
  if (TraceRecorder* recorder = CurrentTraceRecorder()) {
    recorder->Add(TraceCounter::kRowsDecoded, 1);
    recorder->Add(TraceCounter::kBytesRead, row.size() * sizeof(uint32_t));
  }
  return row;
}

/// Per-thread accumulation state of the sparse core, reused across
/// queries and across indexes. Between calls every `sum` entry is +0.0
/// and every `met_round` entry 0: a query resets exactly the ids it
/// touched, so only a thread's first row (or its first on a larger
/// index) pays O(n); every later one costs O(output).
struct AccumulationScratch {
  /// Unnormalized first-meeting sums, indexed by vertex.
  std::vector<double> sum;
  /// met_round[b] == r+1 marks that b's walk already met the query's
  /// within fingerprint r (first-meeting semantics) — an epoch stamp, so
  /// the array is never re-cleared mid-query; 0 means never met.
  std::vector<uint32_t> met_round;
  /// The ids whose stamp left 0, in first-meeting order; touched[0,
  /// touched_count) are the row's nonzeros (the query vertex excluded).
  std::vector<uint32_t> touched;
  size_t touched_count = 0;
  /// A bucket merged with its overlay slot diff.
  std::vector<uint32_t> merged_bucket;

  void Reserve(uint32_t n) {
    if (sum.size() >= n) return;
    sum.resize(n, 0.0);
    met_round.resize(n, 0);
    touched.resize(n);
  }
};

thread_local AccumulationScratch tls_scratch;

/// First-meeting accumulation over one bucket under base+overlay. The
/// scalar path is the checked ForEachBucketVertex walk — the reference
/// semantics, including the fatal diagnostic on out-of-range ids. With a
/// vector tier active, the bucket is first guarded (all ids < n, strictly
/// ascending — the invariant every valid file satisfies); only then does
/// the vector kernel take over, performing the identical set of updates in
/// the identical ascending order. A guard failure falls through to the
/// scalar walk untouched, so corruption behaves exactly as before.
void AccumulateBucketVertices(const WalkStore& store,
                              const DeltaOverlay* overlay, uint32_t r,
                              uint32_t t, uint32_t pv, uint32_t round,
                              double weight, uint32_t n,
                              AccumulationScratch* scratch) {
  TraceRecorder* const recorder = CurrentTraceRecorder();
  if (recorder != nullptr) {
    recorder->Add(TraceCounter::kSlotsProbed, 1);
    if (overlay != nullptr && overlay->Delta(r, t) != nullptr) {
      recorder->Add(TraceCounter::kOverlayRowsMerged, 1);
    }
  }
  uint32_t* const met_round = scratch->met_round.data();
  double* const sum = scratch->sum.data();
  const SimdLevel simd = ActiveSimdLevel();
  if (simd != SimdLevel::kScalar) {
    const uint32_t* vertices = nullptr;
    size_t count = 0;
    const DeltaOverlay::SlotDelta* delta =
        overlay == nullptr ? nullptr : overlay->Delta(r, t);
    if (delta == nullptr) {
      const std::span<const VertexId> base = store.Bucket(r, t, pv);
      vertices = base.data();
      count = base.size();
    } else {
      TraceScope merge_scope(TraceStage::kOverlayMerge);
      CollectBucketVertices(store, overlay, r, t, pv,
                            &scratch->merged_bucket);
      vertices = scratch->merged_bucket.data();
      count = scratch->merged_bucket.size();
    }
    if (FindFirstInvalidVertex(simd, vertices, count, n) == count) {
      if (recorder != nullptr) {
        recorder->Add(TraceCounter::kBucketEntries, count);
      }
      scratch->touched_count += AccumulateBucket(
          simd, vertices, count, round, weight, met_round, sum,
          scratch->touched.data() + scratch->touched_count);
      return;
    }
  }
  size_t scanned = 0;
  ForEachBucketVertex(store, overlay, r, t, pv, [&](const uint32_t b) {
    OIPSIM_CHECK_MSG(b < n,
                     "corrupt inverted index while serving: vertex id "
                     "%u >= n=%u (run VerifyPayload on this file)",
                     b, n);
    ++scanned;
    if (met_round[b] == round) return;
    if (met_round[b] == 0) scratch->touched[scratch->touched_count++] = b;
    sum[b] += weight;
    met_round[b] = round;
  });
  if (recorder != nullptr) {
    recorder->Add(TraceCounter::kBucketEntries, scanned);
  }
}

}  // namespace

double WalkIndex::EstimatePair(VertexId a, VertexId b,
                               const DeltaOverlay* overlay) const {
  OIPSIM_CHECK(a < n() && b < n());
  if (a == b) return 1.0;
  return EstimatePairWithRow(ServingRow(ServingStore(overlay), overlay, a),
                             b, overlay);
}

SparseRow WalkIndex::EstimateSingleSourceSparse(
    VertexId v, const DeltaOverlay* overlay) const {
  OIPSIM_CHECK(v < n());
  return EstimateSingleSourceSparseWithRow(
      v, ServingRow(ServingStore(overlay), overlay, v), overlay);
}

double WalkIndex::EstimatePairWithRow(std::span<const uint32_t> row_a,
                                      VertexId b,
                                      const DeltaOverlay* overlay) const {
  const WalkStore& store = ServingStore(overlay);
  OIPSIM_CHECK(b < store.meta().n);
  const uint32_t R = options_.num_fingerprints;
  const uint32_t L = options_.walk_length;
  const size_t row = static_cast<size_t>(L) + 1;
  OIPSIM_CHECK(row_a.size() == static_cast<size_t>(R) * row);
  const std::vector<uint32_t> row_b = ServingRow(store, overlay, b);
  // First meeting per fingerprint: the damping power of the first step at
  // which both walks sit at the same position, 0 if either dies first.
  double sum = 0.0;
  for (uint32_t r = 0; r < R; ++r) {
    for (uint32_t t = 1; t <= L; ++t) {
      const uint32_t pa = row_a[r * row + t];
      const uint32_t pb = row_b[r * row + t];
      if (pa == kDeadWalk || pb == kDeadWalk) break;  // a walk died
      if (pa == pb) {
        sum += damping_powers_[t];
        break;  // first meeting only
      }
    }
  }
  return sum / static_cast<double>(options_.num_fingerprints);
}

SparseRow WalkIndex::EstimateSingleSourceSparseWithRow(
    VertexId v, std::span<const uint32_t> row_v,
    const DeltaOverlay* overlay) const {
  const WalkStore& store = ServingStore(overlay);
  const uint32_t n = store.meta().n;
  OIPSIM_CHECK(v < n);
  const uint32_t R = options_.num_fingerprints;
  const uint32_t L = options_.walk_length;
  const size_t row = static_cast<size_t>(L) + 1;
  OIPSIM_CHECK(row_v.size() == static_cast<size_t>(R) * row);

  // The R·L bucket lookups below touch pages scattered across the whole
  // inverted region of a mapped store — start its readahead (a one-time
  // batched submission) before the first lookup faults.
  {
    TraceScope prefetch_scope(TraceStage::kColdRead);
    store.PrefetchSlots();
  }
  AccumulationScratch& scratch = tls_scratch;
  scratch.Reserve(n);
  scratch.touched_count = 0;
  TraceScope probe_scope(TraceStage::kIndexProbe);
  for (uint32_t r = 0; r < R; ++r) {
    const uint32_t round = r + 1;
    scratch.met_round[v] = round;
    for (uint32_t t = 1; t <= L; ++t) {
      const uint32_t pv = row_v[r * row + t];
      if (pv == kDeadWalk) break;  // v's walk died: no further meetings
      // Only the vertices actually parked at pv in this slot — the
      // output-sensitive core. Buckets (merged with the overlay's slot
      // diff when one is active) are ascending by vertex id, the same
      // per-b accumulation order as the scan, so each sum is the
      // identical left-to-right sum. Every id is bounds-checked before
      // use (corruption can break the ascending invariant too, so
      // checking only the last element would not do): an out-of-range id
      // is payload corruption the (deliberately payload-blind) mapped
      // open could not have seen, and it must not become an out-of-bounds
      // write — AccumulateBucketVertices guards before any vector fast
      // path and falls back to the checked scalar walk.
      AccumulateBucketVertices(store, overlay, r, t, pv, round,
                               damping_powers_[t], n, &scratch);
    }
  }
  // v is stamped before every round, so it is never among the touched
  // ids (leaving room for it); it goes in at 1.0. Each score is divided
  // (not multiplied by a reciprocal) so it is bit-identical to the
  // corresponding EstimatePair result for any fingerprint count.
  // Resetting the touched entries restores the scratch invariant for the
  // next query on this thread.
  scratch.touched[scratch.touched_count++] = v;
  const std::span<uint32_t> touched(scratch.touched.data(),
                                    scratch.touched_count);
  std::sort(touched.begin(), touched.end());
  SparseRow result;
  result.n = n;
  result.ids.assign(touched.begin(), touched.end());
  result.scores.reserve(touched.size());
  const double fingerprints = static_cast<double>(R);
  for (const uint32_t b : touched) {
    result.scores.push_back(b == v ? 1.0 : scratch.sum[b] / fingerprints);
    scratch.sum[b] = 0.0;
    scratch.met_round[b] = 0;
  }
  return result;
}

std::vector<uint32_t> WalkIndex::MaterializeRow(
    VertexId v, const DeltaOverlay* overlay) const {
  OIPSIM_CHECK(v < n());
  return ServingRow(ServingStore(overlay), overlay, v);
}

std::vector<uint32_t> WalkIndex::WalkTable(
    const DeltaOverlay* overlay) const {
  const WalkStore& store = ServingStore(overlay);
  std::vector<uint32_t> walks(store.WalkWords() * n());
  const Status status =
      MaterializeWalkTable(store, overlay, 0, n(), walks.data());
  OIPSIM_CHECK_MSG(status.ok(), "corrupt walk segment: %s",
                   status.ToString().c_str());
  return walks;
}

std::vector<double> WalkIndex::EstimateSingleSourceScan(
    VertexId v, std::span<const uint32_t> walks) const {
  const uint32_t n = this->n();
  OIPSIM_CHECK(v < n);
  const uint32_t L = options_.walk_length;
  const size_t row = static_cast<size_t>(L) + 1;
  OIPSIM_CHECK(walks.size() == options_.num_fingerprints * row * n);
  std::vector<double> result(n, 0.0);
  std::vector<uint32_t> met_round(n, 0);
  for (uint32_t r = 0; r < options_.num_fingerprints; ++r) {
    const uint32_t round = r + 1;
    met_round[v] = round;
    for (uint32_t t = 1; t <= L; ++t) {
      const uint32_t* slot = walks.data() + (r * row + t) * n;
      const uint32_t pv = slot[v];
      if (pv == kDeadWalk) break;
      const double weight = damping_powers_[t];
      for (uint32_t b = 0; b < n; ++b) {
        if (met_round[b] == round || slot[b] != pv) continue;
        result[b] += weight;
        met_round[b] = round;
      }
    }
  }
  const double fingerprints =
      static_cast<double>(options_.num_fingerprints);
  for (double& score : result) score /= fingerprints;
  result[v] = 1.0;
  return result;
}

Status WalkIndex::ValidateGraph(const DiGraph& graph) const {
  if (graph.n() != n()) {
    return Status::InvalidArgument(
        StrFormat("index built for %u vertices, graph has %u", n(),
                  graph.n()));
  }
  const uint64_t graph_print = GraphFingerprint(graph);
  if (graph_print != graph_fingerprint()) {
    return Status::InvalidArgument(StrFormat(
        "graph fingerprint mismatch: index was built from a different "
        "graph (index %s, graph %s)",
        FormatFingerprint(graph_fingerprint()).c_str(),
        FormatFingerprint(graph_print).c_str()));
  }
  return Status::OK();
}

}  // namespace simrank
