// Dispatch-correctness suite for the serve-path SIMD kernels: every tier
// (scalar / SSE4 / AVX2, forced via SIMRANK_SIMD_LEVEL) must produce
// byte-identical query results and byte-identical corruption diagnostics,
// on both storage backends and both segment encodings — including the
// sparse single-source core, with and without an update overlay. This is the
// executable statement of the repo's bitwise-equality discipline for the
// vector fast paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "simrank/common/simd.h"
#include "simrank/extra/topk.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/walk_index.h"
#include "simrank/index/walk_store.h"
#include "testing/fixtures.h"

namespace simrank {
namespace {

std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = "simd_dispatch_" + std::string(info->name()) + "_" + name;
  // Parameterized test names contain '/' — not directory parts here.
  std::replace(tag.begin(), tag.end(), '/', '_');
  return ::testing::TempDir() + tag;
}

// Forces one kernel tier for a scope, restoring the prior environment (and
// the published level) on destruction.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(const char* level) {
    const char* prior = std::getenv("SIMRANK_SIMD_LEVEL");
    had_prior_ = prior != nullptr;
    if (had_prior_) prior_ = prior;
    setenv("SIMRANK_SIMD_LEVEL", level, 1);
    ReloadSimdLevelFromEnv();
  }
  ~ScopedSimdLevel() {
    if (had_prior_) {
      setenv("SIMRANK_SIMD_LEVEL", prior_.c_str(), 1);
    } else {
      unsetenv("SIMRANK_SIMD_LEVEL");
    }
    ReloadSimdLevelFromEnv();
  }

 private:
  bool had_prior_ = false;
  std::string prior_;
};

// Tier names this CPU can actually run (forcing a wider tier than the CPU
// supports would silently clamp and test nothing new).
std::vector<const char*> RunnableTiers() {
  std::vector<const char*> tiers = {"scalar"};
  const auto max = static_cast<uint8_t>(MaxSupportedSimdLevel());
  if (max >= static_cast<uint8_t>(SimdLevel::kSse4)) tiers.push_back("sse4");
  if (max >= static_cast<uint8_t>(SimdLevel::kAvx2)) tiers.push_back("avx2");
  return tiers;
}

struct QuerySnapshot {
  std::vector<std::vector<double>> rows;       // SingleSource per vertex
  std::vector<double> pairs;                   // a sweep of Pair scores
  std::vector<std::vector<ScoredVertex>> topk; // TopK per vertex
};

// Runs the full query surface against one opened index.
QuerySnapshot Snapshot(const WalkIndex& index) {
  QuerySnapshot snap;
  QueryEngine engine(index);
  const uint32_t n = index.n();
  for (VertexId v = 0; v < n; ++v) {
    snap.rows.push_back(index.EstimateSingleSource(v));
    auto topk = engine.TopK(v, 5);
    EXPECT_TRUE(topk.ok());
    snap.topk.push_back(std::move(topk).value());
  }
  for (VertexId a = 0; a < n; a += 2) {
    for (VertexId b = 1; b < n; b += 3) {
      snap.pairs.push_back(index.EstimatePair(a, b));
    }
  }
  return snap;
}

// Bitwise comparison — EXPECT_EQ on doubles is exact equality, which is
// the contract: the kernels perform the same arithmetic in the same order.
void ExpectIdentical(const QuerySnapshot& got, const QuerySnapshot& want,
                     const char* tier) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << tier;
  for (size_t v = 0; v < want.rows.size(); ++v) {
    ASSERT_EQ(got.rows[v].size(), want.rows[v].size()) << tier;
    ASSERT_EQ(std::memcmp(got.rows[v].data(), want.rows[v].data(),
                          want.rows[v].size() * sizeof(double)),
              0)
        << tier << " row " << v;
    ASSERT_EQ(got.topk[v], want.topk[v]) << tier << " topk " << v;
  }
  ASSERT_EQ(got.pairs.size(), want.pairs.size()) << tier;
  ASSERT_EQ(std::memcmp(got.pairs.data(), want.pairs.data(),
                        want.pairs.size() * sizeof(double)),
            0)
      << tier;
}

struct BackendEncoding {
  bool use_mmap;
  bool compress;
};

class SimdDispatchTest
    : public ::testing::TestWithParam<BackendEncoding> {};

TEST_P(SimdDispatchTest, EveryTierServesByteIdenticalAnswers) {
  const BackendEncoding param = GetParam();
  DiGraph graph = testing::RandomGraph(60, 260, 29);
  WalkIndexOptions options;
  options.num_fingerprints = 96;
  auto built = WalkIndex::Build(graph, options);
  ASSERT_TRUE(built.ok());
  const std::string path = TempPath("index.widx");
  WalkIndex::SaveOptions save;
  save.compress = param.compress;
  ASSERT_TRUE(built->Save(path, save).ok());

  WalkIndex::LoadOptions load;
  load.use_mmap = param.use_mmap;

  // Reference: everything under the forced-scalar tier.
  QuerySnapshot reference;
  {
    ScopedSimdLevel forced("scalar");
    ASSERT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
    auto index = WalkIndex::Load(path, load);
    ASSERT_TRUE(index.ok()) << index.status().message();
    reference = Snapshot(*index);
  }

  for (const char* tier : RunnableTiers()) {
    SCOPED_TRACE(tier);
    ScopedSimdLevel forced(tier);
    // Open fresh per tier so the load-time checks run under the tier as
    // well, not just the serve path.
    auto index = WalkIndex::Load(path, load);
    ASSERT_TRUE(index.ok()) << index.status().message();
    ExpectIdentical(Snapshot(*index), reference, tier);
  }
}

// Flips single payload bytes and checks that every tier reports the exact
// same verification outcome — same status code, same message, same first
// corrupt offset. The kernels must never turn a detectable corruption into
// a different (or silently absent) diagnostic.
TEST_P(SimdDispatchTest, CorruptionDiagnosticsMatchAcrossTiers) {
  const BackendEncoding param = GetParam();
  if (!param.use_mmap) {
    GTEST_SKIP() << "the in-memory backend rejects corrupt files on the "
                    "load-time checksum, before any kernel runs";
  }
  DiGraph graph = testing::RandomGraph(40, 170, 31);
  WalkIndexOptions options;
  options.num_fingerprints = 64;
  auto built = WalkIndex::Build(graph, options);
  ASSERT_TRUE(built.ok());
  const std::string clean_path = TempPath("clean.widx");
  WalkIndex::SaveOptions save;
  save.compress = param.compress;
  ASSERT_TRUE(built->Save(clean_path, save).ok());

  std::string bytes;
  {
    std::ifstream in(clean_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 2 * 4096u);

  // Probe byte flips across the payload (pages after header+directory).
  const size_t first_payload = 2 * 4096;
  size_t corrupt_cases = 0;
  for (size_t offset = first_payload; offset < bytes.size();
       offset += 197) {
    std::string tampered = bytes;
    tampered[offset] = static_cast<char>(tampered[offset] ^ 0x2A);
    const std::string path = TempPath("tampered.widx");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(tampered.data(),
                static_cast<std::streamsize>(tampered.size()));
    }

    // The scalar tier defines the expected outcome.
    bool ref_open_ok;
    std::string ref_open_error;
    bool ref_verify_ok = false;
    std::string ref_verify_error;
    {
      ScopedSimdLevel forced("scalar");
      auto store = WalkStore::Map(path);
      ref_open_ok = store.ok();
      if (!ref_open_ok) {
        ref_open_error = store.status().ToString();
      } else {
        const Status verify = (*store)->VerifyPayload();
        ref_verify_ok = verify.ok();
        if (!ref_verify_ok) ref_verify_error = verify.ToString();
      }
    }
    if (!ref_verify_ok) ++corrupt_cases;

    for (const char* tier : RunnableTiers()) {
      SCOPED_TRACE(std::string(tier) + " offset=" + std::to_string(offset));
      ScopedSimdLevel forced(tier);
      auto store = WalkStore::Map(path);
      ASSERT_EQ(store.ok(), ref_open_ok);
      if (!store.ok()) {
        EXPECT_EQ(store.status().ToString(), ref_open_error);
        continue;
      }
      const Status verify = (*store)->VerifyPayload();
      ASSERT_EQ(verify.ok(), ref_verify_ok);
      if (!verify.ok()) EXPECT_EQ(verify.ToString(), ref_verify_error);
    }
  }
  // The sweep must have exercised real corruption, not just harmless flips.
  EXPECT_GT(corrupt_cases, 0u);
}

// Checks every vertex's sparse row under `overlay` against the O(R·L·n)
// scan over the flat walk table under the same overlay: the expansion is
// bitwise the scan's row, and the entries keep the SparseRow invariants.
void ExpectSparseRowsMatchScan(const WalkIndex& index,
                               const DeltaOverlay* overlay) {
  const std::vector<uint32_t> walks = index.WalkTable(overlay);
  for (VertexId v = 0; v < index.n(); ++v) {
    const SparseRow sparse = index.EstimateSingleSourceSparse(v, overlay);
    ASSERT_EQ(sparse.n, index.n());
    ASSERT_EQ(sparse.ids.size(), sparse.scores.size());
    for (size_t i = 0; i < sparse.ids.size(); ++i) {
      ASSERT_LT(sparse.ids[i], sparse.n);
      if (i > 0) ASSERT_LT(sparse.ids[i - 1], sparse.ids[i]);
      ASSERT_GT(sparse.scores[i], 0.0);
    }
    const std::vector<double> dense = sparse.Dense();
    const std::vector<double> scan = index.EstimateSingleSourceScan(v, walks);
    ASSERT_EQ(dense.size(), scan.size());
    ASSERT_EQ(std::memcmp(dense.data(), scan.data(),
                          scan.size() * sizeof(double)),
              0)
        << "row " << v;
  }
}

TEST_P(SimdDispatchTest, SparseRowsExpandToTheScanAtEveryTier) {
  const BackendEncoding param = GetParam();
  const DiGraph graph = testing::RandomGraph(50, 200, 37);
  WalkIndexOptions options;
  options.num_fingerprints = 64;
  options.walk_length = 6;
  auto built = WalkIndex::Build(graph, options);
  ASSERT_TRUE(built.ok());
  const std::string path = TempPath("index.widx");
  WalkIndex::SaveOptions save;
  save.compress = param.compress;
  ASSERT_TRUE(built->Save(path, save).ok());
  WalkIndex::LoadOptions load;
  load.use_mmap = param.use_mmap;
  // Two edges absent from the graph, for the overlay batch.
  std::vector<Edge> fresh;
  for (VertexId src = 0; fresh.size() < 2; ++src) {
    for (VertexId dst = 0; dst < graph.n() && fresh.size() < 2; ++dst) {
      if (src != dst && !graph.HasEdge(src, dst)) {
        fresh.push_back(Edge{src, dst});
      }
    }
  }

  for (const char* tier : RunnableTiers()) {
    SCOPED_TRACE(tier);
    ScopedSimdLevel forced(tier);
    auto index = WalkIndex::Load(path, load);
    ASSERT_TRUE(index.ok()) << index.status().message();
    ExpectSparseRowsMatchScan(*index, nullptr);

    const std::string wal_path = TempPath(std::string(tier) + ".wal");
    std::remove(wal_path.c_str());
    IndexUpdaterOptions updater_options;
    updater_options.wal_path = wal_path;
    auto updater = IndexUpdater::Open(*index, graph, updater_options);
    ASSERT_TRUE(updater.ok()) << updater.status().ToString();
    const std::vector<EdgeUpdate> batch = {
        {EdgeUpdate::Op::kInsert, fresh[0].src, fresh[0].dst},
        {EdgeUpdate::Op::kInsert, fresh[1].src, fresh[1].dst},
        {EdgeUpdate::Op::kDelete, graph.Edges()[5].src,
         graph.Edges()[5].dst}};
    ASSERT_TRUE((*updater)->ApplyUpdates(batch).ok());
    const auto overlay = index->overlay_snapshot();
    ASSERT_NE(overlay, nullptr);
    ExpectSparseRowsMatchScan(*index, overlay.get());
  }
}

// The accumulation scratch is per thread and reused: rows computed back to
// back on one thread — across two indexes of different n, in both orders —
// must equal the rows a fresh thread computes, so no query leaves state
// behind for the next.
TEST(SparseCoreTest, BackToBackQueriesAcrossIndexesLeaveNoScratchState) {
  WalkIndexOptions options;
  options.num_fingerprints = 48;
  options.walk_length = 6;
  auto small = WalkIndex::Build(testing::RandomGraph(30, 120, 41), options);
  auto large = WalkIndex::Build(testing::RandomGraph(90, 400, 43), options);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  // Reference rows, each from its own fresh thread.
  auto fresh_row = [](const WalkIndex& index, VertexId v) {
    std::vector<double> row;
    std::thread([&] { row = index.EstimateSingleSource(v); }).join();
    return row;
  };
  std::vector<std::vector<double>> small_rows;
  std::vector<std::vector<double>> large_rows;
  for (VertexId v = 0; v < small->n(); ++v) {
    small_rows.push_back(fresh_row(*small, v));
  }
  for (VertexId v = 0; v < large->n(); ++v) {
    large_rows.push_back(fresh_row(*large, v));
  }
  std::thread([&] {
    // Small first (the scratch grows later), then interleaved, then the
    // small index again after the large one left its scratch wider.
    for (int pass = 0; pass < 2; ++pass) {
      for (VertexId v = 0; v < large->n(); ++v) {
        const VertexId s = v % small->n();
        EXPECT_EQ(small->EstimateSingleSource(s), small_rows[s])
            << "pass " << pass << " small " << s;
        EXPECT_EQ(large->EstimateSingleSource(v), large_rows[v])
            << "pass " << pass << " large " << v;
      }
    }
  }).join();
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndEncodings, SimdDispatchTest,
    ::testing::Values(BackendEncoding{false, false},
                      BackendEncoding{false, true},
                      BackendEncoding{true, false},
                      BackendEncoding{true, true}),
    [](const ::testing::TestParamInfo<BackendEncoding>& info) {
      return std::string(info.param.use_mmap ? "Mmap" : "InMemory") +
             (info.param.compress ? "Compressed" : "Raw");
    });

}  // namespace
}  // namespace simrank
