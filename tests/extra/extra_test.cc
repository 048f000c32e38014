#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "simrank/common/rng.h"
#include "simrank/core/naive.h"
#include "simrank/core/psum.h"
#include "simrank/extra/montecarlo.h"
#include "simrank/extra/prank.h"
#include "simrank/extra/single_pair.h"
#include "simrank/extra/topk.h"
#include "simrank/linalg/dense_matrix.h"
#include "testing/fixtures.h"

namespace simrank {
namespace {

TEST(TopKTest, ReturnsDescendingScores) {
  DenseMatrix scores(4, 4);
  scores(0, 1) = 0.3;
  scores(0, 2) = 0.9;
  scores(0, 3) = 0.5;
  scores(0, 0) = 1.0;
  auto top = TopKSimilar(scores, 0, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].vertex, 2u);
  EXPECT_DOUBLE_EQ(top[0].score, 0.9);
  EXPECT_EQ(top[1].vertex, 3u);
}

TEST(TopKTest, ExcludesQueryByDefaultIncludesOnRequest) {
  DenseMatrix scores(3, 3);
  scores(1, 1) = 1.0;
  scores(1, 0) = 0.2;
  scores(1, 2) = 0.1;
  auto without = TopKIds(scores, 1, 3);
  EXPECT_EQ(without, (std::vector<VertexId>{0, 2}));
  auto with = TopKIds(scores, 1, 3, /*exclude_query=*/false);
  EXPECT_EQ(with, (std::vector<VertexId>{1, 0, 2}));
}

TEST(TopKTest, TiesBrokenByAscendingId) {
  DenseMatrix scores(4, 4);
  scores(0, 1) = 0.5;
  scores(0, 2) = 0.5;
  scores(0, 3) = 0.5;
  auto ids = TopKIds(scores, 0, 3);
  EXPECT_EQ(ids, (std::vector<VertexId>{1, 2, 3}));
}

/// A sparse row of length n with `nnz` stored entries drawn from a few
/// distinct values (so scores tie), the query vertex stored at 1.0.
SparseRow TiedSparseRow(uint32_t n, uint32_t nnz, VertexId query,
                        uint64_t seed) {
  Rng rng(seed);
  std::vector<bool> stored(n, false);
  stored[query] = true;
  for (uint32_t placed = 1; placed < nnz;) {
    const auto v = static_cast<VertexId>(rng.NextUint64(n));
    if (!stored[v]) {
      stored[v] = true;
      ++placed;
    }
  }
  static constexpr double kLevels[] = {0.5, 0.25, 0.125};
  SparseRow row;
  row.n = n;
  for (VertexId v = 0; v < n; ++v) {
    if (!stored[v]) continue;
    row.ids.push_back(v);
    row.scores.push_back(v == query ? 1.0 : kLevels[rng.NextUint64(3)]);
  }
  return row;
}

TEST(TopKTest, SparseMatchesDenseOracleBitwise) {
  const uint32_t n = 40;
  for (const uint32_t nnz : {1u, 2u, 9u, 40u}) {
    for (const VertexId query : {0u, 17u, 39u}) {
      const SparseRow row = TiedSparseRow(n, nnz, query, nnz * 131 + query);
      const std::vector<double> dense = row.Dense();
      for (const bool exclude : {true, false}) {
        for (const uint32_t k :
             {1u, nnz - 1, nnz, nnz + 3, n - 1, n + 5}) {
          if (k == 0) continue;
          SCOPED_TRACE(::testing::Message()
                       << "nnz=" << nnz << " query=" << query
                       << " exclude=" << exclude << " k=" << k);
          const auto want = TopKFromRow(dense, query, k, exclude);
          const auto got = TopKFromSparse(row, query, k, exclude);
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].vertex, want[i].vertex) << "rank " << i;
            EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score,
                                  sizeof(double)),
                      0)
                << "rank " << i;
          }
        }
      }
    }
  }
}

TEST(TopKTest, SparseRangeRanksOnlyItsSlice) {
  const SparseRow row = TiedSparseRow(30, 12, 4, 99);
  const std::vector<double> dense = row.Dense();
  for (const uint32_t k : {1u, 5u, 12u}) {
    const auto got = TopKFromSparseRange(row, 10, 20, 4, k);
    // The oracle: the dense top-k over the slice (the query, 4, lies
    // outside it), ids shifted back.
    const auto slice =
        TopKFromRow(std::span<const double>(dense).subspan(10, 10), 0, k,
                    /*exclude_query=*/false);
    ASSERT_EQ(got.size(), slice.size()) << "k=" << k;
    for (size_t i = 0; i < slice.size(); ++i) {
      EXPECT_EQ(got[i].vertex, slice[i].vertex + 10) << "k=" << k;
      EXPECT_EQ(got[i].score, slice[i].score) << "k=" << k;
    }
  }
  EXPECT_TRUE(TopKFromSparseRange(row, 20, 20, 4, 3).empty());
}

TEST(SinglePairTest, MatchesAllPairsIteration) {
  DiGraph graph = testing::PaperExampleGraph();
  SimRankOptions options;
  options.damping = 0.6;
  options.iterations = 6;
  auto all_pairs = PsumSimRank(graph, options);
  ASSERT_TRUE(all_pairs.ok());
  for (VertexId a = 0; a < graph.n(); ++a) {
    for (VertexId b = 0; b < graph.n(); ++b) {
      auto single = SinglePairSimRank(graph, a, b, options);
      ASSERT_TRUE(single.ok());
      EXPECT_NEAR(*single, (*all_pairs)(a, b), 1e-12)
          << "pair (" << a << "," << b << ")";
    }
  }
}

TEST(SinglePairTest, MemoisationKeepsSubproblemsBounded) {
  DiGraph graph = testing::RandomGraph(40, 160, 19);
  SimRankOptions options;
  options.iterations = 5;
  SinglePairStats stats;
  auto value = SinglePairSimRank(graph, 0, 1, options, &stats);
  ASSERT_TRUE(value.ok());
  // Memoised subproblems can never exceed pairs x depth.
  EXPECT_LE(stats.subproblems,
            static_cast<uint64_t>(graph.n()) * graph.n() * 5);
  EXPECT_GT(stats.subproblems, 0u);
}

TEST(SinglePairTest, OutOfRangeVertices) {
  DiGraph graph = testing::PaperExampleGraph();
  SimRankOptions options;
  options.iterations = 2;
  EXPECT_FALSE(SinglePairSimRank(graph, 0, 99, options).ok());
}

TEST(MonteCarloTest, DiagonalAndRangeInvariants) {
  DiGraph graph = testing::PaperExampleGraph();
  MonteCarloOptions options;
  options.num_fingerprints = 64;
  MonteCarloSimRank mc(graph, options);
  EXPECT_DOUBLE_EQ(mc.EstimatePair(0, 0), 1.0);
  for (VertexId a = 0; a < graph.n(); ++a) {
    for (VertexId b = 0; b < graph.n(); ++b) {
      const double estimate = mc.EstimatePair(a, b);
      EXPECT_GE(estimate, 0.0);
      EXPECT_LE(estimate, 1.0);
    }
  }
}

TEST(MonteCarloTest, ApproximatesExactScores) {
  DiGraph graph = testing::PaperExampleGraph();
  SimRankOptions exact_options;
  exact_options.damping = 0.6;
  exact_options.iterations = 12;
  auto exact = PsumSimRank(graph, exact_options);
  ASSERT_TRUE(exact.ok());
  MonteCarloOptions mc_options;
  mc_options.num_fingerprints = 4096;
  mc_options.walk_length = 12;
  mc_options.damping = 0.6;
  MonteCarloSimRank mc(graph, mc_options);
  // Spot-check a few informative pairs with a generous sampling tolerance.
  for (auto [a, b] : std::vector<std::pair<VertexId, VertexId>>{
           {testing::kA, testing::kC},
           {testing::kB, testing::kD},
           {testing::kA, testing::kE}}) {
    EXPECT_NEAR(mc.EstimatePair(a, b), (*exact)(a, b), 0.08)
        << "pair (" << a << "," << b << ")";
  }
}

TEST(MonteCarloTest, WithinHoeffdingToleranceOfNaive) {
  // Each pair estimate averages num_fingerprints i.i.d. samples in [0, 1],
  // so Hoeffding bounds the deviation from the (truncated-walk) mean; the
  // truncation itself biases down by at most C^(L+1)/(1-C). Check every
  // pair of the paper fixture against the naive ground truth under the
  // union bound at confidence 1 - 1e-3.
  DiGraph graph = testing::PaperExampleGraph();
  SimRankOptions exact_options;
  exact_options.damping = 0.6;
  exact_options.iterations = 16;
  auto exact = NaiveSimRank(graph, exact_options);
  ASSERT_TRUE(exact.ok());

  MonteCarloOptions options;
  options.num_fingerprints = 4096;
  options.walk_length = 12;
  options.damping = 0.6;
  MonteCarloSimRank mc(graph, options);

  const double pairs = static_cast<double>(graph.n()) * graph.n();
  const double hoeffding = std::sqrt(
      std::log(2.0 * pairs / 1e-3) / (2.0 * options.num_fingerprints));
  const double truncation =
      std::pow(options.damping, options.walk_length + 1.0) /
      (1.0 - options.damping);
  const double tolerance = hoeffding + truncation;
  for (VertexId a = 0; a < graph.n(); ++a) {
    for (VertexId b = 0; b < graph.n(); ++b) {
      EXPECT_NEAR(mc.EstimatePair(a, b), (*exact)(a, b), tolerance)
          << "pair (" << a << "," << b << ")";
    }
  }
}

TEST(MonteCarloTest, RowMatchesPairQueries) {
  DiGraph graph = testing::RandomGraph(20, 80, 23);
  MonteCarloOptions options;
  options.num_fingerprints = 32;
  MonteCarloSimRank mc(graph, options);
  auto row = mc.EstimateRow(3);
  ASSERT_EQ(row.size(), graph.n());
  for (VertexId b = 0; b < graph.n(); ++b) {
    EXPECT_DOUBLE_EQ(row[b], mc.EstimatePair(3, b));
  }
}

TEST(PRankTest, LambdaOneReducesToSimRank) {
  DiGraph graph = testing::RandomGraph(30, 120, 29);
  PRankOptions options;
  options.lambda = 1.0;
  options.simrank.damping = 0.7;
  options.simrank.iterations = 6;
  auto prank = PRank(graph, options);
  auto simrank = PsumSimRank(graph, options.simrank);
  ASSERT_TRUE(prank.ok() && simrank.ok());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(*prank, *simrank), 1e-12);
}

TEST(PRankTest, UsesOutLinksWhenLambdaZero) {
  // Two vertices pointing at the same target are "out-similar" even with
  // no in-links.
  DiGraph::Builder builder(3);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  DiGraph graph = std::move(builder).Build();
  PRankOptions options;
  options.lambda = 0.0;
  options.simrank.damping = 0.6;
  options.simrank.iterations = 3;
  auto prank = PRank(graph, options);
  ASSERT_TRUE(prank.ok());
  EXPECT_DOUBLE_EQ((*prank)(0, 1), 0.6);
  // Pure in-link SimRank sees nothing here.
  auto simrank = PsumSimRank(graph, options.simrank);
  ASSERT_TRUE(simrank.ok());
  EXPECT_DOUBLE_EQ((*simrank)(0, 1), 0.0);
}

TEST(PRankTest, RejectsBadLambda) {
  DiGraph graph = testing::PaperExampleGraph();
  PRankOptions options;
  options.lambda = 1.5;
  EXPECT_FALSE(PRank(graph, options).ok());
}

TEST(PRankTest, ScoresSymmetricAndBounded) {
  DiGraph graph = testing::RandomGraph(25, 100, 31);
  PRankOptions options;
  options.lambda = 0.4;
  options.simrank.iterations = 8;
  auto prank = PRank(graph, options);
  ASSERT_TRUE(prank.ok());
  for (uint32_t i = 0; i < graph.n(); ++i) {
    EXPECT_DOUBLE_EQ((*prank)(i, i), 1.0);
    for (uint32_t j = 0; j < graph.n(); ++j) {
      EXPECT_NEAR((*prank)(i, j), (*prank)(j, i), 1e-12);
      EXPECT_GE((*prank)(i, j), 0.0);
      EXPECT_LE((*prank)(i, j), 1.0 + 1e-12);
    }
  }
}

}  // namespace
}  // namespace simrank
