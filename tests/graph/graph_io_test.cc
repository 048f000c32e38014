#include "simrank/graph/graph_io.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "testing/fixtures.h"

namespace simrank {
namespace {

TEST(GraphIoTest, ParseEdgeListBasic) {
  auto graph = ParseEdgeList("0 1\n1 2\n2 0\n");
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->n(), 3u);
  EXPECT_EQ(graph->m(), 3u);
  EXPECT_TRUE(graph->HasEdge(2, 0));
}

TEST(GraphIoTest, SkipsCommentsAndBlankLines) {
  auto graph = ParseEdgeList("# snap header\n\n% matrix market\n0 1\n");
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->m(), 1u);
}

TEST(GraphIoTest, CompactIdsRelabelDensely) {
  auto graph = ParseEdgeList("1000 2000\n2000 5\n");
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->n(), 3u);  // 1000 -> 0, 2000 -> 1, 5 -> 2
  EXPECT_TRUE(graph->HasEdge(0, 1));
  EXPECT_TRUE(graph->HasEdge(1, 2));
}

TEST(GraphIoTest, RawIdsPreserved) {
  auto graph = ParseEdgeList("0 4\n", /*compact_ids=*/false);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->n(), 5u);
  EXPECT_TRUE(graph->HasEdge(0, 4));
}

TEST(GraphIoTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseEdgeList("0\n").ok());
  EXPECT_FALSE(ParseEdgeList("0 1 2\n").ok());
  EXPECT_FALSE(ParseEdgeList("a b\n").ok());
  EXPECT_FALSE(ParseEdgeList("0 -1\n").ok());
}

TEST(GraphIoTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadEdgeList("/no/such/file.txt").ok());
  EXPECT_FALSE(ReadBinary("/no/such/file.bin").ok());
}

TEST(GraphIoTest, EdgeListFileRoundTrip) {
  DiGraph graph = testing::PaperExampleGraph();
  const std::string path = ::testing::TempDir() + "/oipsim_graph.txt";
  ASSERT_TRUE(WriteEdgeList(graph, path).ok());
  auto loaded = ReadEdgeList(path, /*compact_ids=*/false);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, graph);
}

TEST(GraphIoTest, BinaryRoundTrip) {
  DiGraph graph = testing::RandomGraph(60, 240, 14);
  const std::string path = ::testing::TempDir() + "/oipsim_graph.bin";
  ASSERT_TRUE(WriteBinary(graph, path).ok());
  auto loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, graph);
}

TEST(GraphIoTest, BinaryRoundTripGeneratedGraphs) {
  // WriteBinary -> ReadBinary must be the identity across structurally
  // different generator families, not just uniform random graphs.
  std::vector<std::pair<std::string, DiGraph>> graphs;
  graphs.emplace_back("webgraph", testing::OverlappyGraph(300, 5, 41));
  graphs.emplace_back("erdos_renyi", testing::RandomGraph(500, 2500, 42));
  {
    gen::RmatParams rmat;
    rmat.scale = 8;
    rmat.m_target = 2000;
    rmat.seed = 43;
    auto graph = gen::Rmat(rmat);
    ASSERT_TRUE(graph.ok());
    graphs.emplace_back("rmat", std::move(graph).value());
  }
  {
    gen::CitationGraphParams citation;
    citation.n = 400;
    citation.seed = 44;
    auto graph = gen::CitationGraph(citation);
    ASSERT_TRUE(graph.ok());
    graphs.emplace_back("citation", std::move(graph).value());
  }
  for (const auto& [name, graph] : graphs) {
    const std::string path =
        ::testing::TempDir() + "/oipsim_" + name + ".bin";
    ASSERT_TRUE(WriteBinary(graph, path).ok()) << name;
    auto loaded = ReadBinary(path);
    ASSERT_TRUE(loaded.ok()) << name;
    EXPECT_EQ(*loaded, graph) << name;
  }
}

TEST(GraphIoTest, BinaryRoundTripDegenerateGraphs) {
  const std::string path = ::testing::TempDir() + "/oipsim_degenerate.bin";
  // Empty graph.
  DiGraph empty;
  ASSERT_TRUE(WriteBinary(empty, path).ok());
  auto loaded_empty = ReadBinary(path);
  ASSERT_TRUE(loaded_empty.ok());
  EXPECT_EQ(*loaded_empty, empty);
  // Isolated vertices, zero edges.
  DiGraph isolated = std::move(DiGraph::Builder(7)).Build();
  ASSERT_TRUE(WriteBinary(isolated, path).ok());
  auto loaded_isolated = ReadBinary(path);
  ASSERT_TRUE(loaded_isolated.ok());
  EXPECT_EQ(*loaded_isolated, isolated);
}

TEST(GraphIoTest, GraphFingerprintIsStructural) {
  DiGraph graph = testing::PaperExampleGraph();
  // Deterministic and equal for equal graphs.
  EXPECT_EQ(GraphFingerprint(graph),
            GraphFingerprint(testing::PaperExampleGraph()));
  // Sensitive to edges (same n) and to vertex count (same edges).
  DiGraph::Builder builder(graph.n());
  builder.AddEdge(0, 1);
  EXPECT_NE(GraphFingerprint(graph),
            GraphFingerprint(std::move(builder).Build()));
  EXPECT_NE(GraphFingerprint(std::move(DiGraph::Builder(3)).Build()),
            GraphFingerprint(std::move(DiGraph::Builder(4)).Build()));
  // Survives a serialization round trip.
  const std::string path = ::testing::TempDir() + "/oipsim_fp.bin";
  ASSERT_TRUE(WriteBinary(graph, path).ok());
  auto loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(GraphFingerprint(*loaded), GraphFingerprint(graph));
}

TEST(GraphIoTest, FingerprintRoundTripsAndParsesStrictly) {
  for (const uint64_t fingerprint :
       {uint64_t{0}, uint64_t{1}, uint64_t{0x0123456789abcdef},
        ~uint64_t{0}, GraphFingerprint(testing::PaperExampleGraph())}) {
    const std::string text = FormatFingerprint(fingerprint);
    ASSERT_EQ(text.size(), 16u);
    uint64_t parsed = 0;
    ASSERT_TRUE(ParseFingerprint(text, &parsed)) << text;
    EXPECT_EQ(parsed, fingerprint);
  }
  // strtoull would accept all of these; a fingerprint must not.
  for (const char* bad :
       {"-1", "+1", " 1", "0x1", "-000000000000001", "+000000000000001",
        " 000000000000001", "0x00000000000001", "000000000000001",
        "00000000000000001", "000000000000000A", "ABCDEF0123456789", "",
        "000000000000000g", "00000000 0000001"}) {
    uint64_t parsed = 42;
    EXPECT_FALSE(ParseFingerprint(bad, &parsed)) << "'" << bad << "'";
    EXPECT_EQ(parsed, 42u) << "failure must leave the output untouched";
  }
}

TEST(GraphIoTest, BinaryRejectsCorruptHeader) {
  const std::string path = ::testing::TempDir() + "/oipsim_bad.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char garbage[] = "not a graph";
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);
  EXPECT_FALSE(ReadBinary(path).ok());
}

TEST(GraphIoTest, BinaryRejectsTruncatedBody) {
  DiGraph graph = testing::RandomGraph(20, 60, 2);
  const std::string path = ::testing::TempDir() + "/oipsim_trunc.bin";
  ASSERT_TRUE(WriteBinary(graph, path).ok());
  // Truncate the file in the middle of the edge array.
  std::FILE* f = std::fopen(path.c_str(), "r+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(ftruncate(fileno(f), 24), 0);
  std::fclose(f);
  EXPECT_FALSE(ReadBinary(path).ok());
}

}  // namespace
}  // namespace simrank
