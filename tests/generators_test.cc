#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "graph/datasets.h"
#include "graph/degrees.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"

namespace tpsl {
namespace {

uint32_t MaxDegree(const std::vector<Edge>& edges) {
  InMemoryEdgeStream stream(edges);
  auto table = ComputeDegrees(stream);
  uint32_t max_degree = 0;
  for (const uint32_t d : table->degrees) {
    max_degree = std::max(max_degree, d);
  }
  return max_degree;
}

TEST(RmatTest, DeterministicForSeed) {
  RmatConfig config;
  config.scale = 10;
  config.edge_factor = 8;
  EXPECT_EQ(GenerateRmat(config), GenerateRmat(config));
  RmatConfig other = config;
  other.seed = config.seed + 1;
  EXPECT_NE(GenerateRmat(config), GenerateRmat(other));
}

TEST(RmatTest, ApproximateEdgeCount) {
  RmatConfig config;
  config.scale = 12;
  config.edge_factor = 8;
  const auto edges = GenerateRmat(config);
  const uint64_t target = uint64_t{8} << 12;
  // Self-loop removal discards a few edges.
  EXPECT_LE(edges.size(), target);
  EXPECT_GT(edges.size(), target * 95 / 100);
}

TEST(RmatTest, ProducesSkewedDegrees) {
  RmatConfig config;
  config.scale = 14;
  config.edge_factor = 16;
  const auto edges = GenerateRmat(config);
  const uint64_t mean_degree = 2 * edges.size() / (uint64_t{1} << 14);
  // Power-law-ish skew: the hub should dwarf the mean.
  EXPECT_GT(MaxDegree(edges), 10 * mean_degree);
}

TEST(RmatTest, VertexIdsWithinRange) {
  RmatConfig config;
  config.scale = 9;
  for (const Edge& e : GenerateRmat(config)) {
    EXPECT_LT(e.first, 1u << 9);
    EXPECT_LT(e.second, 1u << 9);
  }
}

TEST(RmatTest, NoSelfLoopsByDefault) {
  RmatConfig config;
  config.scale = 10;
  for (const Edge& e : GenerateRmat(config)) {
    EXPECT_NE(e.first, e.second);
  }
}

TEST(ErdosRenyiTest, ExactEdgeCountAndRange) {
  ErdosRenyiConfig config;
  config.num_vertices = 500;
  config.num_edges = 2000;
  const auto edges = GenerateErdosRenyi(config);
  EXPECT_EQ(edges.size(), 2000u);
  for (const Edge& e : edges) {
    EXPECT_LT(e.first, 500u);
    EXPECT_LT(e.second, 500u);
    EXPECT_NE(e.first, e.second);
  }
}

TEST(ErdosRenyiTest, Deterministic) {
  ErdosRenyiConfig config;
  EXPECT_EQ(GenerateErdosRenyi(config), GenerateErdosRenyi(config));
}

TEST(PlantedPartitionTest, IntraFractionApproximatelyHolds) {
  PlantedPartitionConfig config;
  config.num_vertices = 4096;
  config.num_edges = 100000;
  config.num_communities = 16;
  config.intra_fraction = 0.9;
  config.size_skew = 0.0;  // equal-size communities simplify the check
  const auto edges = GeneratePlantedPartition(config);
  ASSERT_EQ(edges.size(), 100000u);

  // With equal-sized contiguous communities, the community of a vertex
  // is id / community_size.
  const VertexId community_size = 4096 / 16;
  uint64_t intra = 0;
  for (const Edge& e : edges) {
    if (e.first / community_size == e.second / community_size) {
      ++intra;
    }
  }
  const double fraction = static_cast<double>(intra) / edges.size();
  EXPECT_GT(fraction, 0.85);
}

TEST(PlantedPartitionTest, Deterministic) {
  PlantedPartitionConfig config;
  config.num_vertices = 1024;
  config.num_edges = 5000;
  EXPECT_EQ(GeneratePlantedPartition(config),
            GeneratePlantedPartition(config));
}

TEST(CleanupTest, RemoveSelfLoops) {
  std::vector<Edge> edges = {{0, 1}, {2, 2}, {1, 0}, {3, 3}};
  RemoveSelfLoops(&edges);
  EXPECT_EQ(edges, (std::vector<Edge>{{0, 1}, {1, 0}}));
}

TEST(CleanupTest, DeduplicateUndirected) {
  std::vector<Edge> edges = {{1, 0}, {0, 1}, {2, 3}, {3, 2}, {2, 3}};
  DeduplicateUndirected(&edges);
  EXPECT_EQ(edges, (std::vector<Edge>{{0, 1}, {2, 3}}));
}

TEST(CleanupTest, ShuffleIsPermutation) {
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < 100; ++i) {
    edges.push_back(Edge{i, i + 1});
  }
  std::vector<Edge> shuffled = edges;
  ShuffleEdges(&shuffled, 42);
  EXPECT_NE(shuffled, edges);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, edges);
}

TEST(DatasetsTest, AllDatasetsLoadAndFollowSizeOrdering) {
  uint64_t previous_size = 0;
  for (const DatasetSpec& spec : AllDatasets()) {
    auto edges_or = LoadDataset(spec.name, /*scale_shift=*/4);
    ASSERT_TRUE(edges_or.ok()) << spec.name;
    EXPECT_GT(edges_or->size(), 0u) << spec.name;
    // Paper Table III ordering: each dataset at least as large as the
    // previous one (weak monotonicity at small scales).
    EXPECT_GE(edges_or->size(), previous_size * 9 / 10) << spec.name;
    previous_size = edges_or->size();
  }
}

TEST(DatasetsTest, UnknownNameIsNotFound) {
  auto result = LoadDataset("NOPE");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(DatasetsTest, NegativeScaleShiftRejected) {
  auto result = LoadDataset("OK", -1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetsTest, ScaleShiftShrinks) {
  auto big = LoadDataset("OK", 3);
  auto small = LoadDataset("OK", 5);
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(small.ok());
  EXPECT_GT(big->size(), small->size());
}

TEST(DatasetsTest, RestreamingStudyHasFourGraphs) {
  const auto& specs = RestreamingStudyDatasets();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "OK");
  EXPECT_EQ(specs[1].name, "IT");
  EXPECT_EQ(specs[2].name, "TW");
  EXPECT_EQ(specs[3].name, "FR");
}

}  // namespace
}  // namespace tpsl
