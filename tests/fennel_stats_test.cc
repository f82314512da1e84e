#include <gtest/gtest.h>

#include <vector>

#include "baselines/fennel.h"
#include "graph/csr.h"
#include "graph/generators.h"

namespace tpsl {
namespace {

TEST(FennelTest, AssignsEveryVertexWithinCap) {
  SocialNetworkConfig config;
  config.num_vertices = 1 << 12;
  const auto edges = GenerateSocialNetwork(config);
  const CsrGraph graph = CsrGraph::FromEdges(edges);

  FennelConfig fennel;
  fennel.num_partitions = 16;
  auto result = FennelPartition(graph, fennel);
  ASSERT_TRUE(result.ok());

  uint64_t total_vertices = 0;
  const uint64_t capacity = static_cast<uint64_t>(
      fennel.balance_factor * graph.num_vertices() / 16) + 1;
  for (const uint64_t size : result->partition_sizes) {
    EXPECT_LE(size, capacity);
    total_vertices += size;
  }
  EXPECT_EQ(total_vertices, graph.num_vertices());
  for (const PartitionId p : result->vertex_partition) {
    EXPECT_LT(p, 16u);
  }
}

TEST(FennelTest, BeatsRandomCutOnCommunityGraph) {
  PlantedPartitionConfig config;
  config.num_vertices = 1 << 12;
  config.num_edges = 40000;
  config.num_communities = 256;  // dense 16-vertex communities
  config.intra_fraction = 0.95;
  const auto edges = GeneratePlantedPartition(config);
  const CsrGraph graph = CsrGraph::FromEdges(edges);

  FennelConfig fennel;
  fennel.num_partitions = 8;
  auto result = FennelPartition(graph, fennel);
  ASSERT_TRUE(result.ok());
  // Random 8-way vertex partition would cut ~7/8 = 0.875 of edges.
  EXPECT_LT(result->CutFraction(), 0.6);
}

TEST(FennelTest, EmptyGraph) {
  const CsrGraph graph = CsrGraph::FromEdges({});
  auto result = FennelPartition(graph, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_edges, 0u);
  EXPECT_DOUBLE_EQ(result->CutFraction(), 0.0);
}

TEST(FennelTest, InvalidConfigRejected) {
  const CsrGraph graph = CsrGraph::FromEdges({{0, 1}});
  FennelConfig config;
  config.num_partitions = 0;
  EXPECT_FALSE(FennelPartition(graph, config).ok());
  config.num_partitions = 2;
  config.gamma = 1.0;
  EXPECT_FALSE(FennelPartition(graph, config).ok());
}

}  // namespace
}  // namespace tpsl
