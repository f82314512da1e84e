#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/streaming_clustering.h"
#include "core/two_phase_partitioner.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/runner.h"

namespace tpsl {
namespace {

/// Parameterized invariant sweeps over the configuration spaces the
/// paper's evaluation varies: clustering (passes × cap × k) and the full
/// 2PS-L pipeline (k × alpha).

using ClusteringParam = std::tuple<uint32_t, double, uint32_t>;

class ClusteringSweepTest : public testing::TestWithParam<ClusteringParam> {
 protected:
  static const std::vector<Edge>& Edges() {
    static const std::vector<Edge>* edges = [] {
      SocialNetworkConfig config;
      config.num_vertices = 1 << 12;
      config.clique_size = 8;
      config.seed = 21;
      return new std::vector<Edge>(GenerateSocialNetwork(config));
    }();
    return *edges;
  }
};

TEST_P(ClusteringSweepTest, VolumeInvariantsHold) {
  const auto& [passes, cap_factor, k] = GetParam();
  InMemoryEdgeStream stream(Edges());
  auto degrees = ComputeDegrees(stream);
  ASSERT_TRUE(degrees.ok());

  ClusteringConfig config;
  config.num_passes = passes;
  config.volume_cap_factor = cap_factor;
  auto clustering = StreamingClustering(stream, *degrees, k, config);
  ASSERT_TRUE(clustering.ok());

  // (a) total volume conservation: Σ cluster volumes == 2|E|.
  uint64_t total = 0;
  for (const uint64_t volume : clustering->cluster_volumes) {
    ASSERT_GT(volume, 0u);  // compacted ids leave no empty clusters
    total += volume;
  }
  EXPECT_EQ(total, degrees->TotalVolume());

  // (b) every vertex with degree > 0 is clustered, and its cluster id
  // is dense.
  for (VertexId v = 0; v < clustering->vertex_cluster.size(); ++v) {
    const ClusterId c = clustering->vertex_cluster[v];
    if (degrees->degree(v) > 0) {
      ASSERT_NE(c, kInvalidCluster);
      ASSERT_LT(c, clustering->num_clusters());
    } else {
      ASSERT_EQ(c, kInvalidCluster);
    }
  }

  // (c) the volume cap holds up to single-vertex exceptions.
  uint32_t max_degree = 0;
  for (const uint32_t d : degrees->degrees) {
    max_degree = std::max(max_degree, d);
  }
  const uint64_t cap = static_cast<uint64_t>(
      cap_factor * static_cast<double>(degrees->TotalVolume()) / k);
  for (const uint64_t volume : clustering->cluster_volumes) {
    EXPECT_LE(volume, std::max<uint64_t>(cap, max_degree));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PassesCapK, ClusteringSweepTest,
    testing::Combine(testing::Values(1u, 2u, 4u),
                     testing::Values(0.1, 0.25, 1.0),
                     testing::Values(2u, 16u, 128u)),
    [](const testing::TestParamInfo<ClusteringParam>& info) {
      // Built with += (not operator+) to dodge GCC 12's bogus -Wrestrict
      // diagnostic on `const char* + std::string&&` (GCC PR 105329).
      std::string name = "p";
      name += std::to_string(std::get<0>(info.param));
      name += "_cap";
      name += std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
      name += "_k";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

using PipelineParam = std::tuple<uint32_t, double>;

class PipelineSweepTest : public testing::TestWithParam<PipelineParam> {};

TEST_P(PipelineSweepTest, ContractAcrossKAndAlpha) {
  const auto& [k, alpha] = GetParam();
  PlantedPartitionConfig graph_config;
  graph_config.num_vertices = 1 << 12;
  graph_config.num_edges = 30000;
  graph_config.num_communities = 256;
  const auto edges = GeneratePlantedPartition(graph_config);

  TwoPhasePartitioner partitioner;
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = k;
  config.balance_factor = alpha;
  auto result = RunPartitioner(partitioner, stream, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->quality.num_edges, edges.size());
  EXPECT_LE(result->quality.max_partition_size,
            config.PartitionCapacity(edges.size()));
  // Replication factor can never exceed min(k, covered vertices).
  EXPECT_LE(result->quality.replication_factor, static_cast<double>(k));
}

INSTANTIATE_TEST_SUITE_P(
    KAlpha, PipelineSweepTest,
    testing::Combine(testing::Values(2u, 3u, 17u, 64u, 256u),
                     testing::Values(1.0, 1.05, 1.5)),
    [](const testing::TestParamInfo<PipelineParam>& info) {
      // += instead of operator+ — see the note on the sweep above.
      std::string name = "k";
      name += std::to_string(std::get<0>(info.param));
      name += "_a";
      name += std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
      return name;
    });

}  // namespace
}  // namespace tpsl
