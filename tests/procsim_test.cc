#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "baselines/hash.h"
#include "core/two_phase_partitioner.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/runner.h"
#include "procsim/distributed_pagerank.h"
#include "procsim/reference_pagerank.h"

namespace tpsl {
namespace {

std::vector<Edge> TestGraph() {
  PlantedPartitionConfig config;
  config.num_vertices = 1024;
  config.num_edges = 8000;
  config.num_communities = 16;
  return GeneratePlantedPartition(config);
}

/// One past the largest vertex id (0 for no edges).
VertexId NumVertices(const std::vector<Edge>& edges) {
  VertexId n = 0;
  for (const Edge& e : edges) {
    n = std::max({n, e.first + 1, e.second + 1});
  }
  return n;
}

std::vector<std::vector<Edge>> PartitionWith(Partitioner& partitioner,
                                             const std::vector<Edge>& edges,
                                             uint32_t k) {
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = k;
  RunOptions options;
  options.keep_partitions = true;
  auto result = RunPartitioner(partitioner, stream, config, options);
  EXPECT_TRUE(result.ok());
  return std::move(result)->partitions;
}

TEST(ReferencePageRankTest, RanksSumToOne) {
  const auto edges = TestGraph();
  PageRankConfig config;
  config.iterations = 30;
  const std::vector<double> ranks =
      ReferencePageRank(edges, NumVertices(edges), config);
  double sum = 0;
  for (const double r : ranks) {
    sum += r;
  }
  // Undirected graphs have no dangling mass loss.
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(ReferencePageRankTest, StarCenterRanksHighest) {
  // Star graph: center 0 connected to 1..9.
  std::vector<Edge> edges;
  for (VertexId v = 1; v < 10; ++v) {
    edges.push_back(Edge{0, v});
  }
  const std::vector<double> ranks = ReferencePageRank(edges, 10, {});
  for (VertexId v = 1; v < 10; ++v) {
    EXPECT_GT(ranks[0], ranks[v]);
  }
}

TEST(ReferencePageRankTest, EmptyGraph) {
  EXPECT_TRUE(ReferencePageRank({}, 0, {}).empty());
}

TEST(DistributedPageRankTest, MatchesReferenceValues) {
  const auto edges = TestGraph();
  TwoPhasePartitioner partitioner;
  const auto partitions = PartitionWith(partitioner, edges, 8);

  PageRankConfig pr;
  pr.iterations = 25;
  auto result = SimulateDistributedPageRank(partitions, pr, {});
  ASSERT_TRUE(result.ok());

  const std::vector<double> reference =
      ReferencePageRank(edges, NumVertices(edges), pr);
  ASSERT_EQ(result->ranks.size(), reference.size());
  for (size_t v = 0; v < reference.size(); ++v) {
    EXPECT_NEAR(result->ranks[v], reference[v], 1e-9) << "vertex " << v;
  }
}

TEST(DistributedPageRankTest, HigherReplicationCostsMoreTime) {
  const auto edges = TestGraph();
  TwoPhasePartitioner good;
  HashPartitioner bad;
  const auto good_parts = PartitionWith(good, edges, 16);
  const auto bad_parts = PartitionWith(bad, edges, 16);

  PageRankConfig pr;
  pr.iterations = 10;
  auto good_result = SimulateDistributedPageRank(good_parts, pr, {});
  auto bad_result = SimulateDistributedPageRank(bad_parts, pr, {});
  ASSERT_TRUE(good_result.ok());
  ASSERT_TRUE(bad_result.ok());

  EXPECT_LT(good_result->total_replicas, bad_result->total_replicas);
  EXPECT_LT(good_result->total_messages, bad_result->total_messages);
  EXPECT_LT(good_result->simulated_seconds, bad_result->simulated_seconds);
}

TEST(DistributedPageRankTest, MessageCountMatchesMirrors) {
  // Two partitions sharing exactly one vertex (1): one mirror.
  std::vector<std::vector<Edge>> partitions = {
      {{0, 1}},
      {{1, 2}},
  };
  PageRankConfig pr;
  pr.iterations = 5;
  auto result = SimulateDistributedPageRank(partitions, pr, {});
  ASSERT_TRUE(result.ok());
  // 1 mirror -> 2 messages per iteration * 5 iterations.
  EXPECT_EQ(result->total_messages, 10u);
  EXPECT_EQ(result->total_replicas, 4u);  // v0:1, v1:2, v2:1
}

TEST(DistributedPageRankTest, InvalidInputsRejected) {
  const std::vector<std::vector<Edge>> none;
  EXPECT_FALSE(SimulateDistributedPageRank(none, {}, {}).ok());
  const std::vector<std::vector<Edge>> empties = {{}, {}};
  EXPECT_FALSE(SimulateDistributedPageRank(empties, {}, {}).ok());
  ClusterModel broken;
  broken.num_workers = 0;
  const std::vector<std::vector<Edge>> one = {{{0, 1}}};
  EXPECT_FALSE(SimulateDistributedPageRank(one, {}, broken).ok());
}

TEST(DistributedPageRankTest, SpilledFilesMatchInMemoryExactly) {
  // The acceptance bar for the disk-backed processing path: PageRank
  // from the spilled per-partition files is bit-identical to PageRank
  // from the materialized partitions of the same run.
  const auto edges = TestGraph();
  TwoPhasePartitioner partitioner;
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = 8;
  RunOptions options;
  options.keep_partitions = true;
  options.spill_dir = testing::TempDir() + "/procsim_spill";
  options.spill_stem = "pr";
  auto run = RunPartitioner(partitioner, stream, config, options);
  ASSERT_TRUE(run.ok());

  PageRankConfig pr;
  pr.iterations = 20;
  auto mem = SimulateDistributedPageRank(run->partitions, pr, {});
  ASSERT_TRUE(mem.ok());

  auto streams = OpenSpilledPartitions(run->spill);
  ASSERT_TRUE(streams.ok()) << streams.status().ToString();
  auto disk = SimulateDistributedPageRank(StreamPointers(*streams), pr, {});
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  EXPECT_EQ(mem->ranks, disk->ranks);  // bit-identical, not just close
  EXPECT_EQ(mem->total_messages, disk->total_messages);
  EXPECT_EQ(mem->total_replicas, disk->total_replicas);
  EXPECT_EQ(mem->num_edges, disk->num_edges);
  EXPECT_DOUBLE_EQ(mem->simulated_seconds, disk->simulated_seconds);

  streams->clear();  // close the files before deleting them
  RemoveSpilledFiles(run->spill);
}

TEST(DistributedPageRankTest, MoreWorkersReduceComputeTime) {
  const auto edges = TestGraph();
  TwoPhasePartitioner partitioner;
  const auto partitions = PartitionWith(partitioner, edges, 32);
  PageRankConfig pr;
  pr.iterations = 10;

  ClusterModel small;
  small.num_workers = 2;
  small.per_iteration_ms = 0.0;  // isolate compute + network scaling
  ClusterModel large = small;
  large.num_workers = 32;

  auto slow = SimulateDistributedPageRank(partitions, pr, small);
  auto fast = SimulateDistributedPageRank(partitions, pr, large);
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_LT(fast->simulated_seconds, slow->simulated_seconds);
}

}  // namespace
}  // namespace tpsl
