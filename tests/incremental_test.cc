#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dynamic/incremental_partitioner.h"
#include "exec/thread_pool.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/assignment_sink.h"
#include "partition/metrics.h"
#include "util/random.h"

namespace tpsl {
namespace {

std::vector<Edge> BaseGraph() {
  SocialNetworkConfig config;
  config.num_vertices = 1 << 12;
  config.clique_size = 8;
  config.seed = 99;
  return GenerateSocialNetwork(config);
}

TEST(IncrementalTest, BootstrapAssignsEveryEdgeWithinCap) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = 16;
  IncrementalPartitioner partitioner(config);
  EdgeListSink sink(16);
  ASSERT_TRUE(partitioner.Bootstrap(stream, sink).ok());

  const PartitionQuality quality = ComputeQuality(sink.partitions());
  EXPECT_EQ(quality.num_edges, edges.size());
  EXPECT_LE(quality.max_partition_size,
            config.PartitionCapacity(edges.size()));
  EXPECT_EQ(partitioner.num_edges(), edges.size());
  EXPECT_DOUBLE_EQ(partitioner.StalenessRatio(), 0.0);
}

TEST(IncrementalTest, AddEdgeKeepsBalance) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = 8;
  IncrementalPartitioner partitioner(config);
  CountingSink sink(8);
  ASSERT_TRUE(partitioner.Bootstrap(stream, sink).ok());

  // Insert a burst of fresh edges, including brand-new vertices.
  SplitMix64 rng(5);
  const VertexId base_vertices = 1 << 12;
  for (int i = 0; i < 5000; ++i) {
    const VertexId u = static_cast<VertexId>(
        rng.NextBounded(base_vertices + 500));
    VertexId v =
        static_cast<VertexId>(rng.NextBounded(base_vertices + 500));
    if (u == v) {
      v = (v + 1) % (base_vertices + 500);
    }
    auto placed = partitioner.AddEdge(Edge{u, v});
    ASSERT_TRUE(placed.ok());
    EXPECT_LT(*placed, 8u);
  }

  const uint64_t capacity = static_cast<uint64_t>(
      config.balance_factor * partitioner.num_edges() / 8) + 1;
  for (const uint64_t load : partitioner.loads()) {
    EXPECT_LE(load, capacity);
  }
  EXPECT_GT(partitioner.StalenessRatio(), 0.0);
  EXPECT_LT(partitioner.StalenessRatio(), 1.0);
}

TEST(IncrementalTest, IncrementalQualityTracksClusters) {
  // Edges added between same-clique vertices should land where the
  // clique already lives — the maintained RF must stay near the
  // bootstrap RF.
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = 16;
  IncrementalPartitioner partitioner(config);
  CountingSink sink(16);
  ASSERT_TRUE(partitioner.Bootstrap(stream, sink).ok());
  const double rf_before = partitioner.CurrentReplicationFactor();

  SplitMix64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const VertexId base =
        static_cast<VertexId>(rng.NextBounded((1 << 12) / 8)) * 8;
    const VertexId u = base + static_cast<VertexId>(rng.NextBounded(8));
    VertexId v = base + static_cast<VertexId>(rng.NextBounded(8));
    if (u == v) {
      v = base + ((v - base + 1) % 8);
    }
    ASSERT_TRUE(partitioner.AddEdge(Edge{u, v}).ok());
  }
  // Intra-clique insertions must not inflate replication much.
  EXPECT_LT(partitioner.CurrentReplicationFactor(), rf_before * 1.15);
}

TEST(IncrementalTest, RemoveEdgeReleasesLoad) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = 4;
  IncrementalPartitioner partitioner(config);
  EdgeListSink sink(4);
  ASSERT_TRUE(partitioner.Bootstrap(stream, sink).ok());

  PartitionId victim_partition = 0;
  while (sink.partitions()[victim_partition].empty()) {
    ++victim_partition;
  }
  const uint64_t before = partitioner.loads()[victim_partition];
  ASSERT_GT(before, 0u);
  const Edge victim = sink.partitions()[victim_partition][0];
  ASSERT_TRUE(partitioner.RemoveEdge(victim, victim_partition).ok());
  EXPECT_EQ(partitioner.loads()[victim_partition], before - 1);
  EXPECT_EQ(partitioner.num_edges(), edges.size() - 1);
}

// Bootstrap builds its plan on config.exec. At four workers the
// clustering races, so placements may differ from a sequential run,
// but the placement pass stays one pass in stream order: every base
// edge is placed exactly once within the incremental cap, and the
// state keeps taking updates.
TEST(IncrementalTest, ParallelBootstrapPlacesEveryEdgeOnceWithinCap) {
  const auto edges = BaseGraph();
  exec::ThreadPool pool(4);
  PartitionConfig config;
  config.num_partitions = 8;
  config.exec.threads = 4;
  config.exec.pool = &pool;
  config.exec.batch_size = 512;  // many batches, so workers overlap
  ASSERT_EQ(config.exec.Workers(), 4u);
  IncrementalPartitioner partitioner(config);
  InMemoryEdgeStream stream(edges);
  EdgeListSink sink(8);
  ASSERT_TRUE(partitioner.Bootstrap(stream, sink).ok());

  const auto expect_within_cap = [&] {
    const uint64_t capacity = static_cast<uint64_t>(
        config.balance_factor * partitioner.num_edges() / 8) + 1;
    for (const uint64_t load : partitioner.loads()) {
      EXPECT_LE(load, capacity);
    }
  };
  std::vector<Edge> placed;
  for (PartitionId p = 0; p < 8; ++p) {
    EXPECT_EQ(partitioner.loads()[p], sink.partitions()[p].size());
    placed.insert(placed.end(), sink.partitions()[p].begin(),
                  sink.partitions()[p].end());
  }
  std::vector<Edge> expected = edges;
  std::sort(placed.begin(), placed.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(placed, expected);
  EXPECT_EQ(partitioner.num_edges(), edges.size());
  expect_within_cap();

  const VertexId fresh = 1 << 12;  // one past the base graph's ids
  for (const Edge& e : {Edge{0, 1}, Edge{2, fresh}, Edge{fresh, fresh + 1}}) {
    const StatusOr<PartitionId> added = partitioner.AddEdge(e);
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    EXPECT_LT(*added, 8u);
  }
  ASSERT_FALSE(sink.partitions()[0].empty());
  const Edge victim = sink.partitions()[0].front();
  ASSERT_TRUE(partitioner.RemoveEdge(victim, 0).ok());
  EXPECT_EQ(partitioner.num_edges(), edges.size() + 2);
  expect_within_cap();
}

TEST(IncrementalTest, ApiMisuseIsRejected) {
  PartitionConfig config;
  config.num_partitions = 4;
  IncrementalPartitioner partitioner(config);
  EXPECT_FALSE(partitioner.AddEdge(Edge{0, 1}).ok());
  EXPECT_FALSE(partitioner.RemoveEdge(Edge{0, 1}, 0).ok());

  InMemoryEdgeStream stream({{0, 1}, {1, 2}});
  CountingSink sink(4);
  ASSERT_TRUE(partitioner.Bootstrap(stream, sink).ok());
  EXPECT_FALSE(partitioner.Bootstrap(stream, sink).ok());  // twice
  EXPECT_FALSE(partitioner.RemoveEdge(Edge{0, 1}, 99).ok());
  EXPECT_FALSE(partitioner.RemoveEdge(Edge{500, 501}, 0).ok());
}

}  // namespace
}  // namespace tpsl
