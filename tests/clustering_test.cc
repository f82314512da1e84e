#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/cluster_schedule.h"
#include "core/streaming_clustering.h"
#include "exec/thread_pool.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "util/random.h"

namespace tpsl {
namespace {

Clustering ClusterEdges(const std::vector<Edge>& edges,
                        uint32_t num_partitions,
                        const ClusteringConfig& config = {}) {
  InMemoryEdgeStream stream(edges);
  auto degrees = ComputeDegrees(stream);
  EXPECT_TRUE(degrees.ok());
  auto clustering =
      StreamingClustering(stream, *degrees, num_partitions, config);
  EXPECT_TRUE(clustering.ok());
  return std::move(clustering).value();
}

/// Two disjoint triangles must land in two distinct clusters. The cap
/// is widened to one partition volume: at this toy scale the default
/// sub-partition cap (0.25x) is below a single vertex degree.
TEST(StreamingClusteringTest, SeparatesDisjointTriangles) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0},
                                   {3, 4}, {4, 5}, {5, 3}};
  ClusteringConfig config;
  config.volume_cap_factor = 1.0;
  const Clustering clustering = ClusterEdges(edges, 2, config);
  EXPECT_EQ(clustering.num_clusters(), 2u);
  EXPECT_EQ(clustering.vertex_cluster[0], clustering.vertex_cluster[1]);
  EXPECT_EQ(clustering.vertex_cluster[1], clustering.vertex_cluster[2]);
  EXPECT_EQ(clustering.vertex_cluster[3], clustering.vertex_cluster[4]);
  EXPECT_EQ(clustering.vertex_cluster[4], clustering.vertex_cluster[5]);
  EXPECT_NE(clustering.vertex_cluster[0], clustering.vertex_cluster[3]);
}

TEST(StreamingClusteringTest, VolumesEqualMemberDegreeSums) {
  RmatConfig config;
  config.scale = 10;
  config.edge_factor = 8;
  const auto edges = GenerateRmat(config);
  const Clustering clustering = ClusterEdges(edges, 8);

  InMemoryEdgeStream stream(edges);
  auto degrees = ComputeDegrees(stream);
  ASSERT_TRUE(degrees.ok());

  std::vector<uint64_t> recomputed(clustering.num_clusters(), 0);
  uint64_t clustered_volume = 0;
  for (VertexId v = 0; v < clustering.vertex_cluster.size(); ++v) {
    const ClusterId c = clustering.vertex_cluster[v];
    if (c == kInvalidCluster) {
      EXPECT_EQ(degrees->degree(v), 0u);  // only isolated vertices
      continue;
    }
    recomputed[c] += degrees->degree(v);
    clustered_volume += degrees->degree(v);
  }
  EXPECT_EQ(recomputed, clustering.cluster_volumes);
  EXPECT_EQ(clustered_volume, degrees->TotalVolume());
}

TEST(StreamingClusteringTest, VolumeCapIsRespected) {
  RmatConfig rmat;
  rmat.scale = 12;
  rmat.edge_factor = 8;
  const auto edges = GenerateRmat(rmat);
  const uint32_t k = 8;
  const Clustering clustering = ClusterEdges(edges, k);

  InMemoryEdgeStream stream(edges);
  auto degrees = ComputeDegrees(stream);
  const uint64_t cap = degrees->TotalVolume() / k;
  uint32_t max_degree = 0;
  for (const uint32_t d : degrees->degrees) {
    max_degree = std::max(max_degree, d);
  }
  // A cluster can exceed the cap only by containing a single vertex
  // whose own degree exceeds it (clusters are created unconditionally).
  for (const uint64_t volume : clustering.cluster_volumes) {
    EXPECT_LE(volume, std::max<uint64_t>(cap, max_degree) + max_degree);
  }
}

TEST(StreamingClusteringTest, UncappedMergesMore) {
  PlantedPartitionConfig pp;
  pp.num_vertices = 2048;
  pp.num_edges = 20000;
  pp.num_communities = 8;
  const auto edges = GeneratePlantedPartition(pp);

  ClusteringConfig capped;
  ClusteringConfig uncapped;
  uncapped.volume_cap_factor = 64;  // = k: the cap 2|E| never binds
  const Clustering with_cap = ClusterEdges(edges, 64, capped);
  const Clustering without_cap = ClusterEdges(edges, 64, uncapped);
  // Without the cap, clusters can swallow whole communities, so there
  // are at most as many clusters.
  EXPECT_LE(without_cap.num_clusters(), with_cap.num_clusters());
}

TEST(StreamingClusteringTest, RestreamingDoesNotBreakInvariants) {
  RmatConfig rmat;
  rmat.scale = 10;
  const auto edges = GenerateRmat(rmat);
  for (const uint32_t passes : {1u, 2u, 4u, 8u}) {
    ClusteringConfig config;
    config.num_passes = passes;
    const Clustering clustering = ClusterEdges(edges, 4, config);
    uint64_t total = 0;
    for (const uint64_t volume : clustering.cluster_volumes) {
      EXPECT_GT(volume, 0u);
      total += volume;
    }
    EXPECT_EQ(total, 2 * edges.size());
  }
}

TEST(StreamingClusteringTest, DeterministicAcrossRuns) {
  RmatConfig rmat;
  rmat.scale = 10;
  const auto edges = GenerateRmat(rmat);
  const Clustering a = ClusterEdges(edges, 4);
  const Clustering b = ClusterEdges(edges, 4);
  EXPECT_EQ(a.vertex_cluster, b.vertex_cluster);
  EXPECT_EQ(a.cluster_volumes, b.cluster_volumes);
}

TEST(StreamingClusteringTest, InvalidArgumentsRejected) {
  InMemoryEdgeStream stream({{0, 1}});
  auto degrees = ComputeDegrees(stream);
  ASSERT_TRUE(degrees.ok());
  ClusteringConfig config;
  EXPECT_FALSE(StreamingClustering(stream, *degrees, 0, config).ok());
  config.num_passes = 0;
  EXPECT_FALSE(StreamingClustering(stream, *degrees, 2, config).ok());
}

TEST(StreamingClusteringTest, SelfLoopOnlyGraph) {
  const Clustering clustering = ClusterEdges({{3, 3}, {3, 3}}, 2);
  EXPECT_EQ(clustering.num_clusters(), 1u);
  EXPECT_EQ(clustering.cluster_volumes[0], 4u);
}

/// The compaction contract finalize must keep, whatever clusters the
/// passes formed: never-streamed slots stay kInvalidCluster, ids are
/// dense and numbered by first member in vertex order, and volumes are
/// the sums of member degrees.
void ExpectCompactionContract(const std::vector<Edge>& edges,
                              const DegreeTable& degrees,
                              const Clustering& clustering) {
  std::vector<bool> streamed(degrees.num_vertices(), false);
  for (const Edge& e : edges) {
    streamed[e.first] = true;
    streamed[e.second] = true;
  }
  ASSERT_EQ(clustering.vertex_cluster.size(), degrees.num_vertices());
  std::vector<uint64_t> volumes;
  for (VertexId v = 0; v < degrees.num_vertices(); ++v) {
    const ClusterId c = clustering.vertex_cluster[v];
    if (!streamed[v]) {
      EXPECT_EQ(c, kInvalidCluster) << "vertex " << v;
      continue;
    }
    ASSERT_NE(c, kInvalidCluster) << "vertex " << v;
    // The first member of each cluster introduces the next id.
    ASSERT_LE(c, volumes.size()) << "vertex " << v;
    if (c == volumes.size()) {
      volumes.push_back(0);
    }
    volumes[c] += degrees.degree(v);
  }
  EXPECT_EQ(clustering.num_clusters(), volumes.size());
  EXPECT_EQ(clustering.cluster_volumes, volumes);
}

/// The streaming pass prefetches ahead within each batch; at t=1 the
/// clustering is the same at batch sizes below, at and above both
/// prefetch distances (util/prefetch.h).
TEST(StreamingClusteringTest, IndependentOfBatchSize) {
  RmatConfig rmat;
  rmat.scale = 12;
  rmat.edge_factor = 10;
  const std::vector<Edge> edges = GenerateRmat(rmat);
  InMemoryEdgeStream stream(edges);
  auto degrees = ComputeDegrees(stream);
  ASSERT_TRUE(degrees.ok());
  ClusteringConfig config;
  config.num_passes = 2;
  const Clustering reference = ClusterEdges(edges, 16, config);
  for (const uint32_t batch_size : {1u, 7u, 8u, 9u, 16u, 17u, 8192u}) {
    exec::ExecContext exec;
    exec.batch_size = batch_size;
    auto clustering =
        ParallelStreamingClustering(stream, *degrees, 16, config, exec);
    ASSERT_TRUE(clustering.ok());
    EXPECT_EQ(clustering->vertex_cluster, reference.vertex_cluster)
        << "batch_size=" << batch_size;
    EXPECT_EQ(clustering->cluster_volumes, reference.cluster_volumes)
        << "batch_size=" << batch_size;
  }
}

TEST(StreamingClusteringTest, CompactsSparseIdsInPlace) {
  // Labels are founding-vertex ids, so the ids here are sparse and a
  // cluster's label (9 below) need not be its first member (5).
  const std::vector<Edge> toy = {{5, 9}, {9, 1000}};
  RmatConfig rmat;
  rmat.scale = 10;
  const std::vector<Edge> rmat_sparse = [&rmat] {
    std::vector<Edge> edges;
    for (const Edge& e : GenerateRmat(rmat)) {
      edges.push_back({3 * e.first + 1, 3 * e.second + 1});
    }
    return edges;
  }();
  exec::ThreadPool pool(4);
  for (const uint32_t threads : {1u, 4u}) {
    for (const uint32_t passes : {1u, 3u}) {
      for (const bool capped : {true, false}) {
        for (const auto* edges : {&toy, &rmat_sparse}) {
          SCOPED_TRACE(testing::Message()
                       << "threads=" << threads << " passes=" << passes
                       << " capped=" << capped << " |E|=" << edges->size());
          InMemoryEdgeStream stream(*edges);
          auto degrees = ComputeDegrees(stream);
          ASSERT_TRUE(degrees.ok());
          ClusteringConfig config;
          config.num_passes = passes;
          if (!capped) {
            config.volume_cap_factor = 4;  // = k: the cap never binds
          }
          exec::ExecContext exec;
          exec.threads = threads;
          exec.batch_size = 64;
          exec.pool = &pool;
          auto clustering =
              ParallelStreamingClustering(stream, *degrees, 4, config, exec);
          ASSERT_TRUE(clustering.ok());
          ExpectCompactionContract(*edges, *degrees, *clustering);
          if (edges == &toy && threads == 1) {
            // Capped (0.25 x 4 / 4 truncates to 0): every vertex stays
            // alone. Uncapped: 5 joins 9's cluster, then 1000 joins it.
            const std::vector<ClusterId> expected =
                capped ? std::vector<ClusterId>{0, 1, 2}
                       : std::vector<ClusterId>{0, 0, 0};
            EXPECT_EQ((std::vector<ClusterId>{clustering->vertex_cluster[5],
                                              clustering->vertex_cluster[9],
                                              clustering->vertex_cluster[1000]}),
                      expected);
          }
        }
      }
    }
  }
}

TEST(ClusterScheduleTest, GrahamAssignsAllClusters) {
  const std::vector<uint64_t> volumes = {10, 8, 7, 3, 3, 2, 2, 1};
  const ClusterSchedule schedule = ScheduleClustersGraham(volumes, 3);
  ASSERT_EQ(schedule.cluster_partition.size(), volumes.size());
  for (const PartitionId p : schedule.cluster_partition) {
    EXPECT_LT(p, 3u);
  }
  uint64_t total = 0;
  for (const uint64_t volume : schedule.partition_volumes) {
    total += volume;
  }
  EXPECT_EQ(total, 36u);
}

TEST(ClusterScheduleTest, GrahamRespectsApproximationBound) {
  // LPT is a 4/3 - 1/(3k) approximation; check against the LP lower
  // bound max(max_volume, total/k) on randomized instances.
  SplitMix64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const uint32_t k = 2 + static_cast<uint32_t>(rng.NextBounded(14));
    std::vector<uint64_t> volumes(1 + rng.NextBounded(100));
    uint64_t total = 0, max_volume = 0;
    for (uint64_t& v : volumes) {
      v = 1 + rng.NextBounded(1000);
      total += v;
      max_volume = std::max(max_volume, v);
    }
    const ClusterSchedule schedule = ScheduleClustersGraham(volumes, k);
    const uint64_t makespan = *std::max_element(
        schedule.partition_volumes.begin(), schedule.partition_volumes.end());
    const double lower_bound = std::max<double>(
        static_cast<double>(max_volume), static_cast<double>(total) / k);
    EXPECT_LE(static_cast<double>(makespan),
              lower_bound * (4.0 / 3.0) + 1e-9)
        << "k=" << k << " jobs=" << volumes.size();
  }
}

TEST(ClusterScheduleTest, GrahamBeatsOrMatchesRoundRobin) {
  SplitMix64 rng(11);
  std::vector<uint64_t> volumes(200);
  for (uint64_t& v : volumes) {
    v = 1 + rng.NextBounded(500);
  }
  const auto graham = ScheduleClustersGraham(volumes, 8);
  const auto round_robin = ScheduleClustersRoundRobin(volumes, 8);
  const uint64_t graham_makespan = *std::max_element(
      graham.partition_volumes.begin(), graham.partition_volumes.end());
  const uint64_t rr_makespan =
      *std::max_element(round_robin.partition_volumes.begin(),
                        round_robin.partition_volumes.end());
  EXPECT_LE(graham_makespan, rr_makespan);
}

TEST(ClusterScheduleTest, EmptyVolumes) {
  const ClusterSchedule schedule = ScheduleClustersGraham({}, 4);
  EXPECT_TRUE(schedule.cluster_partition.empty());
  EXPECT_EQ(schedule.partition_volumes,
            (std::vector<uint64_t>{0, 0, 0, 0}));
}

TEST(ClusterScheduleTest, SingleHugeJobDominates) {
  const ClusterSchedule schedule = ScheduleClustersGraham({100, 1, 1}, 2);
  // Huge job alone; the small ones share the other machine.
  const PartitionId huge = schedule.cluster_partition[0];
  EXPECT_NE(schedule.cluster_partition[1], huge);
  EXPECT_NE(schedule.cluster_partition[2], huge);
}

}  // namespace
}  // namespace tpsl
