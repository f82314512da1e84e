#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baselines/hash.h"
#include "core/two_phase_partitioner.h"
#include "exec/thread_pool.h"
#include "graph/binary_edge_list.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/runner.h"

namespace tpsl {
namespace {

std::vector<Edge> CommunityGraph() {
  PlantedPartitionConfig config;
  config.num_vertices = 4096;
  config.num_edges = 40000;
  config.num_communities = 64;
  config.intra_fraction = 0.95;
  return GeneratePlantedPartition(config);
}

std::vector<Edge> SocialGraph() {
  RmatConfig config;
  config.scale = 12;
  config.edge_factor = 10;
  return GenerateRmat(config);
}

RunResult MustRun(Partitioner& partitioner, const std::vector<Edge>& edges,
                  uint32_t k) {
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = k;
  auto result = RunPartitioner(partitioner, stream, config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(TwoPhaseTest, AssignsEveryEdgeWithinCap) {
  TwoPhasePartitioner partitioner;
  const auto edges = CommunityGraph();
  const RunResult result = MustRun(partitioner, edges, 32);
  EXPECT_EQ(result.quality.num_edges, edges.size());
  // RunPartitioner validated the hard cap ceil(α·|E|/k); the measured
  // alpha can exceed α by at most the ceiling rounding.
  PartitionConfig config;
  config.num_partitions = 32;
  EXPECT_LE(result.quality.max_partition_size,
            config.PartitionCapacity(edges.size()));
}

TEST(TwoPhaseTest, PrepartitionPlusRemainingCoversStream) {
  TwoPhasePartitioner partitioner;
  const auto edges = CommunityGraph();
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = 16;
  EdgeListSink sink(16);
  PartitionStats stats;
  ASSERT_TRUE(partitioner.Partition(stream, config, sink, &stats).ok());
  EXPECT_EQ(stats.prepartitioned_edges + stats.remaining_edges, edges.size());

  // Paper Fig. 6's qualitative claim: community-structured (web-like)
  // graphs pre-partition a much larger share than structure-free
  // graphs.
  ErdosRenyiConfig er;
  er.num_vertices = 4096;
  er.num_edges = 40000;
  InMemoryEdgeStream er_stream(GenerateErdosRenyi(er));
  EdgeListSink er_sink(16);
  PartitionStats er_stats;
  ASSERT_TRUE(
      partitioner.Partition(er_stream, config, er_sink, &er_stats).ok());
  const double community_ratio =
      static_cast<double>(stats.prepartitioned_edges) / edges.size();
  const double uniform_ratio =
      static_cast<double>(er_stats.prepartitioned_edges) / er.num_edges;
  EXPECT_GT(community_ratio, uniform_ratio);
}

TEST(TwoPhaseTest, ReportsAllThreePhases) {
  TwoPhasePartitioner partitioner;
  const auto edges = SocialGraph();
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = 8;
  CountingSink sink(8);
  PartitionStats stats;
  ASSERT_TRUE(partitioner.Partition(stream, config, sink, &stats).ok());
  EXPECT_TRUE(stats.phase_seconds.contains("degree"));
  EXPECT_TRUE(stats.phase_seconds.contains("clustering"));
  EXPECT_TRUE(stats.phase_seconds.contains("partitioning"));
  // degree(1) + clustering(1) + prepartition(1) + scoring(1).
  EXPECT_EQ(stats.stream_passes, 4u);
  EXPECT_GT(stats.state_bytes, 0u);
}

TEST(TwoPhaseTest, BeatsHashingOnCommunityGraphs) {
  TwoPhasePartitioner twops;
  HashPartitioner hash;
  const auto edges = CommunityGraph();
  const RunResult a = MustRun(twops, edges, 32);
  const RunResult b = MustRun(hash, edges, 32);
  // The headline claim at laptop scale: clustering-aware partitioning
  // replicates far less than hashing on community-structured graphs.
  EXPECT_LT(a.quality.replication_factor,
            0.6 * b.quality.replication_factor);
}

TEST(TwoPhaseTest, HdrfScoringModeImprovesReplication) {
  TwoPhasePartitioner linear;
  TwoPhasePartitioner::Options hdrf_options;
  hdrf_options.scoring = TwoPhasePartitioner::ScoringMode::kHdrf;
  TwoPhasePartitioner hdrf(hdrf_options);
  EXPECT_EQ(hdrf.name(), "2PS-HDRF");

  const auto edges = SocialGraph();
  const RunResult a = MustRun(linear, edges, 32);
  const RunResult b = MustRun(hdrf, edges, 32);
  // Paper §V-D: HDRF scoring in phase 2 improves RF (up to 50%); allow
  // equality margin for small graphs.
  EXPECT_LE(b.quality.replication_factor,
            a.quality.replication_factor * 1.05);
}

TEST(TwoPhaseTest, RestreamingKeepsContract) {
  for (const uint32_t passes : {1u, 3u, 8u}) {
    TwoPhasePartitioner::Options options;
    options.clustering.num_passes = passes;
    TwoPhasePartitioner partitioner(options);
    const auto edges = SocialGraph();
    const RunResult result = MustRun(partitioner, edges, 8);
    EXPECT_EQ(result.quality.num_edges, edges.size());
    EXPECT_EQ(result.stats.stream_passes, 3 + passes);
  }
}

TEST(TwoPhaseTest, RoundRobinSchedulingIsWorseOrEqual) {
  TwoPhasePartitioner::Options rr_options;
  rr_options.scheduling = TwoPhasePartitioner::SchedulingMode::kRoundRobin;
  TwoPhasePartitioner graham;
  TwoPhasePartitioner round_robin(rr_options);
  const auto edges = CommunityGraph();
  const RunResult a = MustRun(graham, edges, 32);
  const RunResult b = MustRun(round_robin, edges, 32);
  // Volume-aware scheduling should not hurt quality.
  EXPECT_LE(a.quality.replication_factor,
            b.quality.replication_factor * 1.10);
}

TEST(TwoPhaseTest, DeterministicAcrossRuns) {
  TwoPhasePartitioner partitioner;
  const auto edges = SocialGraph();
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = 16;

  EdgeListSink sink_a(16), sink_b(16);
  ASSERT_TRUE(partitioner.Partition(stream, config, sink_a, nullptr).ok());
  ASSERT_TRUE(partitioner.Partition(stream, config, sink_b, nullptr).ok());
  EXPECT_EQ(sink_a.partitions(), sink_b.partitions());
}

/// Batch sizes below, at and above both prefetch distances of the
/// Phase-2 passes' staged loop (util/prefetch.h), and the default.
constexpr uint32_t kStagedBatchSizes[] = {1, 7, 8, 9, 16, 17, 8192};

/// The prefetch stages are hints: at t=1 the assignment stream is the
/// same at every batch size, in both scoring modes.
TEST(TwoPhaseTest, AssignmentIndependentOfBatchSize) {
  const auto edges = SocialGraph();
  TwoPhasePartitioner::Options hdrf;
  hdrf.scoring = TwoPhasePartitioner::ScoringMode::kHdrf;
  for (const TwoPhasePartitioner::Options& options :
       {TwoPhasePartitioner::Options(), hdrf}) {
    TwoPhasePartitioner partitioner(options);
    InMemoryEdgeStream stream(edges);
    PartitionConfig config;
    config.num_partitions = 16;
    EdgeListSink reference(16);
    ASSERT_TRUE(partitioner.Partition(stream, config, reference, nullptr).ok());
    for (const uint32_t batch_size : kStagedBatchSizes) {
      config.exec.batch_size = batch_size;
      EdgeListSink sink(16);
      ASSERT_TRUE(partitioner.Partition(stream, config, sink, nullptr).ok());
      EXPECT_EQ(sink.partitions(), reference.partitions())
          << partitioner.name() << " batch_size=" << batch_size;
    }
  }
}

/// On four workers, at every batch size, each edge is placed exactly
/// once and no partition exceeds its capacity.
TEST(TwoPhaseTest, PlacesEveryEdgeOnceAtEveryBatchSizeOnFourWorkers) {
  RmatConfig rmat;
  rmat.scale = 10;
  rmat.edge_factor = 8;
  const std::vector<Edge> edges = GenerateRmat(rmat);
  std::vector<Edge> expected = edges;
  std::sort(expected.begin(), expected.end());
  exec::ThreadPool pool(4);
  TwoPhasePartitioner partitioner;
  for (const uint32_t batch_size : kStagedBatchSizes) {
    InMemoryEdgeStream stream(edges);
    PartitionConfig config;
    config.num_partitions = 16;
    config.exec.threads = 4;
    config.exec.pool = &pool;
    config.exec.batch_size = batch_size;
    EdgeListSink sink(16);
    ASSERT_TRUE(partitioner.Partition(stream, config, sink, nullptr).ok());
    std::vector<Edge> placed;
    for (const std::vector<Edge>& partition : sink.partitions()) {
      EXPECT_LE(partition.size(), config.PartitionCapacity(edges.size()))
          << "batch_size=" << batch_size;
      placed.insert(placed.end(), partition.begin(), partition.end());
    }
    std::sort(placed.begin(), placed.end());
    EXPECT_EQ(placed, expected) << "batch_size=" << batch_size;
  }
}

TEST(TwoPhaseTest, FileStreamMatchesMemoryStream) {
  const auto edges = SocialGraph();
  const std::string path = testing::TempDir() + "/twops_file.bin";
  ASSERT_TRUE(WriteBinaryEdgeList(path, edges).ok());
  auto file_stream_or = BinaryFileEdgeStream::Open(path, 777);
  ASSERT_TRUE(file_stream_or.ok());

  TwoPhasePartitioner partitioner;
  PartitionConfig config;
  config.num_partitions = 8;
  EdgeListSink file_sink(8), mem_sink(8);
  ASSERT_TRUE(
      partitioner.Partition(**file_stream_or, config, file_sink, nullptr)
          .ok());
  InMemoryEdgeStream mem_stream(edges);
  ASSERT_TRUE(
      partitioner.Partition(mem_stream, config, mem_sink, nullptr).ok());
  EXPECT_EQ(file_sink.partitions(), mem_sink.partitions());
  std::remove(path.c_str());
}

TEST(TwoPhaseTest, TightBalanceFactorStillFeasible) {
  TwoPhasePartitioner partitioner;
  const auto edges = SocialGraph();
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = 7;  // non-divisor k
  config.balance_factor = 1.0;
  auto result = RunPartitioner(partitioner, stream, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->quality.num_edges, edges.size());
}

TEST(TwoPhaseTest, KEqualsOneDegeneratesGracefully) {
  TwoPhasePartitioner partitioner;
  const RunResult result = MustRun(partitioner, SocialGraph(), 1);
  EXPECT_DOUBLE_EQ(result.quality.replication_factor, 1.0);
}

TEST(TwoPhaseTest, ZeroPartitionsRejected) {
  TwoPhasePartitioner partitioner;
  InMemoryEdgeStream stream({{0, 1}});
  PartitionConfig config;
  config.num_partitions = 0;
  CountingSink sink(1);
  EXPECT_FALSE(partitioner.Partition(stream, config, sink, nullptr).ok());
}

TEST(TwoPhaseTest, ClusterVolumeTermAblationRuns) {
  TwoPhasePartitioner::Options options;
  options.use_cluster_volume_term = false;
  TwoPhasePartitioner partitioner(options);
  const RunResult result = MustRun(partitioner, SocialGraph(), 16);
  EXPECT_GE(result.quality.replication_factor, 1.0);
}

}  // namespace
}  // namespace tpsl
