#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "core/two_phase_partitioner.h"
#include "exec/thread_pool.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/runner.h"

namespace tpsl {
namespace {

std::vector<Edge> TestGraph() {
  auto edges = LoadDataset("OK", /*scale_shift=*/3);
  EXPECT_TRUE(edges.ok());
  return std::move(edges).value();
}

PartitionConfig ConfigWithThreads(uint32_t k, uint32_t threads) {
  PartitionConfig config;
  config.num_partitions = k;
  config.exec.threads = threads;
  return config;
}

// Multi-threaded 2PS-L and 2PS-HDRF: one TwoPhasePartitioner, threads
// from PartitionConfig::exec. The one-thread assignment streams are
// pinned by state_kernel_identity_test.

TEST(ParallelTwoPhaseTest, SatisfiesContract) {
  TwoPhasePartitioner partitioner;
  const auto edges = TestGraph();
  InMemoryEdgeStream stream(edges);
  auto result = RunPartitioner(partitioner, stream, ConfigWithThreads(32, 4));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->quality.num_edges, edges.size());
  EXPECT_GE(result->quality.replication_factor, 1.0);
}

TEST(ParallelTwoPhaseTest, ParNamesAreAliases) {
  for (const auto& [alias, name] :
       {std::pair{"2PS-L(par)", "2PS-L"}, {"2PS-HDRF(par)", "2PS-HDRF"}}) {
    auto partitioner = MakePartitioner(alias);
    ASSERT_TRUE(partitioner.ok()) << alias;
    EXPECT_EQ((*partitioner)->name(), name);
    EXPECT_NE(dynamic_cast<TwoPhasePartitioner*>(partitioner->get()),
              nullptr)
        << alias;
  }
}

TEST(ParallelTwoPhaseTest, QualityCloseToSequential) {
  const auto edges = TestGraph();

  TwoPhasePartitioner partitioner;
  InMemoryEdgeStream stream_a(edges);
  auto serial = RunPartitioner(partitioner, stream_a,
                               ConfigWithThreads(32, 1));
  ASSERT_TRUE(serial.ok());

  InMemoryEdgeStream stream_b(edges);
  auto concurrent = RunPartitioner(partitioner, stream_b,
                                   ConfigWithThreads(32, 8));
  ASSERT_TRUE(concurrent.ok());

  // Stale replica reads cost a little quality; the paper predicts
  // "lower partitioning quality" from parallel staleness, but it must
  // stay in the same class.
  EXPECT_LT(concurrent->quality.replication_factor,
            serial->quality.replication_factor * 1.25);
}

TEST(ParallelTwoPhaseTest, SingleThreadWorks) {
  TwoPhasePartitioner partitioner;
  const auto edges = TestGraph();
  InMemoryEdgeStream stream(edges);
  auto result =
      RunPartitioner(partitioner, stream, ConfigWithThreads(8, 1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(ParallelTwoPhaseTest, CoversAllEdgesAcrossThreadCounts) {
  const auto edges = TestGraph();
  TwoPhasePartitioner::Options hdrf;
  hdrf.scoring = TwoPhasePartitioner::ScoringMode::kHdrf;
  for (const TwoPhasePartitioner::Options& options :
       {TwoPhasePartitioner::Options(), hdrf}) {
    TwoPhasePartitioner partitioner(options);
    for (const uint32_t threads : {2u, 4u, 16u}) {
      InMemoryEdgeStream stream(edges);
      PartitionConfig config = ConfigWithThreads(16, threads);
      config.exec.batch_size = 1024;
      EdgeListSink sink(16);
      PartitionStats stats;
      ASSERT_TRUE(partitioner.Partition(stream, config, sink, &stats).ok());
      EXPECT_EQ(stats.prepartitioned_edges + stats.remaining_edges,
                edges.size())
          << partitioner.name() << " threads=" << threads;
    }
  }
}

/// The ablation options ride the same engine: round-robin scheduling
/// and the volume-free score keep the hard cap under concurrency
/// (RunPartitioner validates it).
TEST(ParallelTwoPhaseTest, AblationOptionsHoldCapMultiThreaded) {
  const auto edges = TestGraph();
  TwoPhasePartitioner::Options options;
  options.scheduling = TwoPhasePartitioner::SchedulingMode::kRoundRobin;
  options.use_cluster_volume_term = false;
  TwoPhasePartitioner partitioner(options);
  InMemoryEdgeStream stream(edges);
  auto result = RunPartitioner(partitioner, stream, ConfigWithThreads(16, 4));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->quality.num_edges, edges.size());
}

TEST(ParallelTwoPhaseTest, RunsOnAnOwnedPool) {
  exec::ThreadPool pool(3);
  TwoPhasePartitioner partitioner;
  const auto edges = TestGraph();
  InMemoryEdgeStream stream(edges);
  PartitionConfig config = ConfigWithThreads(16, 3);
  config.exec.pool = &pool;
  auto result = RunPartitioner(partitioner, stream, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->quality.num_edges, edges.size());
}

/// Three hub stars beside a planted-partition graph, trimmed to a
/// multiple of `k` edges: the hubs' edges overflow any partition their
/// clusters are scheduled to, so a cap of exactly |E| / k sends edges
/// down the whole overflow chain to its least-loaded last resort.
std::vector<Edge> OverflowingGraph(uint32_t k) {
  PlantedPartitionConfig planted;
  planted.num_vertices = 1 << 12;
  planted.num_edges = 40000;
  planted.num_communities = 24;
  std::vector<Edge> edges = GeneratePlantedPartition(planted);
  for (VertexId hub = planted.num_vertices; hub < planted.num_vertices + 3;
       ++hub) {
    for (VertexId v = 0; v < planted.num_vertices; ++v) {
      edges.push_back({hub, v});
    }
  }
  edges.resize(edges.size() - edges.size() % k);
  return edges;
}

/// With balance_factor 1.0 and k dividing |E|, every partition must
/// end exactly full: workers that reserve load slots in chunks have to
/// give back what they did not place, and spend their own reserved
/// slots before waiting on other workers' ones, or some edge finds
/// every partition full and the run never ends.
TEST(ParallelTwoPhaseTest, TightCapacityPlacesEveryEdgeOnce) {
  constexpr uint32_t kParts = 16;
  std::vector<Edge> edges = OverflowingGraph(kParts);
  for (const uint32_t threads : {2u, 4u}) {
    exec::ThreadPool pool(threads);
    PartitionConfig config = ConfigWithThreads(kParts, threads);
    config.balance_factor = 1.0;
    config.exec.batch_size = 256;
    config.exec.pool = &pool;
    ASSERT_EQ(config.exec.Workers(), threads);
    const uint64_t capacity = config.PartitionCapacity(edges.size());
    ASSERT_EQ(capacity * kParts, edges.size());

    TwoPhasePartitioner partitioner;
    InMemoryEdgeStream stream(edges);
    EdgeListSink sink(kParts);
    PartitionStats stats;
    ASSERT_TRUE(partitioner.Partition(stream, config, sink, &stats).ok());
    EXPECT_GT(stats.overflow_edges, 0u) << "threads=" << threads;

    std::vector<Edge> placed;
    for (const std::vector<Edge>& part : sink.partitions()) {
      EXPECT_EQ(part.size(), capacity) << "threads=" << threads;
      placed.insert(placed.end(), part.begin(), part.end());
    }
    std::vector<Edge> expected = edges;
    std::sort(expected.begin(), expected.end());
    std::sort(placed.begin(), placed.end());
    EXPECT_EQ(placed, expected) << "threads=" << threads;
  }
}

/// 2PS times Algorithm 2's three steps apart from the phases, so
/// TotalSeconds() does not count them twice.
TEST(ParallelTwoPhaseTest, TimesEachPhase2Pass) {
  TwoPhasePartitioner partitioner;
  InMemoryEdgeStream stream(TestGraph());
  CountingSink sink(8);
  PartitionStats stats;
  ASSERT_TRUE(
      partitioner.Partition(stream, ConfigWithThreads(8, 2), sink, &stats)
          .ok());
  for (const char* pass : {"schedule", "prepartition", "scoring"}) {
    EXPECT_TRUE(stats.pass_seconds.contains(pass)) << pass;
    EXPECT_FALSE(stats.phase_seconds.contains(pass)) << pass;
  }
  ASSERT_EQ(stats.pass_seconds.size(), 3u);
  EXPECT_LE(stats.pass_seconds.at("prepartition") +
                stats.pass_seconds.at("scoring") +
                stats.pass_seconds.at("schedule"),
            stats.TotalSeconds());
}

TEST(ParallelTwoPhaseTest, RejectsBadExecConfig) {
  TwoPhasePartitioner partitioner;
  InMemoryEdgeStream stream({{0, 1}});
  PartitionConfig config;
  config.exec.batch_size = 0;
  CountingSink sink(config.num_partitions);
  EXPECT_FALSE(partitioner.Partition(stream, config, sink, nullptr).ok());
}

}  // namespace
}  // namespace tpsl
