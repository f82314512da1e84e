#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "core/two_phase_partitioner.h"
#include "exec/thread_pool.h"
#include "graph/datasets.h"
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
