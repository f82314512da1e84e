#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "graph/binary_edge_list.h"
#include "graph/datasets.h"
#include "graph/in_memory_edge_stream.h"
#include "io/storage_profile.h"
#include "partition/runner.h"
#include "procsim/distributed_pagerank.h"

namespace tpsl {
namespace {

/// Full out-of-core pipeline, as the paper describes its framework:
/// graph on disk (binary edge list) -> streaming partitioner -> quality
/// metrics -> simulated distributed processing.
TEST(IntegrationTest, OutOfCorePipelineEndToEnd) {
  auto edges_or = LoadDataset("OK", /*scale_shift=*/5);
  ASSERT_TRUE(edges_or.ok());
  const std::string path = testing::TempDir() + "/integration_ok.bin";
  ASSERT_TRUE(WriteBinaryEdgeList(path, *edges_or).ok());

  auto stream_or = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream_or.ok());

  auto partitioner_or = MakePartitioner("2PS-L");
  ASSERT_TRUE(partitioner_or.ok());

  PartitionConfig config;
  config.num_partitions = 32;
  RunOptions options;
  options.keep_partitions = true;
  auto run_or = RunPartitioner(**partitioner_or, **stream_or, config,
                               options);
  ASSERT_TRUE(run_or.ok()) << run_or.status().ToString();
  EXPECT_EQ(run_or->quality.num_edges, edges_or->size());
  EXPECT_GE(run_or->quality.replication_factor, 1.0);
  EXPECT_LE(run_or->quality.max_partition_size,
            config.PartitionCapacity(edges_or->size()));

  PageRankConfig pr;
  pr.iterations = 10;
  auto sim_or = SimulateDistributedPageRank(run_or->partitions, pr, {});
  ASSERT_TRUE(sim_or.ok());
  EXPECT_GT(sim_or->simulated_seconds, 0.0);
  EXPECT_EQ(sim_or->num_edges, edges_or->size());
  std::remove(path.c_str());
}

/// The paper's Table V scenario: the file stream's byte account
/// charges virtual I/O for every pass 2PS-L makes over the file.
TEST(IntegrationTest, StorageCostCountsEveryPass) {
  auto edges_or = LoadDataset("OK", /*scale_shift=*/6);
  ASSERT_TRUE(edges_or.ok());
  const std::string path = testing::TempDir() + "/integration_hdd.bin";
  ASSERT_TRUE(WriteBinaryEdgeList(path, *edges_or).ok());

  auto stream_or = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream_or.ok());

  auto partitioner_or = MakePartitioner("2PS-L");
  ASSERT_TRUE(partitioner_or.ok());
  PartitionConfig config;
  config.num_partitions = 8;
  auto run_or = RunPartitioner(**partitioner_or, **stream_or, config);
  ASSERT_TRUE(run_or.ok());

  // 4 passes (degree, clustering, prepartition, scoring) over the file.
  const StreamIoStats io = (*stream_or)->Io();
  EXPECT_EQ(io.passes, 4u);
  EXPECT_EQ(io.disk_bytes_total, 4 * edges_or->size() * sizeof(Edge));
  EXPECT_GT(SimulatedIoSeconds(io, kHddProfile), 0.0);
  std::remove(path.c_str());
}

/// A file truncated underneath an open stream must fail the whole
/// streaming pipeline (quality/validation/spill sinks included) with
/// the stream's health error — never measure a quietly shorter graph.
TEST(IntegrationTest, TruncatedFileFailsTheSinkPipeline) {
  auto edges_or = LoadDataset("OK", /*scale_shift=*/6);
  ASSERT_TRUE(edges_or.ok());
  const std::string path = testing::TempDir() + "/integration_truncated.bin";
  ASSERT_TRUE(WriteBinaryEdgeList(path, *edges_or).ok());

  auto stream_or = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream_or.ok());
  // Truncate to half the edges after Open() recorded the full count.
  std::filesystem::resize_file(path,
                               (edges_or->size() / 2) * sizeof(Edge));

  auto partitioner_or = MakePartitioner("2PS-L");
  ASSERT_TRUE(partitioner_or.ok());
  PartitionConfig config;
  config.num_partitions = 8;
  RunOptions options;
  options.spill_dir = testing::TempDir() + "/integration_truncated_spill";
  auto run_or = RunPartitioner(**partitioner_or, **stream_or, config,
                               options);
  ASSERT_FALSE(run_or.ok());
  EXPECT_FALSE((*stream_or)->Health().ok());
  // A failed spill run cleans up after itself: no partial partition
  // files are left behind for a run that produced no result.
  EXPECT_TRUE(std::filesystem::is_empty(options.spill_dir));
  std::remove(path.c_str());
  std::filesystem::remove_all(options.spill_dir);
}

/// Streaming partitioners agree between file-backed and in-memory
/// streams (the partitioner cannot tell storage apart).
TEST(IntegrationTest, StorageAgnosticAssignments) {
  auto edges_or = LoadDataset("IT", /*scale_shift=*/6);
  ASSERT_TRUE(edges_or.ok());
  const std::string path = testing::TempDir() + "/integration_agnostic.bin";
  ASSERT_TRUE(WriteBinaryEdgeList(path, *edges_or).ok());

  const std::vector<std::string> names = {"2PS-L", "HDRF", "DBH", "Greedy"};
  for (const std::string& name : names) {
    auto partitioner_or = MakePartitioner(name);
    ASSERT_TRUE(partitioner_or.ok());
    PartitionConfig config;
    config.num_partitions = 16;

    InMemoryEdgeStream mem_stream(*edges_or);
    EdgeListSink mem_sink(16);
    ASSERT_TRUE((*partitioner_or)
                    ->Partition(mem_stream, config, mem_sink, nullptr)
                    .ok());

    auto file_stream_or = BinaryFileEdgeStream::Open(path, 333);
    ASSERT_TRUE(file_stream_or.ok());
    EdgeListSink file_sink(16);
    ASSERT_TRUE((*partitioner_or)
                    ->Partition(**file_stream_or, config, file_sink, nullptr)
                    .ok());
    EXPECT_EQ(mem_sink.partitions(), file_sink.partitions()) << name;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tpsl
