#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "baselines/registry.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/runner.h"

namespace tpsl {
namespace {

/// Contract properties every partitioner must satisfy on every graph
/// and every k (paper §II-A):
///  (a) each edge assigned exactly once,
///  (b) the hard cap α·|E|/k respected (when the partitioner promises
///      it),
///  (c) RF >= 1 and RF <= min(k, max-degree bound),
///  (d) deterministic output under a fixed seed.
/// Parameterized sweep: partitioner name × graph kind × k. The
/// degenerate kinds (no edges, one edge, one self-loop, a star, a path,
/// one edge repeated) and k=1 probe the edges of the input contract.

enum class GraphKind {
  kSocial,
  kCommunity,
  kUniform,
  kTiny,
  kEmpty,
  kOneEdge,
  kSelfLoop,
  kStar,
  kPath,
  kMultiEdge,
};

std::vector<Edge> MakeGraph(GraphKind kind) {
  switch (kind) {
    case GraphKind::kSocial: {
      RmatConfig config;
      config.scale = 11;
      config.edge_factor = 8;
      return GenerateRmat(config);
    }
    case GraphKind::kCommunity: {
      PlantedPartitionConfig config;
      config.num_vertices = 2048;
      config.num_edges = 16000;
      config.num_communities = 32;
      return GeneratePlantedPartition(config);
    }
    case GraphKind::kUniform: {
      ErdosRenyiConfig config;
      config.num_vertices = 2048;
      config.num_edges = 16000;
      return GenerateErdosRenyi(config);
    }
    case GraphKind::kTiny:
      return {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 3}};
    case GraphKind::kEmpty:
      return {};
    case GraphKind::kOneEdge:
      return {{0, 1}};
    case GraphKind::kSelfLoop:
      return {{4, 4}};
    case GraphKind::kStar: {
      std::vector<Edge> edges;
      for (VertexId leaf = 1; leaf <= 200; ++leaf) {
        edges.push_back({0, leaf});
      }
      return edges;
    }
    case GraphKind::kPath: {
      std::vector<Edge> edges;
      for (VertexId v = 0; v < 300; ++v) {
        edges.push_back({v, v + 1});
      }
      return edges;
    }
    case GraphKind::kMultiEdge:
      return std::vector<Edge>(300, Edge{2, 3});
  }
  return {};
}

const char* GraphKindName(GraphKind kind) {
  switch (kind) {
    case GraphKind::kSocial:
      return "social";
    case GraphKind::kCommunity:
      return "community";
    case GraphKind::kUniform:
      return "uniform";
    case GraphKind::kTiny:
      return "tiny";
    case GraphKind::kEmpty:
      return "empty";
    case GraphKind::kOneEdge:
      return "one_edge";
    case GraphKind::kSelfLoop:
      return "self_loop";
    case GraphKind::kStar:
      return "star";
    case GraphKind::kPath:
      return "path";
    case GraphKind::kMultiEdge:
      return "multi_edge";
  }
  return "?";
}

using ParamType = std::tuple<std::string, GraphKind, uint32_t>;

/// DNE is a parallel partitioner: its contract rows run on four workers
/// so the parallel expansion is what gets checked.
PartitionConfig ContractConfig(const std::string& name, uint32_t k) {
  PartitionConfig config;
  config.num_partitions = k;
  if (name == "DNE") {
    config.exec.threads = 4;
  }
  return config;
}

class PartitionerContractTest : public testing::TestWithParam<ParamType> {};

TEST_P(PartitionerContractTest, SatisfiesPartitioningContract) {
  const auto& [name, kind, k] = GetParam();
  auto partitioner_or = MakePartitioner(name);
  ASSERT_TRUE(partitioner_or.ok());

  const std::vector<Edge> edges = MakeGraph(kind);
  InMemoryEdgeStream stream(edges);
  const PartitionConfig config = ContractConfig(name, k);

  // RunPartitioner validates (a) every edge assigned once and (b) the
  // capacity bound for cap-enforcing partitioners.
  auto result = RunPartitioner(**partitioner_or, stream, config);
  ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();

  // (c) replication factor bounds.
  if (!edges.empty()) {
    EXPECT_GE(result->quality.replication_factor, 1.0) << name;
    EXPECT_LE(result->quality.replication_factor, static_cast<double>(k))
        << name;
  }
  EXPECT_EQ(result->quality.partition_sizes.size(), k) << name;
}

TEST_P(PartitionerContractTest, DeterministicUnderFixedSeed) {
  const auto& [name, kind, k] = GetParam();
  if (name == "DNE") {
    GTEST_SKIP() << "DNE is parallel; thread interleaving is not seeded";
  }
  auto partitioner_or = MakePartitioner(name);
  ASSERT_TRUE(partitioner_or.ok());

  const std::vector<Edge> edges = MakeGraph(kind);
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = k;

  EdgeListSink sink_a(k), sink_b(k);
  ASSERT_TRUE(
      (*partitioner_or)->Partition(stream, config, sink_a, nullptr).ok());
  ASSERT_TRUE(
      (*partitioner_or)->Partition(stream, config, sink_b, nullptr).ok());
  EXPECT_EQ(sink_a.partitions(), sink_b.partitions()) << name;
}

TEST_P(PartitionerContractTest, StreamingQualityMatchesOracleExactly) {
  // The runner's quality comes from QualitySink (online loads + a
  // replication matrix, no edge lists). ComputeQuality
  // over the materialized partitions of the SAME run is the
  // independent oracle; the two must agree bit for bit — same integer
  // tallies, same double arithmetic — for every registry partitioner
  // on every graph family and k. (DNE is scheduling-dependent across
  // runs, but oracle and sink observe one identical run here.)
  const auto& [name, kind, k] = GetParam();
  auto partitioner_or = MakePartitioner(name);
  ASSERT_TRUE(partitioner_or.ok());

  const std::vector<Edge> edges = MakeGraph(kind);
  InMemoryEdgeStream stream(edges);
  const PartitionConfig config = ContractConfig(name, k);
  RunOptions options;
  options.keep_partitions = true;

  auto result = RunPartitioner(**partitioner_or, stream, config, options);
  ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();

  const PartitionQuality oracle = ComputeQuality(result->partitions);
  EXPECT_DOUBLE_EQ(result->quality.replication_factor,
                   oracle.replication_factor)
      << name;
  EXPECT_DOUBLE_EQ(result->quality.measured_alpha, oracle.measured_alpha)
      << name;
  EXPECT_EQ(result->quality.num_edges, oracle.num_edges) << name;
  EXPECT_EQ(result->quality.num_covered_vertices,
            oracle.num_covered_vertices)
      << name;
  EXPECT_EQ(result->quality.max_partition_size, oracle.max_partition_size)
      << name;
  EXPECT_EQ(result->quality.min_partition_size, oracle.min_partition_size)
      << name;
  EXPECT_EQ(result->quality.partition_sizes, oracle.partition_sizes) << name;
}

std::string ParamName(const testing::TestParamInfo<ParamType>& info) {
  std::string name = std::get<0>(info.param);
  for (char& c : name) {
    if (c == '-' || c == '*') {
      c = '_';
    }
  }
  return name + "_" + GraphKindName(std::get<1>(info.param)) + "_k" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllPartitioners, PartitionerContractTest,
    testing::Combine(
        testing::Values("2PS-L", "2PS-HDRF", "HDRF", "DBH", "Grid", "Hash",
                        "Greedy", "ADWISE", "NE", "SNE", "DNE", "HEP-1",
                        "HEP-10", "HEP-100", "METIS*"),
        testing::Values(GraphKind::kSocial, GraphKind::kCommunity,
                        GraphKind::kUniform, GraphKind::kTiny,
                        GraphKind::kEmpty, GraphKind::kOneEdge,
                        GraphKind::kSelfLoop, GraphKind::kStar,
                        GraphKind::kPath, GraphKind::kMultiEdge),
        testing::Values(1u, 2u, 5u, 32u)),
    ParamName);

TEST(RegistryTest, UnknownNameIsNotFound) {
  auto result = MakePartitioner("FancyNewThing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, RosterNamesAllResolve) {
  for (const std::string& name : Fig4PartitionerNames()) {
    EXPECT_TRUE(MakePartitioner(name).ok()) << name;
  }
  for (const std::string& name : StreamingPartitionerNames()) {
    EXPECT_TRUE(MakePartitioner(name).ok()) << name;
  }
}

/// Quality ordering sanity (weak form of the paper's Fig. 4): on a
/// community graph, clustering/expansion-aware partitioners beat plain
/// hashing by a clear margin.
TEST(QualityOrderingTest, StatefulBeatsStatelessOnCommunityGraph) {
  const std::vector<Edge> edges = MakeGraph(GraphKind::kCommunity);
  PartitionConfig config;
  config.num_partitions = 32;

  const auto rf = [&](const std::string& name) {
    auto partitioner = MakePartitioner(name);
    EXPECT_TRUE(partitioner.ok());
    InMemoryEdgeStream stream(edges);
    auto result = RunPartitioner(**partitioner, stream, config);
    EXPECT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    return result->quality.replication_factor;
  };

  const double hash_rf = rf("Hash");
  EXPECT_LT(rf("2PS-L"), hash_rf);
  EXPECT_LT(rf("HDRF"), hash_rf);
  EXPECT_LT(rf("NE"), hash_rf);
}

}  // namespace
}  // namespace tpsl
