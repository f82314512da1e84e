#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/registry.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/assignment_sink.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"
#include "partition/replica_matrix.h"
#include "partition/runner.h"
#include "partition/sink_pipeline.h"

namespace tpsl {
namespace {

TEST(PartitionConfigTest, CapacityMatchesFormula) {
  PartitionConfig config;
  config.num_partitions = 4;
  config.balance_factor = 1.05;
  // ceil(1.05 * 100 / 4) = 27 (1.05*25 = 26.25).
  EXPECT_EQ(config.PartitionCapacity(100), 27u);
}

TEST(PartitionConfigTest, CapacityNeverBelowPerfectBalance) {
  PartitionConfig config;
  config.num_partitions = 3;
  config.balance_factor = 1.0;
  // ceil(10/3) = 4; a cap of 3 would be infeasible.
  EXPECT_EQ(config.PartitionCapacity(10), 4u);
}

TEST(PartitionConfigTest, CapacityWithKOne) {
  PartitionConfig config;
  config.num_partitions = 1;
  EXPECT_GE(config.PartitionCapacity(50), 50u);
}

TEST(ReplicaMatrixTest, SetIsIdempotent) {
  for (const bool shared : {false, true}) {
    ReplicaMatrix matrix(10, 4, shared);
    EXPECT_FALSE(matrix.Test(3, 2));
    matrix.Set(3, 2);
    EXPECT_TRUE(matrix.Test(3, 2));
    EXPECT_TRUE(matrix.Test<ReplicaMatrix::Access::kRelaxed>(3, 2));
    EXPECT_EQ(matrix.TotalReplicas(), 1u);
    matrix.Set(3, 2);
    EXPECT_EQ(matrix.TotalReplicas(), 1u);
    EXPECT_EQ(matrix.CoveredVertices(), 1u);
  }
}

TEST(ReplicaMatrixTest, CoverAndReplicaBookkeeping) {
  ReplicaMatrix matrix(5, 3);
  matrix.Set(0, 0);
  matrix.Set(0, 1);
  matrix.Set(0, 2);
  matrix.Set(1, 1);
  EXPECT_EQ(matrix.TotalReplicas(), 4u);
  EXPECT_EQ(matrix.CoveredVertices(), 2u);
  // RF = (3 + 1) / 2 covered vertices.
  EXPECT_DOUBLE_EQ(matrix.ReplicationFactor(), 2.0);
}

TEST(ReplicaMatrixTest, EmptyMatrixHasZeroRf) {
  ReplicaMatrix matrix(10, 4);
  EXPECT_DOUBLE_EQ(matrix.ReplicationFactor(), 0.0);
  EXPECT_EQ(matrix.CoveredVertices(), 0u);
}

TEST(ReplicaMatrixTest, LargeIndicesDoNotAlias) {
  // Row indexing across word boundaries.
  ReplicaMatrix matrix(1000, 37);
  matrix.Set(999, 36);
  matrix.Set(998, 0);
  EXPECT_TRUE(matrix.Test(999, 36));
  EXPECT_TRUE(matrix.Test(998, 0));
  EXPECT_FALSE(matrix.Test(999, 35));
  EXPECT_FALSE(matrix.Test(998, 36));
}

TEST(ReplicaMatrixTest, GrowVerticesKeepsRowsAndZeroesNewOnes) {
  // The quality sink's own matrix starts empty and grows per edge.
  ReplicaMatrix matrix(0, 3);
  EXPECT_EQ(matrix.HeapBytes(), 0u);
  matrix.GrowVertices(2);
  matrix.Set(1, 2);
  matrix.GrowVertices(1);  // never shrinks
  EXPECT_EQ(matrix.num_vertices(), 2u);
  matrix.GrowVertices(100);
  EXPECT_EQ(matrix.num_vertices(), 100u);
  EXPECT_TRUE(matrix.Test(1, 2));
  for (VertexId v = 2; v < 100; ++v) {
    for (PartitionId p = 0; p < 3; ++p) {
      EXPECT_FALSE(matrix.Test(v, p)) << v << "," << p;
    }
  }
  matrix.Set(99, 0);
  EXPECT_EQ(matrix.TotalReplicas(), 2u);
  EXPECT_EQ(matrix.CoveredVertices(), 2u);
  EXPECT_EQ(matrix.HeapBytes(), (100 * 3 + 63) / 64 * sizeof(uint64_t));
}

TEST(SinkTest, CountingSinkCounts) {
  CountingSink sink(3);
  sink.Assign(Edge{0, 1}, 0);
  sink.Assign(Edge{1, 2}, 0);
  sink.Assign(Edge{2, 3}, 2);
  EXPECT_EQ(sink.loads(), (std::vector<uint64_t>{2, 0, 1}));
  EXPECT_EQ(sink.total(), 3u);
}

TEST(SinkTest, EdgeListSinkMaterializes) {
  EdgeListSink sink(2);
  sink.Assign(Edge{0, 1}, 1);
  sink.Assign(Edge{1, 2}, 0);
  EXPECT_EQ(sink.partitions()[0], (std::vector<Edge>{{1, 2}}));
  EXPECT_EQ(sink.partitions()[1], (std::vector<Edge>{{0, 1}}));
  auto taken = sink.TakePartitions();
  EXPECT_EQ(taken.size(), 2u);
}

TEST(SinkTest, TeeSinkFansOutToEverySink) {
  CountingSink a(2), b(2), c(2);
  TeeSink tee({&a, &b});
  tee.Add(&c);
  EXPECT_EQ(tee.num_sinks(), 3u);
  tee.Assign(Edge{0, 1}, 1);
  EXPECT_EQ(a.loads()[1], 1u);
  EXPECT_EQ(b.loads()[1], 1u);
  EXPECT_EQ(c.loads()[1], 1u);
}

TEST(SinkTest, TeeSinkStateIsSumOfChildren) {
  CountingSink a(4), b(4);
  TeeSink tee({&a, &b});
  EXPECT_GE(tee.StateBytes(), a.StateBytes() + b.StateBytes());
}

TEST(SinkTest, EmptyTeeSinkIsANoOp) {
  TeeSink tee;
  tee.Assign(Edge{0, 1}, 0);  // must not crash
  EXPECT_EQ(tee.num_sinks(), 0u);
}

TEST(QualitySinkTest, MatchesOracleOnKnownPartitioning) {
  // Same fixture as MetricsTest.QualityOfKnownPartitioning below.
  std::vector<std::vector<Edge>> parts = {
      {{0, 1}, {1, 2}, {2, 0}},
      {{2, 3}},
  };
  QualitySink sink(2);
  for (PartitionId p = 0; p < parts.size(); ++p) {
    for (const Edge& e : parts[p]) {
      sink.Assign(e, p);
    }
  }
  const PartitionQuality streamed = sink.Quality();
  const PartitionQuality oracle = ComputeQuality(parts);
  EXPECT_DOUBLE_EQ(streamed.replication_factor, oracle.replication_factor);
  EXPECT_DOUBLE_EQ(streamed.measured_alpha, oracle.measured_alpha);
  EXPECT_EQ(streamed.num_edges, oracle.num_edges);
  EXPECT_EQ(streamed.num_covered_vertices, oracle.num_covered_vertices);
  EXPECT_EQ(streamed.max_partition_size, oracle.max_partition_size);
  EXPECT_EQ(streamed.min_partition_size, oracle.min_partition_size);
  EXPECT_EQ(streamed.partition_sizes, oracle.partition_sizes);
}

TEST(QualitySinkTest, EmptyQualityIsZero) {
  QualitySink sink(3);
  const PartitionQuality quality = sink.Quality();
  EXPECT_DOUBLE_EQ(quality.replication_factor, 0.0);
  EXPECT_EQ(quality.num_edges, 0u);
  EXPECT_EQ(quality.partition_sizes, (std::vector<uint64_t>{0, 0, 0}));
}

TEST(QualitySinkTest, StateGrowsWithVerticesNotEdges) {
  QualitySink sink(4);
  for (int repeat = 0; repeat < 1000; ++repeat) {
    sink.Assign(Edge{0, 1}, 0);  // same two vertices, many edges
  }
  const uint64_t bytes_small_v = sink.StateBytes();
  sink.Assign(Edge{50000, 50001}, 1);
  EXPECT_GT(sink.StateBytes(), bytes_small_v);
  // O(|V|*k) bitset, nowhere near edge-list scale.
  EXPECT_LT(sink.StateBytes(), uint64_t{50002} * 4 / 8 + 4096);
}

TEST(MetricsTest, QualityOfKnownPartitioning) {
  // Partition 0: triangle {0,1,2}; partition 1: edge {2,3}.
  // Covers: |{0,1,2}| + |{2,3}| = 5; covered vertices = 4 -> RF 1.25.
  std::vector<std::vector<Edge>> parts = {
      {{0, 1}, {1, 2}, {2, 0}},
      {{2, 3}},
  };
  const PartitionQuality quality = ComputeQuality(parts);
  EXPECT_DOUBLE_EQ(quality.replication_factor, 1.25);
  EXPECT_EQ(quality.num_edges, 4u);
  EXPECT_EQ(quality.num_covered_vertices, 4u);
  EXPECT_EQ(quality.max_partition_size, 3u);
  EXPECT_EQ(quality.min_partition_size, 1u);
  // alpha = 3 / (4/2) = 1.5.
  EXPECT_DOUBLE_EQ(quality.measured_alpha, 1.5);
}

TEST(MetricsTest, EmptyPartitioning) {
  const PartitionQuality quality = ComputeQuality({{}, {}});
  EXPECT_DOUBLE_EQ(quality.replication_factor, 0.0);
  EXPECT_EQ(quality.num_edges, 0u);
}

TEST(MetricsTest, ValidateDetectsCapacityViolation) {
  EXPECT_TRUE(ValidateLoads({2, 0}, 2, 2).ok());
  const Status status = ValidateLoads({2, 0}, 2, 1);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(MetricsTest, ValidateDetectsLostEdges) {
  const Status status = ValidateLoads({1, 0}, 2, 10);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

/// A deliberately broken partitioner that drops every edge; the runner
/// must flag it.
class DroppingPartitioner : public Partitioner {
 public:
  std::string name() const override { return "Dropper"; }
  Status Partition(EdgeStream& stream, const PartitionConfig&,
                   AssignmentSink&, PartitionStats*) override {
    return ForEachEdge(stream, [](const Edge&) {});
  }
};

TEST(RunnerTest, CatchesEdgeLoss) {
  InMemoryEdgeStream stream({{0, 1}, {1, 2}});
  DroppingPartitioner partitioner;
  PartitionConfig config;
  config.num_partitions = 2;
  auto result = RunPartitioner(partitioner, stream, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

/// Overloads one partition; the runner must flag the cap violation.
class OverloadingPartitioner : public Partitioner {
 public:
  std::string name() const override { return "Overloader"; }
  Status Partition(EdgeStream& stream, const PartitionConfig&,
                   AssignmentSink& sink, PartitionStats*) override {
    return ForEachEdge(stream,
                       [&sink](const Edge& e) { sink.Assign(e, 0); });
  }
};

/// The same placement from a partitioner that declares no cap, as the
/// hashing baselines do: the runner checks only the edge count.
class UncappedOverloader : public OverloadingPartitioner {
 public:
  bool enforces_balance_cap() const override { return false; }
};

TEST(RunnerTest, CatchesCapViolation) {
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < 100; ++i) {
    edges.push_back(Edge{i, i + 1});
  }
  InMemoryEdgeStream stream(edges);
  OverloadingPartitioner partitioner;
  PartitionConfig config;
  config.num_partitions = 4;
  auto result = RunPartitioner(partitioner, stream, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

/// Delivers every edge twice; the runner must flag the duplicates.
class DuplicatingPartitioner : public Partitioner {
 public:
  std::string name() const override { return "Duplicator"; }
  bool enforces_balance_cap() const override { return false; }
  Status Partition(EdgeStream& stream, const PartitionConfig& config,
                   AssignmentSink& sink, PartitionStats*) override {
    return ForEachEdge(stream, [&](const Edge& e) {
      const PartitionId p = e.first % config.num_partitions;
      sink.Assign(e, p);
      sink.Assign(e, p);
    });
  }
};

TEST(RunnerTest, CatchesDuplicateDelivery) {
  InMemoryEdgeStream stream({{0, 1}, {1, 2}, {2, 3}});
  DuplicatingPartitioner partitioner;
  PartitionConfig config;
  config.num_partitions = 2;
  auto result = RunPartitioner(partitioner, stream, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("assigned 6 edges, expected 3"),
            std::string::npos)
      << result.status().ToString();
}

/// A stream that publishes no edge-count hint: the cap can only be
/// computed from the final loads.
class HintlessEdgeStream : public InMemoryEdgeStream {
 public:
  using InMemoryEdgeStream::InMemoryEdgeStream;
  uint64_t NumEdgesHint() const override { return 0; }
};

TEST(RunnerTest, CatchesCapViolationWithoutEdgeCountHint) {
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < 100; ++i) {
    edges.push_back(Edge{i, i + 1});
  }
  HintlessEdgeStream stream(edges);
  ASSERT_EQ(stream.NumEdgesHint(), 0u);
  OverloadingPartitioner partitioner;
  PartitionConfig config;
  config.num_partitions = 4;
  auto result = RunPartitioner(partitioner, stream, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("holds 100 edges"),
            std::string::npos)
      << result.status().ToString();
}

/// Edge loss, cap breach and duplicates are all caught from the quality
/// sink's loads at threads > 1 too.
TEST(RunnerTest, CatchesContractViolationsAtFourThreads) {
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < 100; ++i) {
    edges.push_back(Edge{i, i + 1});
  }
  PartitionConfig config;
  config.num_partitions = 4;
  config.exec.threads = 4;

  InMemoryEdgeStream lossy(edges);
  DroppingPartitioner dropper;
  auto lost = RunPartitioner(dropper, lossy, config);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kFailedPrecondition);

  InMemoryEdgeStream overloaded(edges);
  OverloadingPartitioner overloader;
  auto over_cap = RunPartitioner(overloader, overloaded, config);
  ASSERT_FALSE(over_cap.ok());
  EXPECT_EQ(over_cap.status().code(), StatusCode::kFailedPrecondition);

  InMemoryEdgeStream duplicated(edges);
  DuplicatingPartitioner duplicator;
  auto twice = RunPartitioner(duplicator, duplicated, config);
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RunnerTest, StreamingQualityMatchesOracleWithoutKeptPartitions) {
  // The default measurement path: no edge lists kept, quality from the
  // streaming sink must equal the from-scratch oracle on the same run.
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < 500; ++i) {
    edges.push_back(Edge{i % 97, (i * 7 + 3) % 89});
  }
  InMemoryEdgeStream stream(edges);
  UncappedOverloader all_in_one;  // deterministic sink pattern
  PartitionConfig config;
  config.num_partitions = 3;
  RunOptions options;
  options.keep_partitions = true;
  auto result = RunPartitioner(all_in_one, stream, config, options);
  ASSERT_TRUE(result.ok());
  const PartitionQuality oracle = ComputeQuality(result->partitions);
  EXPECT_DOUBLE_EQ(result->quality.replication_factor,
                   oracle.replication_factor);
  EXPECT_DOUBLE_EQ(result->quality.measured_alpha, oracle.measured_alpha);
  EXPECT_EQ(result->quality.partition_sizes, oracle.partition_sizes);
}

TEST(RunnerTest, SinkStateCountsTowardStateBytes) {
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < 200; ++i) {
    edges.push_back(Edge{i, i + 1});
  }
  UncappedOverloader partitioner;  // reports no state of its own
  PartitionConfig config;
  config.num_partitions = 4;
  RunOptions options;

  InMemoryEdgeStream stream_a(edges);
  auto streaming = RunPartitioner(partitioner, stream_a, config, options);
  ASSERT_TRUE(streaming.ok());
  // The quality sink's own replica matrix is real state: reported.
  EXPECT_GT(streaming->stats.state_bytes, 0u);

  InMemoryEdgeStream stream_b(edges);
  options.keep_partitions = true;
  auto kept = RunPartitioner(partitioner, stream_b, config, options);
  ASSERT_TRUE(kept.ok());
  // Opting into materialization must show up in the accounting.
  EXPECT_GT(kept->stats.state_bytes,
            streaming->stats.state_bytes + 200 * sizeof(Edge) - 1);
}

/// Every partitioner that keeps a replica matrix lends it, so a run
/// holds one: the quality sink keeps its k loads only, and its quality
/// still equals the oracle to the last bit.
TEST(LentReplicasTest, EveryLenderLeavesTheSinkItsLoadsOnly) {
  RmatConfig graph;
  graph.scale = 10;
  graph.edge_factor = 8;
  const std::vector<Edge> edges = GenerateRmat(graph);
  constexpr uint32_t kPartitions = 16;
  PartitionConfig config;
  config.num_partitions = kPartitions;
  for (const char* name :
       {"2PS-L", "2PS-HDRF", "HDRF", "Greedy", "ADWISE", "HEP-10"}) {
    auto partitioner = MakePartitioner(name);
    ASSERT_TRUE(partitioner.ok()) << name;
    InMemoryEdgeStream stream(edges);

    // The runner's pipeline, driven directly so its sink can be asked.
    QualitySink sink(kPartitions);
    TeeSink pipeline{&sink};
    PartitionStats own;
    ASSERT_TRUE((*partitioner)->Partition(stream, config, pipeline, &own).ok())
        << name;
    EXPECT_EQ(sink.StateBytes(), kPartitions * sizeof(uint64_t)) << name;

    auto run = RunPartitioner(**partitioner, stream, config);
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    EXPECT_EQ(run->stats.state_bytes, own.state_bytes + pipeline.StateBytes())
        << name;

    RunOptions keep;
    keep.keep_partitions = true;
    auto kept = RunPartitioner(**partitioner, stream, config, keep);
    ASSERT_TRUE(kept.ok()) << name << ": " << kept.status().ToString();
    const PartitionQuality oracle = ComputeQuality(kept->partitions);
    EXPECT_EQ(kept->quality.replication_factor, oracle.replication_factor)
        << name;
    EXPECT_EQ(kept->quality.measured_alpha, oracle.measured_alpha) << name;
    EXPECT_EQ(kept->quality.num_covered_vertices, oracle.num_covered_vertices)
        << name;
    EXPECT_EQ(kept->quality.partition_sizes, oracle.partition_sizes) << name;
    EXPECT_EQ(sink.Quality().replication_factor, oracle.replication_factor)
        << name;
  }
}

/// Stream whose pass "fails" after a few edges: Next() returns 0 and
/// Health() latches an I/O error, like a truncated or unreadable file.
class FailingEdgeStream : public EdgeStream {
 public:
  explicit FailingEdgeStream(size_t fail_after) : fail_after_(fail_after) {}

  Status Reset() override {
    delivered_ = 0;
    return Status::OK();
  }

  size_t Next(Edge* out, size_t capacity) override {
    if (delivered_ >= fail_after_) {
      health_ = Status::IoError("simulated read failure");
      return 0;
    }
    const size_t n = std::min(capacity, fail_after_ - delivered_);
    for (size_t i = 0; i < n; ++i) {
      const VertexId v = static_cast<VertexId>(delivered_ + i);
      out[i] = Edge{v, v + 1};
    }
    delivered_ += n;
    return n;
  }

  uint64_t NumEdgesHint() const override { return 1000; }  // lies: fails first

  Status Health() const override { return health_; }

 private:
  size_t fail_after_;
  size_t delivered_ = 0;
  Status health_;
};

TEST(RunnerTest, FailingStreamSurfacesHealthNotShortGraph) {
  // A mid-pass stream failure must fail the run with the stream's I/O
  // error — never quietly measure a shorter graph through the pipeline.
  FailingEdgeStream stream(/*fail_after=*/64);
  OverloadingPartitioner partitioner;
  PartitionConfig config;
  config.num_partitions = 2;
  // The stream's health is checked before the loads are validated.
  auto result = RunPartitioner(partitioner, stream, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace tpsl
