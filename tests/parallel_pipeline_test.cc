// The parallel pipeline's exactness contracts: the quality sink must
// agree with the ComputeQuality oracle to the last bit, a parallel
// scoring pass must deliver to its sink one caller at a time (and,
// through the runner's threads>1 spill + keep path, deliver every
// assignment), and the engine clustering pass must reproduce the
// digests of the former sequential Algorithm 1 when inline
// (threads=1). The threads=4 tests double as the tsan hammer for the
// sink protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/ne.h"
#include "baselines/registry.h"
#include "core/streaming_clustering.h"
#include "core/two_phase_partitioner.h"
#include "exec/thread_pool.h"
#include "graph/degrees.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/metrics.h"
#include "partition/runner.h"
#include "partition/sink_pipeline.h"

namespace tpsl {
namespace {

/// Same three seeded families as the state-kernel identity oracle:
/// skewed social (R-MAT), strong communities (planted partition), and
/// uniform (Erdős–Rényi).
std::vector<Edge> MakeFamily(const std::string& family) {
  if (family == "social") {
    RmatConfig config;
    config.scale = 11;
    config.edge_factor = 8;
    return GenerateRmat(config);
  }
  if (family == "community") {
    PlantedPartitionConfig config;
    config.num_vertices = 2048;
    config.num_edges = 16000;
    config.num_communities = 32;
    return GeneratePlantedPartition(config);
  }
  ErdosRenyiConfig config;
  config.num_vertices = 2048;
  config.num_edges = 16000;
  return GenerateErdosRenyi(config);
}

/// Materializes the assignment stream so the same decisions can be fed
/// to the quality sink and to the oracle.
class RecordingSink : public AssignmentSink {
 public:
  void Assign(const Edge& edge, PartitionId partition) override {
    assignments_.push_back({edge, partition});
  }
  const std::vector<Assignment>& assignments() const { return assignments_; }

 private:
  std::vector<Assignment> assignments_;
};

void ExpectExactlyEqual(const PartitionQuality& a, const PartitionQuality& b,
                        const std::string& label) {
  EXPECT_EQ(a.replication_factor, b.replication_factor) << label;
  EXPECT_EQ(a.measured_alpha, b.measured_alpha) << label;
  EXPECT_EQ(a.num_edges, b.num_edges) << label;
  EXPECT_EQ(a.num_covered_vertices, b.num_covered_vertices) << label;
  EXPECT_EQ(a.max_partition_size, b.max_partition_size) << label;
  EXPECT_EQ(a.min_partition_size, b.min_partition_size) << label;
  EXPECT_EQ(a.partition_sizes, b.partition_sizes) << label;
}

/// The exactness property the runner rests on: for the real assignment
/// stream of each registry partitioner, the quality sink matches
/// ComputeQuality over the materialized partitions field for field,
/// bit for bit — the final arithmetic is the oracle's.
TEST(QualitySinkTest, MatchesComputeQualityOracleExactly) {
  const std::vector<std::string> partitioners = {
      "2PS-L", "2PS-HDRF", "HDRF", "DBH", "Greedy", "NE"};
  const std::vector<std::string> families = {"social", "community",
                                             "uniform"};
  const uint32_t k = 8;
  for (const std::string& family : families) {
    const std::vector<Edge> edges = MakeFamily(family);
    for (const std::string& name : partitioners) {
      auto partitioner = MakePartitioner(name);
      ASSERT_TRUE(partitioner.ok()) << name;
      InMemoryEdgeStream stream(edges);
      PartitionConfig config;
      config.num_partitions = k;
      config.exec.threads = 1;
      RecordingSink recorded;
      ASSERT_TRUE(
          (*partitioner)->Partition(stream, config, recorded, nullptr).ok())
          << name << " on " << family;

      EdgeListSink materialized(k);
      materialized.AssignBatch(recorded.assignments().data(),
                               recorded.assignments().size());
      QualitySink sink(k);
      sink.AssignBatch(recorded.assignments().data(),
                       recorded.assignments().size());
      ExpectExactlyEqual(sink.Quality(),
                         ComputeQuality(materialized.partitions()),
                         name + "/" + family);
    }
  }
}

TEST(QualitySinkTest, EmptyAndSingleAssignment) {
  QualitySink empty(4);
  const PartitionQuality none = empty.Quality();
  EXPECT_EQ(none.num_edges, 0u);
  EXPECT_EQ(none.replication_factor, 0.0);

  QualitySink one(4);
  one.Assign({7, 9}, 2);
  const PartitionQuality q = one.Quality();
  EXPECT_EQ(q.num_edges, 1u);
  EXPECT_EQ(q.num_covered_vertices, 2u);
  EXPECT_EQ(q.replication_factor, 1.0);
}

/// Counts the AssignBatch calls that start while another is still in
/// flight. Every counter is atomic, so an overlap shows up as a count
/// rather than as a data race in the test itself.
class OverlapCountingSink : public AssignmentSink {
 public:
  void Assign(const Edge& edge, PartitionId partition) override {
    const Assignment one{edge, partition};
    AssignBatch(&one, 1);
  }

  void AssignBatch(const Assignment* /*batch*/, size_t count) override {
    if (in_flight_.fetch_add(1, std::memory_order_acq_rel) != 0) {
      overlaps_.fetch_add(1, std::memory_order_relaxed);
    }
    std::this_thread::yield();  // widen the window a second caller needs
    assigned_.fetch_add(count, std::memory_order_relaxed);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }

  uint64_t overlaps() const { return overlaps_.load(); }
  uint64_t assigned() const { return assigned_.load(); }

 private:
  std::atomic<uint32_t> in_flight_{0};
  std::atomic<uint64_t> overlaps_{0};
  std::atomic<uint64_t> assigned_{0};
};

/// Sink delivery is single-caller by contract: a parallel 2PS pass
/// hands each batch to its sink under one mutex, so even four workers
/// scoring small batches never call AssignBatch concurrently, and every
/// edge is delivered exactly once.
TEST(ParallelPipelineTest, DeliveryIsSerialized) {
  const std::vector<Edge> edges = MakeFamily("social");
  exec::ThreadPool pool(4);
  for (const std::string name : {"2PS-L", "2PS-HDRF"}) {
    for (const uint32_t threads : {1u, 4u}) {
      const std::string label = name + " threads=" + std::to_string(threads);
      auto partitioner = MakePartitioner(name);
      ASSERT_TRUE(partitioner.ok()) << label;
      InMemoryEdgeStream stream(edges);
      PartitionConfig config;
      config.num_partitions = 16;
      config.exec.threads = threads;
      config.exec.pool = &pool;
      config.exec.batch_size = 64;  // many batches per worker
      OverlapCountingSink sink;
      ASSERT_TRUE(
          (*partitioner)->Partition(stream, config, sink, nullptr).ok())
          << label;
      EXPECT_EQ(sink.overlaps(), 0u) << label;
      EXPECT_EQ(sink.assigned(), edges.size()) << label;
    }
  }
}

/// End-to-end exactness through RunPartitioner: NE's assignment stream
/// is identical at any thread count (the parallel adjacency build is a
/// stable counting sort), so the threads=4 run must reproduce the
/// threads=1 quality to the last bit.
TEST(ParallelPipelineTest, RunnerParallelQualityMatchesSequentialForNe) {
  RmatConfig rmat;
  rmat.scale = 12;
  rmat.edge_factor = 8;
  const auto edges = GenerateRmat(rmat);

  NePartitioner sequential_ne;
  InMemoryEdgeStream stream_a(edges);
  PartitionConfig config_t1;
  config_t1.num_partitions = 16;
  config_t1.exec.threads = 1;
  auto t1 = RunPartitioner(sequential_ne, stream_a, config_t1);
  ASSERT_TRUE(t1.ok()) << t1.status().ToString();

  exec::ThreadPool pool(4);
  NePartitioner parallel_ne;
  InMemoryEdgeStream stream_b(edges);
  PartitionConfig config_t4;
  config_t4.num_partitions = 16;
  config_t4.exec.threads = 4;
  config_t4.exec.pool = &pool;
  auto t4 = RunPartitioner(parallel_ne, stream_b, config_t4);
  ASSERT_TRUE(t4.ok()) << t4.status().ToString();

  ExpectExactlyEqual(t4->quality, t1->quality, "NE t4 vs t1");
}

/// The parallel 2PS-L partitioner through the threads=4 runner pipeline
/// (quality read off the lent matrix, validation from the sink's loads) must still satisfy the
/// partitioning contract on a real pool.
TEST(ParallelPipelineTest, RunnerParallel2pslSatisfiesContract) {
  RmatConfig rmat;
  rmat.scale = 12;
  rmat.edge_factor = 8;
  const auto edges = GenerateRmat(rmat);

  auto partitioner = MakePartitioner("2PS-L(par)");
  ASSERT_TRUE(partitioner.ok());
  exec::ThreadPool pool(4);
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = 32;
  config.exec.threads = 4;
  config.exec.pool = &pool;
  auto result = RunPartitioner(**partitioner, stream, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->quality.num_edges, edges.size());
  EXPECT_GE(result->quality.replication_factor, 1.0);
}

/// A threads=4 run with both opted-in consumers (keep and spill) on the
/// tee beside the quality sink, fed by four workers through the pass's
/// mutex. The spilled files must read back as exactly the kept
/// partitions, and the quality must equal the oracle over them.
TEST(ParallelPipelineTest, RunnerFourThreadSpillMatchesKeptPartitions) {
  RmatConfig rmat;
  rmat.scale = 12;
  rmat.edge_factor = 8;
  const auto edges = GenerateRmat(rmat);

  auto partitioner = MakePartitioner("2PS-L");
  ASSERT_TRUE(partitioner.ok());
  exec::ThreadPool pool(4);
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = 8;
  config.exec.threads = 4;
  config.exec.pool = &pool;
  RunOptions options;
  options.keep_partitions = true;
  options.spill_dir = testing::TempDir() + "/pipeline_parallel_spill";
  auto result = RunPartitioner(**partitioner, stream, config, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->partitions.size(), config.num_partitions);
  ASSERT_TRUE(result->spill.spilled());

  auto spilled = OpenSpilledPartitions(result->spill);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  ASSERT_EQ(spilled->size(), result->partitions.size());
  for (size_t p = 0; p < spilled->size(); ++p) {
    std::vector<Edge> read_back;
    ASSERT_TRUE(ForEachEdge(*(*spilled)[p], [&](const Edge& e) {
                  read_back.push_back(e);
                }).ok());
    EXPECT_EQ(read_back, result->partitions[p]) << "partition " << p;
  }
  ExpectExactlyEqual(result->quality, ComputeQuality(result->partitions),
                     "2PS-L t4 spill+keep");
  spilled->clear();
  RemoveSpilledFiles(result->spill);
}

/// kInvalidVertex is a legal u32 in every binary edge format, but its
/// matrix row would start past the addressable range: the run fails
/// with a Status at any thread count — from the quality sink for a
/// stateless partitioner, from the degree pass (before it sizes
/// anything by the vertex id) for the 2PS family.
TEST(ParallelPipelineTest, RunnerRejectsInvalidVertexId) {
  exec::ThreadPool pool(4);
  for (const std::string name : {"Hash", "2PS-L", "2PS-HDRF"}) {
    for (const uint32_t threads : {1u, 4u}) {
      const std::string label = name + " threads=" + std::to_string(threads);
      auto partitioner = MakePartitioner(name);
      ASSERT_TRUE(partitioner.ok()) << label;
      InMemoryEdgeStream stream({{0, 1}, {2, kInvalidVertex}});
      PartitionConfig config;
      config.num_partitions = 4;
      config.exec.threads = threads;
      config.exec.pool = &pool;
      auto result = RunPartitioner(**partitioner, stream, config);
      ASSERT_FALSE(result.ok()) << label;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << label << ": " << result.status().ToString();
    }
  }
}

/// 2PS-L and 2PS-HDRF lend their replica matrix to the runner's quality
/// sink, which then counts loads only. The quality read off the lent
/// matrix must still equal the ComputeQuality oracle over the kept
/// partitions to the last bit, at every thread count and across k
/// (word-aligned rows, rows straddling words, one row per word and
/// more).
TEST(LentReplicasTest, RunnerQualityMatchesOracleExactly) {
  exec::ThreadPool pool(4);
  for (const std::string family : {"social", "community", "uniform"}) {
    const std::vector<Edge> edges = MakeFamily(family);
    for (const std::string name : {"2PS-L", "2PS-HDRF"}) {
      for (const uint32_t threads : {1u, 2u, 4u}) {
        for (const uint32_t k : {1u, 3u, 32u, 100u, 256u}) {
          std::string label = family;
          label += " " + name + " t" + std::to_string(threads) + " k" +
                   std::to_string(k);
          auto partitioner = MakePartitioner(name);
          ASSERT_TRUE(partitioner.ok()) << label;
          InMemoryEdgeStream stream(edges);
          PartitionConfig config;
          config.num_partitions = k;
          config.exec.threads = threads;
          config.exec.pool = &pool;
          RunOptions options;
          options.keep_partitions = true;
          auto result = RunPartitioner(**partitioner, stream, config, options);
          ASSERT_TRUE(result.ok()) << label << ": " << result.status();
          ExpectExactlyEqual(result->quality,
                             ComputeQuality(result->partitions), label);
        }
      }
    }
  }
}

/// The run holds one v2p matrix whatever the worker count: a 2PS-L
/// run's state at four threads equals the one-thread figure, and the
/// matrix is counted once. The graph is a perfect matching, so the
/// clustering (and every array sized by it) is the same at any thread
/// count.
TEST(LentReplicasTest, StateBytesCountTheMatrixOnce) {
  constexpr VertexId kVertices = 1 << 14;
  constexpr uint32_t kPartitions = 256;
  std::vector<Edge> edges;
  for (VertexId v = 0; v < kVertices; v += 2) {
    edges.push_back({v, v + 1});
  }
  exec::ThreadPool pool(4);
  uint64_t state_bytes[2] = {0, 0};
  for (const uint32_t threads : {1u, 4u}) {
    auto partitioner = MakePartitioner("2PS-L");
    ASSERT_TRUE(partitioner.ok());
    InMemoryEdgeStream stream(edges);
    PartitionConfig config;
    config.num_partitions = kPartitions;
    config.exec.threads = threads;
    config.exec.pool = &pool;
    config.exec.batch_size = 64;  // many batches, spread over the workers
    auto result = RunPartitioner(**partitioner, stream, config);
    ASSERT_TRUE(result.ok()) << result.status();
    state_bytes[threads == 1 ? 0 : 1] = result->stats.state_bytes;
  }
  const uint64_t matrix_bytes = uint64_t{kVertices} * kPartitions / 8;
  EXPECT_GE(state_bytes[0], matrix_bytes);
  EXPECT_LT(state_bytes[0], 2 * matrix_bytes);
  EXPECT_EQ(state_bytes[1], state_bytes[0]);
}

/// The inline clustering behind the unchanged 2psl golden digests: an
/// FNV-1a 64 digest of vertex_cluster then cluster_volumes, captured
/// from the sequential Algorithm 1 implementation before it was folded
/// onto the engine (k=8). The whole Clustering must match, not just its
/// quality, across passes and cap settings, through both entry points.
TEST(ParallelClusteringTest, InlineMatchesCapturedDigests) {
  struct Variant {
    const char* label;
    ClusteringConfig config;
  };
  std::vector<Variant> variants;
  variants.push_back({"default", {}});
  {
    ClusteringConfig two_passes;
    two_passes.num_passes = 2;
    variants.push_back({"two-pass", two_passes});
  }
  {
    ClusteringConfig uncapped;
    uncapped.volume_cap_factor = 8;  // = k: the cap 2|E| never binds
    variants.push_back({"uncapped", uncapped});
  }
  const std::map<std::pair<std::string, std::string>, uint64_t> golden = {
      {{"social", "default"}, 0x1addb3dc1ae7720eULL},
      {{"social", "two-pass"}, 0x2450ff54ac52f92fULL},
      {{"social", "uncapped"}, 0x87d0ed2d3217d0daULL},
      {{"community", "default"}, 0xf126bf0b60555b64ULL},
      {{"community", "two-pass"}, 0xf51c6c09f22745daULL},
      {{"community", "uncapped"}, 0x7b80877cbe8bafb6ULL},
      {{"uniform", "default"}, 0x0201cf6458d5104eULL},
      {{"uniform", "two-pass"}, 0x774047daf8b1bdccULL},
      {{"uniform", "uncapped"}, 0x1806888e2c237b96ULL},
  };
  const auto digest = [](const Clustering& clustering) {
    uint64_t state = 0xcbf29ce484222325ULL;
    const auto fold = [&state](const void* data, size_t bytes) {
      const unsigned char* p = static_cast<const unsigned char*>(data);
      for (size_t i = 0; i < bytes; ++i) {
        state ^= p[i];
        state *= 0x100000001b3ULL;
      }
    };
    fold(clustering.vertex_cluster.data(),
         clustering.vertex_cluster.size() * sizeof(ClusterId));
    fold(clustering.cluster_volumes.data(),
         clustering.cluster_volumes.size() * sizeof(uint64_t));
    return state;
  };

  for (const std::string family : {"social", "community", "uniform"}) {
    const std::vector<Edge> edges = MakeFamily(family);
    InMemoryEdgeStream stream(edges);
    auto degrees = ComputeDegrees(stream);
    ASSERT_TRUE(degrees.ok());
    for (const Variant& variant : variants) {
      const uint64_t expected = golden.at({family, variant.label});
      auto forwarded =
          StreamingClustering(stream, *degrees, 8, variant.config);
      ASSERT_TRUE(forwarded.ok()) << variant.label;
      EXPECT_EQ(digest(*forwarded), expected)
          << family << "/" << variant.label;
      exec::ExecContext inline_exec;
      inline_exec.batch_size = 1000;  // batching must not matter inline
      auto engine = ParallelStreamingClustering(stream, *degrees, 8,
                                                variant.config, inline_exec);
      ASSERT_TRUE(engine.ok()) << variant.label;
      EXPECT_EQ(digest(*engine), expected) << family << "/" << variant.label;
    }
  }
}

/// With real concurrency the clustering may drift in quality but never
/// in correctness: every non-isolated vertex lands in exactly one
/// compacted cluster, and the returned volumes are the exact member
/// degree sums (they are recomputed from final membership, not from
/// the racy accumulators).
TEST(ParallelClusteringTest, ManyThreadInvariants) {
  RmatConfig rmat;
  rmat.scale = 12;
  rmat.edge_factor = 8;
  const auto edges = GenerateRmat(rmat);
  InMemoryEdgeStream stream(edges);
  auto degrees = ComputeDegrees(stream);
  ASSERT_TRUE(degrees.ok());

  exec::ThreadPool pool(4);
  exec::ExecContext exec;
  exec.threads = 4;
  exec.pool = &pool;
  exec.batch_size = 1024;
  auto clustering =
      ParallelStreamingClustering(stream, *degrees, 8, {}, exec);
  ASSERT_TRUE(clustering.ok()) << clustering.status().ToString();

  std::vector<uint64_t> recomputed(clustering->num_clusters(), 0);
  uint64_t clustered_volume = 0;
  ASSERT_EQ(clustering->vertex_cluster.size(), degrees->degrees.size());
  for (VertexId v = 0; v < clustering->vertex_cluster.size(); ++v) {
    const ClusterId c = clustering->vertex_cluster[v];
    if (c == kInvalidCluster) {
      EXPECT_EQ(degrees->degree(v), 0u) << v;
      continue;
    }
    ASSERT_LT(c, clustering->num_clusters());
    recomputed[c] += degrees->degree(v);
    clustered_volume += degrees->degree(v);
  }
  EXPECT_EQ(recomputed, clustering->cluster_volumes);
  EXPECT_EQ(clustered_volume, degrees->TotalVolume());
}

}  // namespace
}  // namespace tpsl
