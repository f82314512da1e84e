// The parallel pipeline's exactness contracts: the sharded quality
// sink must agree with the ComputeQuality oracle to the last bit under
// any interleaving, the async handoff must deliver every assignment
// (in order for a single producer, and through the runner's threads>1
// spill + keep path), and the engine
// clustering pass must reproduce the digests of the former sequential
// Algorithm 1 when inline (threads=1). The concurrent tests double as
// the tsan hammer for the sink protocol.
#include <gtest/gtest.h>

#include <algorithm>
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
/// to the sharded sink and to the oracle.
class RecordingSink : public AssignmentSink {
 public:
  void Assign(const Edge& edge, PartitionId partition) override {
    assignments_.push_back({edge, partition});
  }
  const std::vector<Assignment>& assignments() const { return assignments_; }

 private:
  std::vector<Assignment> assignments_;
};

/// Feeds the recorded stream to a ShardedQualitySink from
/// `num_threads` concurrent producers (work-stealing over fixed
/// chunks, so the shard interleaving differs run to run) and returns
/// the merged quality.
PartitionQuality FeedSharded(const std::vector<Assignment>& assignments,
                             uint32_t k, uint32_t num_threads) {
  ShardedQualitySink sink(k, num_threads);
  constexpr size_t kChunk = 512;
  const size_t num_chunks = (assignments.size() + kChunk - 1) / kChunk;
  std::atomic<size_t> next_chunk{0};
  std::vector<std::thread> producers;
  producers.reserve(num_threads);
  for (uint32_t t = 0; t < num_threads; ++t) {
    producers.emplace_back([&]() {
      for (;;) {
        const size_t c = next_chunk.fetch_add(1);
        if (c >= num_chunks) {
          return;
        }
        const size_t lo = c * kChunk;
        const size_t hi = std::min(assignments.size(), lo + kChunk);
        sink.AssignBatch(assignments.data() + lo, hi - lo);
      }
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  return sink.Quality();
}

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
/// stream of each registry partitioner, the sharded sink with 1, 2 or 4
/// shards fed from as many concurrent producers matches ComputeQuality
/// over the materialized partitions field for field, bit for bit —
/// replication bits are idempotent and loads are sums, so the merge is
/// order-independent and the final arithmetic is the oracle's.
TEST(ShardedQualitySinkTest, MatchesComputeQualityOracleExactly) {
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
      const PartitionQuality oracle =
          ComputeQuality(materialized.partitions());
      for (const uint32_t threads : {1u, 2u, 4u}) {
        ExpectExactlyEqual(
            FeedSharded(recorded.assignments(), k, threads), oracle,
            name + "/" + family + "/t" + std::to_string(threads));
      }
    }
  }
}

TEST(ShardedQualitySinkTest, EmptyAndSingleAssignment) {
  ShardedQualitySink empty(4, 2);
  const PartitionQuality none = empty.Quality();
  EXPECT_EQ(none.num_edges, 0u);
  EXPECT_EQ(none.replication_factor, 0.0);

  ShardedQualitySink one(4, 2);
  one.Assign({7, 9}, 2);
  const PartitionQuality q = one.Quality();
  EXPECT_EQ(q.num_edges, 1u);
  EXPECT_EQ(q.num_covered_vertices, 2u);
  EXPECT_EQ(q.replication_factor, 1.0);
}

/// A single sequential producer through the handoff must reach the
/// downstream sink complete and in submission order: the queue is
/// FIFO and one drainer delivers chunk by chunk.
TEST(AsyncHandoffSinkTest, PreservesOrderForSequentialProducer) {
  RecordingSink downstream;
  AsyncHandoffSink handoff(&downstream, /*max_queued_chunks=*/4);
  constexpr uint32_t kTotal = 10000;
  std::vector<Assignment> batch;
  for (uint32_t i = 0; i < kTotal; ++i) {
    batch.push_back({{i, i + 1}, static_cast<PartitionId>(i % 7)});
    if (batch.size() == 256) {
      handoff.AssignBatch(batch.data(), batch.size());
      batch.clear();
    }
  }
  handoff.AssignBatch(batch.data(), batch.size());
  handoff.Finish();
  ASSERT_EQ(downstream.assignments().size(), kTotal);
  for (uint32_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(downstream.assignments()[i].edge.first, i);
    EXPECT_EQ(downstream.assignments()[i].partition,
              static_cast<PartitionId>(i % 7));
  }
}

/// A downstream that silently drops assignments past a budget and
/// latches the failure in Health() — the shape of a spill writer
/// hitting a full disk (Assign has no error channel).
class FailingSink : public AssignmentSink {
 public:
  explicit FailingSink(uint64_t capacity) : capacity_(capacity) {}

  void Assign(const Edge& edge, PartitionId partition) override {
    (void)edge;
    (void)partition;
    if (accepted_ >= capacity_) {
      failed_ = true;
      return;
    }
    ++accepted_;
  }

  Status Health() const override {
    return failed_ ? Status::IoError("simulated disk full") : Status::OK();
  }

  uint64_t accepted() const { return accepted_; }

 private:
  const uint64_t capacity_;
  uint64_t accepted_ = 0;
  bool failed_ = false;
};

/// The handoff's drainer is the only thread that sees the downstream
/// mid-pass, so it must latch the downstream's failure and surface it
/// through the handoff's own Health() — the runner polls the pipeline,
/// never the wrapped sink.
TEST(AsyncHandoffSinkTest, PropagatesDownstreamFailureMidDrain) {
  FailingSink failing(/*capacity=*/1000);
  AsyncHandoffSink handoff(&failing, /*max_queued_chunks=*/4);
  std::vector<Assignment> chunk(256);
  for (uint32_t c = 0; c < 32; ++c) {
    for (uint32_t i = 0; i < chunk.size(); ++i) {
      const uint32_t n = c * 256 + i;
      chunk[i] = {{n, n + 1}, static_cast<PartitionId>(n % 4)};
    }
    handoff.AssignBatch(chunk.data(), chunk.size());
  }
  handoff.Finish();
  // 32 × 256 = 8192 submitted against a 1000-capacity downstream: the
  // failure latched mid-drain must be visible after Finish() and stay
  // sticky on repeated queries.
  EXPECT_FALSE(handoff.Health().ok());
  EXPECT_FALSE(handoff.Health().ok());
  EXPECT_EQ(failing.accepted(), 1000u);
}

/// Before any batch is queued there is no drainer; Health() must fall
/// through to the downstream directly so a pre-failed sink is visible
/// without pushing a single assignment.
TEST(AsyncHandoffSinkTest, ReportsDownstreamFailureWithoutDrainer) {
  FailingSink failing(/*capacity=*/0);
  failing.Assign({1, 2}, 0);  // trip the failure directly
  AsyncHandoffSink handoff(&failing, /*max_queued_chunks=*/4);
  EXPECT_FALSE(handoff.Health().ok());
}

/// A healthy downstream keeps the handoff healthy across the full
/// produce/drain/finish cycle.
TEST(AsyncHandoffSinkTest, HealthyDownstreamStaysHealthy) {
  CountingSink counting(4);
  AsyncHandoffSink handoff(&counting, /*max_queued_chunks=*/4);
  std::vector<Assignment> chunk(128);
  for (uint32_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = {{i, i + 1}, static_cast<PartitionId>(i % 4)};
  }
  handoff.AssignBatch(chunk.data(), chunk.size());
  EXPECT_TRUE(handoff.Health().ok());
  handoff.Finish();
  EXPECT_TRUE(handoff.Health().ok());
  EXPECT_EQ(counting.total(), chunk.size());
}

/// The tsan hammer for the runner's threads>1 pipeline shape: four
/// producers slam a TeeSink fanning to a sharded quality sink and an
/// async handoff over a sequential counting sink, exactly the
/// concurrent half of the runner's assembly. Every assignment must be
/// counted once on both branches.
TEST(ParallelPipelineTest, ConcurrentProducersThroughTeeAndHandoff) {
  const uint32_t k = 16;
  constexpr uint32_t kProducers = 4;
  constexpr uint32_t kChunksPerProducer = 64;
  constexpr uint32_t kChunkSize = 384;

  ShardedQualitySink sharded(k, kProducers);
  CountingSink counting(k);
  AsyncHandoffSink handoff(&counting, /*max_queued_chunks=*/8);
  TeeSink tee{&sharded, &handoff};
  ASSERT_TRUE(tee.ConcurrentSafe());

  std::vector<std::thread> producers;
  for (uint32_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t]() {
      std::vector<Assignment> chunk(kChunkSize);
      for (uint32_t c = 0; c < kChunksPerProducer; ++c) {
        for (uint32_t i = 0; i < kChunkSize; ++i) {
          const uint32_t n = (t * kChunksPerProducer + c) * kChunkSize + i;
          chunk[i] = {{n % 1024, (n / 2) % 1024},
                      static_cast<PartitionId>(n % k)};
        }
        tee.AssignBatch(chunk.data(), chunk.size());
      }
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  handoff.Finish();

  const uint64_t expected =
      uint64_t{kProducers} * kChunksPerProducer * kChunkSize;
  EXPECT_EQ(counting.total(), expected);
  EXPECT_EQ(sharded.Quality().num_edges, expected);
}

/// End-to-end exactness through RunPartitioner: NE's assignment stream
/// is identical at any thread count (the parallel adjacency build is a
/// stable counting sort), so the threads=4 run — four sink shards
/// instead of one — must reproduce the threads=1 quality to the last
/// bit.
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
/// (sharded quality, validation from its loads) must still satisfy the
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

/// The runner's only path through AsyncHandoffSink: a threads=4 run
/// with both sequential consumers (keep and spill) behind the handoff.
/// The spilled files must read back as exactly the kept partitions, and
/// the sharded quality must equal the oracle over them.
TEST(ParallelPipelineTest, RunnerHandoffSpillsExactlyTheKeptPartitions) {
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
  options.spill_dir = testing::TempDir() + "/pipeline_handoff_spill";
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
/// run's state at four threads exceeds the one-thread figure only by
/// the extra sink shards' loads, O(k·shards), and the matrix is
/// counted once. The graph is a perfect matching, so the clustering
/// (and every array sized by it) is the same at any thread count.
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
    config.exec.batch_size = 64;  // many batches, spread over the shards
    auto result = RunPartitioner(**partitioner, stream, config);
    ASSERT_TRUE(result.ok()) << result.status();
    state_bytes[threads == 1 ? 0 : 1] = result->stats.state_bytes;
  }
  const uint64_t matrix_bytes = uint64_t{kVertices} * kPartitions / 8;
  EXPECT_GE(state_bytes[0], matrix_bytes);
  EXPECT_LT(state_bytes[0], 2 * matrix_bytes);
  ASSERT_GE(state_bytes[1], state_bytes[0]);
  // Three more shards, each O(k) loads plus a fixed header.
  EXPECT_LE(state_bytes[1] - state_bytes[0],
            3 * (kPartitions * sizeof(uint64_t) + 256));
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
    uncapped.enforce_volume_cap = false;
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
