#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/ne.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"
#include "graph/degrees.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "graph/types.h"
#include "io/edge_file.h"
#include "util/random.h"

namespace tpsl {
namespace {

TEST(DegreesTest, TriangleDegrees) {
  InMemoryEdgeStream stream({{0, 1}, {1, 2}, {2, 0}});
  auto table_or = ComputeDegrees(stream);
  ASSERT_TRUE(table_or.ok());
  EXPECT_EQ(table_or->num_vertices(), 3u);
  EXPECT_EQ(table_or->num_edges, 3u);
  EXPECT_EQ(table_or->degree(0), 2u);
  EXPECT_EQ(table_or->degree(1), 2u);
  EXPECT_EQ(table_or->degree(2), 2u);
  EXPECT_EQ(table_or->TotalVolume(), 6u);
}

TEST(DegreesTest, SelfLoopCountsTwice) {
  InMemoryEdgeStream stream({{5, 5}});
  auto table_or = ComputeDegrees(stream);
  ASSERT_TRUE(table_or.ok());
  EXPECT_EQ(table_or->degree(5), 2u);
  EXPECT_EQ(table_or->num_vertices(), 6u);  // ids 0..5
}

TEST(DegreesTest, EmptyStream) {
  InMemoryEdgeStream stream;
  auto table_or = ComputeDegrees(stream);
  ASSERT_TRUE(table_or.ok());
  EXPECT_EQ(table_or->num_vertices(), 0u);
  EXPECT_EQ(table_or->num_edges, 0u);
}

TEST(DegreesTest, MultiEdgesAccumulate) {
  InMemoryEdgeStream stream({{0, 1}, {0, 1}, {1, 0}});
  auto table_or = ComputeDegrees(stream);
  ASSERT_TRUE(table_or.ok());
  EXPECT_EQ(table_or->degree(0), 3u);
  EXPECT_EQ(table_or->degree(1), 3u);
}

/// `ComputeDegrees` on `threads` workers of `pool`, in batches of
/// `batch_size` edges (a block stream batches by its blocks).
StatusOr<DegreeTable> DegreesAt(EdgeStream& stream, uint32_t threads,
                                uint32_t batch_size, exec::ThreadPool& pool) {
  exec::ExecContext exec;
  exec.threads = threads;
  exec.batch_size = batch_size;
  exec.pool = &pool;
  return ComputeDegrees(stream, exec);
}

/// Degrees are exact sums, so every thread count gives the inline
/// pass's table. A star's hub wraps its byte counter inside a batch of
/// 1024 edges and only across batches of 64; the max id of the third
/// case arrives in the last 64-edge batch alone.
TEST(DegreesTest, IdenticalAcrossThreadCounts) {
  struct Case {
    const char* label;
    std::vector<Edge> edges;
  };
  std::vector<Case> cases;
  RmatConfig rmat;
  rmat.scale = 12;
  rmat.edge_factor = 8;
  cases.push_back({"rmat", GenerateRmat(rmat)});
  std::vector<Edge> star;
  for (VertexId leaf = 1; leaf <= 1500; ++leaf) {
    star.push_back(leaf % 3 == 0 ? Edge{leaf, 0} : Edge{0, leaf});
  }
  cases.push_back({"star", star});
  std::vector<Edge> late_max;
  for (VertexId v = 0; v < 640; ++v) {
    late_max.push_back({v % 50, (v * 7) % 50});
  }
  late_max.push_back({3, 100000});
  cases.push_back({"max id in last batch", late_max});
  std::vector<Edge> loops;
  for (VertexId i = 0; i < 700; ++i) {
    loops.push_back(i % 2 == 0 ? Edge{9, 9} : Edge{i % 13, i % 13});
  }
  cases.push_back({"self-loops", loops});
  cases.push_back({"empty", {}});

  exec::ThreadPool pool(4);
  for (const Case& c : cases) {
    InMemoryEdgeStream stream(c.edges);
    auto inline_or = ComputeDegrees(stream);
    ASSERT_TRUE(inline_or.ok()) << c.label;
    for (const uint32_t batch_size : {64u, 1024u}) {
      for (const uint32_t threads : {1u, 2u, 4u}) {
        auto got = DegreesAt(stream, threads, batch_size, pool);
        ASSERT_TRUE(got.ok()) << c.label << " t=" << threads;
        EXPECT_EQ(got->degrees, inline_or->degrees)
            << c.label << " t=" << threads << " batch=" << batch_size;
        EXPECT_EQ(got->num_edges, c.edges.size())
            << c.label << " t=" << threads << " batch=" << batch_size;
      }
    }
  }
  // The oracle itself: the hub has one edge per leaf.
  InMemoryEdgeStream star_stream(star);
  auto star_degrees = DegreesAt(star_stream, 4, 1024, pool);
  ASSERT_TRUE(star_degrees.ok());
  EXPECT_EQ(star_degrees->degree(0), 1500u);
  EXPECT_EQ(star_degrees->degree(1500), 1u);
}

/// On a compressed file the workers decode the blocks themselves.
TEST(DegreesTest, BlockFileIdenticalAcrossThreadCounts) {
  RmatConfig rmat;
  rmat.scale = 12;
  rmat.edge_factor = 8;
  const std::vector<Edge> edges = GenerateRmat(rmat);
  const std::string path = testing::TempDir() + "/degrees_rmat.tpsl";
  ASSERT_TRUE(
      io::WriteEdgeFile(path, edges, io::EdgeFileFormat::kCompressedBlocks)
          .ok());
  InMemoryEdgeStream memory(edges);
  auto expected = ComputeDegrees(memory);
  ASSERT_TRUE(expected.ok());
  exec::ThreadPool pool(4);
  for (const uint32_t threads : {1u, 2u, 4u}) {
    auto stream = io::OpenEdgeFile(path);
    ASSERT_TRUE(stream.ok());
    auto got = DegreesAt(**stream, threads, 8192, pool);
    ASSERT_TRUE(got.ok()) << threads;
    EXPECT_EQ(got->degrees, expected->degrees) << threads;
    EXPECT_EQ(got->num_edges, edges.size()) << threads;
  }
  std::remove(path.c_str());
}

TEST(DegreesTest, InvalidVertexFailsOnWorkers) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 500; ++v) {
    edges.push_back({v, v + 1});
  }
  edges[300] = {kInvalidVertex, 3};
  InMemoryEdgeStream stream(edges);
  auto inline_or = ComputeDegrees(stream);
  ASSERT_FALSE(inline_or.ok());
  EXPECT_EQ(inline_or.status().code(), StatusCode::kInvalidArgument);
  exec::ThreadPool pool(4);
  auto got = DegreesAt(stream, 4, 64, pool);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(got.status().message(), inline_or.status().message());
}

/// Delivers `good_edges` edges, then ends the pass early with a sticky
/// non-OK Health, as a failing file reader does.
class FailingStream : public EdgeStream {
 public:
  explicit FailingStream(size_t good_edges) : good_edges_(good_edges) {}

  Status Reset() override {
    delivered_ = 0;
    return Status::OK();
  }

  size_t Next(Edge* out, size_t capacity) override {
    if (delivered_ >= good_edges_) {
      failed_ = true;
      return 0;
    }
    const size_t n = std::min(capacity, good_edges_ - delivered_);
    for (size_t i = 0; i < n; ++i) {
      out[i] = {static_cast<VertexId>(delivered_ + i), 0};
    }
    delivered_ += n;
    return n;
  }

  Status Health() const override {
    return failed_ ? Status::IoError("read failed") : Status::OK();
  }

 private:
  size_t good_edges_;
  size_t delivered_ = 0;
  bool failed_ = false;
};

TEST(DegreesTest, StreamFailureMidPassIsReturned) {
  exec::ThreadPool pool(4);
  for (const uint32_t threads : {1u, 4u}) {
    FailingStream stream(1000);
    auto got = DegreesAt(stream, threads, 64, pool);
    ASSERT_FALSE(got.ok()) << threads;
    EXPECT_EQ(got.status().code(), StatusCode::kIoError) << threads;
  }
}

/// Checks `adj` against the definition: per-vertex degree counts as
/// offsets, and each vertex's entries in ascending edge-id order (a
/// self-loop appears twice, both times with its own id).
void ExpectAdjacencyOf(const std::vector<Edge>& edges, VertexId num_vertices,
                       const expansion::IndexedAdjacency& adj) {
  std::vector<std::vector<std::pair<VertexId, uint64_t>>> lists(num_vertices);
  for (uint64_t id = 0; id < edges.size(); ++id) {
    lists[edges[id].first].push_back({edges[id].second, id});
    lists[edges[id].second].push_back({edges[id].first, id});
  }
  ASSERT_EQ(adj.offsets.size(), static_cast<size_t>(num_vertices) + 1);
  EXPECT_EQ(adj.offsets[0], 0u);
  for (VertexId v = 0; v < num_vertices; ++v) {
    ASSERT_EQ(adj.degree(v), lists[v].size()) << "vertex " << v;
    for (size_t i = 0; i < lists[v].size(); ++i) {
      EXPECT_EQ(adj.neighbors[adj.offsets[v] + i], lists[v][i].first);
      EXPECT_EQ(adj.edge_ids[adj.offsets[v] + i], lists[v][i].second);
    }
  }
  EXPECT_EQ(adj.neighbors.size(), 2 * edges.size());
  EXPECT_EQ(adj.edge_ids.size(), 2 * edges.size());
}

/// The chunked counting sort gives byte-identical arrays on the
/// caller's thread and on four pool workers, for the degenerate graphs
/// and for edge counts that do and do not split evenly into chunks.
TEST(IndexedAdjacencyTest, ByteIdenticalAtOneAndFourThreads) {
  struct Case {
    const char* label;
    std::vector<Edge> edges;
    VertexId num_vertices;
  };
  std::vector<Case> cases;
  cases.push_back({"empty", {}, 0});
  cases.push_back({"empty with isolated vertices", {}, 5});
  cases.push_back({"self-loop listed twice", {{0, 0}, {0, 0}}, 1});
  cases.push_back({"fewer edges than threads", {{2, 0}, {1, 2}}, 3});
  for (const uint64_t m : {32767u, 32768u, 32769u, 40001u}) {
    constexpr VertexId kVertices = 3000;
    SplitMix64 rng(m);
    Case c{"random", {}, kVertices};
    for (uint64_t i = 0; i < m; ++i) {
      c.edges.push_back({static_cast<VertexId>(rng.NextBounded(kVertices)),
                         static_cast<VertexId>(rng.NextBounded(kVertices))});
    }
    cases.push_back(std::move(c));
  }

  exec::ThreadPool pool(4);
  exec::ExecContext parallel;
  parallel.threads = 4;
  parallel.pool = &pool;
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << c.label << " |E|=" << c.edges.size());
    const auto serial =
        expansion::IndexedAdjacency::Build(c.edges, c.num_vertices);
    const auto fanned =
        expansion::IndexedAdjacency::Build(c.edges, c.num_vertices, parallel);
    EXPECT_EQ(serial.offsets, fanned.offsets);
    EXPECT_EQ(serial.neighbors, fanned.neighbors);
    EXPECT_EQ(serial.edge_ids, fanned.edge_ids);
    ExpectAdjacencyOf(c.edges, c.num_vertices, serial);
  }
}

}  // namespace
}  // namespace tpsl
