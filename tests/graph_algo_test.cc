#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "baselines/ne.h"
#include "exec/thread_pool.h"
#include "graph/degrees.h"
#include "graph/in_memory_edge_stream.h"
#include "graph/types.h"
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
